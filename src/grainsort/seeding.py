"""Named random streams derived from one master seed.

Dataset records and fold shuffling each draw from their own stream so
re-running one stage never perturbs another (inside one record the radar
model splits scene, noise and jitter further by spawn key).  Stream
identity is hashed into the ``spawn_key`` of a ``numpy.random.SeedSequence``,
which is stable across platforms and runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

FOLD_STREAM = "folds"
RECORD_STREAM = "record"


def _stream_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream_seq(master_seed: int, stream: str, *indices: int) -> np.random.SeedSequence:
    """SeedSequence for the named stream, optionally indexed (class, sample, ...)."""
    key = (_stream_key(stream),) + tuple(int(i) for i in indices)
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)


def stream_rng(master_seed: int, stream: str, *indices: int) -> np.random.Generator:
    """Generator on the named stream."""
    return np.random.default_rng(stream_seq(master_seed, stream, *indices))


def record_seed(master_seed: int, stream: str, *indices: int) -> int:
    """Compact u64 seed for one dataset record, storable in the file format."""
    material = f"{int(master_seed)}:{stream}:" + ":".join(str(int(i)) for i in indices)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
