"""Binary dataset container (magic ``GSRD``).

Layout, all little-endian:

    header:  magic 4s | version u16 | n_freq u32 | record count u64
             | f_start f64 | f_stop f64
    record:  label u8 | seed u64 | snr f64 (NaN = noiseless)
             | n_freq * (re f64, im f64)
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from .errors import CorruptDatasetError, DataError, DimensionMismatchError, InvalidParameterError
from .radar import AScan, RadarParams, SurfaceClass

MAGIC = b"GSRD"
VERSION = 1

_HEADER = struct.Struct("<4sHIQdd")
_RECORD_FIXED = struct.Struct("<BQd")


def save_dataset(path: Union[str, Path], params: RadarParams, ascans: List[AScan]) -> None:
    """Write A-scans to the binary container; byte-identical for equal inputs."""
    path = Path(path)
    n_freq = params.n_freq
    with path.open("wb") as fh:
        fh.write(
            _HEADER.pack(MAGIC, VERSION, n_freq, len(ascans), params.f_start, params.f_stop)
        )
        for scan in ascans:
            if scan.samples.size != n_freq:
                raise DimensionMismatchError(
                    f"A-scan has {scan.samples.size} samples, header says {n_freq}"
                )
            snr = math.nan if scan.snr_db is None else float(scan.snr_db)
            fh.write(_RECORD_FIXED.pack(int(scan.label), int(scan.seed), snr))
            fh.write(np.ascontiguousarray(scan.samples, dtype="<c16").tobytes())


def load_dataset(path: Union[str, Path]) -> Tuple[RadarParams, List[AScan]]:
    """Read a binary container back; corruption errors name the byte offset."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc.strerror}") from None
    if len(blob) < _HEADER.size:
        raise CorruptDatasetError(
            f"{path}: truncated header, file ends at byte offset {len(blob)}"
        )
    magic, version, n_freq, count, f_start, f_stop = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CorruptDatasetError(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != VERSION:
        raise CorruptDatasetError(
            f"{path}: unsupported version {version} at byte offset 4"
        )
    try:
        params = RadarParams(f_start=f_start, f_stop=f_stop, n_freq=int(n_freq))
    except InvalidParameterError as exc:
        raise CorruptDatasetError(
            f"{path}: invalid sweep fields from byte offset 6: {exc}"
        ) from None

    record_size = _RECORD_FIXED.size + 16 * n_freq
    expected = _HEADER.size + count * record_size
    if len(blob) != expected:
        offset = len(blob)
        raise CorruptDatasetError(
            f"{path}: expected {expected} bytes for {count} records, "
            f"file ends at byte offset {offset}"
        )

    ascans = []
    pos = _HEADER.size
    labels = {int(c) for c in SurfaceClass}
    for _ in range(count):
        label, seed, snr = _RECORD_FIXED.unpack_from(blob, pos)
        samples = np.frombuffer(blob, "<c16", count=n_freq, offset=pos + _RECORD_FIXED.size)
        if label not in labels or not np.all(np.isfinite(samples.view("<f8"))):
            fault = f"unknown label {label}" if label not in labels else "non-finite sample"
            raise CorruptDatasetError(f"{path}: {fault} in the record at byte offset {pos}")
        pos += record_size
        ascans.append(
            AScan(
                samples=samples.copy(),
                label=SurfaceClass(label),
                seed=seed,
                snr_db=None if math.isnan(snr) else snr,
            )
        )
    return params, ascans
