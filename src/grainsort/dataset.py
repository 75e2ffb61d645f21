"""Binary dataset container (magic ``GSRD``).

Layout, all little-endian:

    header:  magic 4s | version u16 | n_freq u32 | record count u64
             | f_start f64 | f_stop f64
    records: the scan array's bytes, one radar.RadarParams.scan_dtype record
             per scan: label u8 | seed u64 | snr f64 (NaN = noiseless)
             | n_freq * (re f64, im f64)
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .errors import CorruptDatasetError, DataError, DimensionMismatchError, InvalidParameterError
from .radar import RadarParams, SurfaceClass

MAGIC = b"GSRD"
VERSION = 1

_HEADER = struct.Struct("<4sHIQdd")


def save_dataset(path: Union[str, Path], params: RadarParams, scans: np.ndarray) -> None:
    """Write a scan array to the binary container; byte-identical for equal inputs."""
    if scans.dtype != params.scan_dtype:
        raise DimensionMismatchError(
            f"scan records of {scans.dtype} are not records of {params.n_freq}-point sweeps"
        )
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, params.n_freq, len(scans),
                              params.f_start, params.f_stop))
        fh.write(scans.tobytes())


def load_dataset(path: Union[str, Path], digest=None) -> Tuple[RadarParams, np.recarray]:
    """Read a binary container back as a read-only scan array; corruption
    errors name the byte offset.

    digest, when given, is a hashlib object updated with the bytes read, the
    same bytes the scan array is parsed from.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc.strerror}") from None
    if digest is not None:
        digest.update(blob)
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

    record = params.scan_dtype
    expected = _HEADER.size + count * record.itemsize
    if len(blob) != expected:
        raise CorruptDatasetError(
            f"{path}: expected {expected} bytes for {count} records, "
            f"file ends at byte offset {len(blob)}"
        )
    scans = np.frombuffer(blob, record, count=count, offset=_HEADER.size).view(np.recarray)
    # the first faulty record, and its label before its samples
    bad_label = scans.label >= len(SurfaceClass)
    faulty = np.flatnonzero(bad_label | ~np.all(np.isfinite(scans.samples), axis=1))
    if faulty.size:
        k = int(faulty[0])
        fault = f"unknown label {scans.label[k]}" if bad_label[k] else "non-finite sample"
        raise CorruptDatasetError(
            f"{path}: {fault} in the record at byte offset {_HEADER.size + k * record.itemsize}"
        )
    return params, scans
