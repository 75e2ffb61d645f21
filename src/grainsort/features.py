"""Feature extraction: first-order statistics and gray-level texture features.

Six method chains turn an A-scan into a fixed-length vector.  The 1-D chains
summarise a transformed signal with first-order statistics; the 2-D chains
quantize the short-time spectrum magnitude and read co-occurrence or
run-length texture off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from . import transforms
from .errors import DataError, InvalidParameterError
from .radar import AScan

_DEGENERATE_VAR = 1e-24
# a relative spread this small cannot be cut into ENTROPY_BINS finite bins
_DEGENERATE_SPREAD = 1e-12
ENTROPY_BINS = 64
# texture matrices grow with G per image; cap G at the range of one byte
MAX_GRAY_LEVELS = 256

FOS_NAMES = ("mean", "variance", "skewness", "kurtosis", "entropy", "energy")


def fos(x) -> np.ndarray:
    """First-order statistics of a value distribution, in FOS_NAMES order.

    Population moments; skewness and excess kurtosis are defined as 0 for
    (near-)constant input, entropy is Shannon entropy (natural log) of a
    64-bin equal-width histogram over [min, max], and 0 when that range is
    below float resolution.  Non-finite input is a data error.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot summarise an empty vector")
    lo, hi = float(np.min(x)), float(np.max(x))
    if not np.isfinite(hi - lo):
        raise DataError("values are not finite or span past the float range")
    # numpy scalars overflow to inf, which extract_matrix rejects; floats would raise
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(x))
        centred = x - mean
        m2 = np.mean(centred**2)
        if m2 < _DEGENERATE_VAR:
            skew = kurt = 0.0
        else:
            skew = float(np.mean(centred**3) / m2**1.5)
            kurt = float(np.mean(centred**4) / m2**2 - 3.0)
        energy = float(np.sum(x**2))
    if hi - lo < max(_DEGENERATE_VAR, _DEGENERATE_SPREAD * max(abs(lo), abs(hi))):
        entropy = 0.0
    else:
        hist, _ = np.histogram(x, bins=ENTROPY_BINS, range=(lo, hi))
        p = hist[hist > 0] / x.size
        entropy = float(-np.sum(p * np.log(p)))
    return np.array([mean, float(m2), skew, kurt, entropy, energy])


def quantize(m, gray_levels: int = 16) -> np.ndarray:
    """dB-scale a non-negative matrix, then map [min, max] to integer pixels 0..G-1.

    A constant matrix maps to all zeros; otherwise the maximum element always
    lands on G-1.
    """
    if gray_levels < 2:
        raise InvalidParameterError("need at least 2 gray levels")
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    if np.any(m < 0):
        raise InvalidParameterError("dB quantization expects non-negative magnitudes")
    db = 20.0 * np.log10(m + 1e-12)
    lo, hi = db.min(), db.max()
    if hi - lo < 1e-12:
        pixels = np.zeros(m.shape, dtype=np.int64)
    else:
        pixels = np.floor((db - lo) / (hi - lo) * gray_levels).astype(np.int64)
        pixels = np.clip(pixels, 0, gray_levels - 1)
    return pixels


# (dy, dx) at distance 1 for the four standard angles: the pixel pairs glcm
# counts and the steps along glrlm's scan lines
ANGLE_OFFSETS = {0: (0, 1), 45: (-1, 1), 90: (-1, 0), 135: (-1, -1)}
GLCM_ANGLES = tuple(ANGLE_OFFSETS)


def glcm(pixels: np.ndarray, gray_levels: int, offset: Tuple[int, int]) -> np.ndarray:
    """(G, G) gray-level pair histogram at one (dy, dx) offset, counted in
    both orders and normalised to sum 1."""
    dy, dx = int(offset[0]), int(offset[1])
    if (dy, dx) == (0, 0):
        raise InvalidParameterError("offset (0, 0) is not a neighbour relation")
    rows, cols = pixels.shape
    r0, r1 = max(0, -dy), rows - max(0, dy)
    c0, c1 = max(0, -dx), cols - max(0, dx)
    if r1 <= r0 or c1 <= c0:
        raise InvalidParameterError(
            f"offset {(dy, dx)} does not fit inside a {rows}x{cols} image"
        )
    a = pixels[r0:r1, c0:c1].ravel()
    b = pixels[r0 + dy : r1 + dy, c0 + dx : c1 + dx].ravel()
    counts = np.zeros((gray_levels, gray_levels), dtype=float)
    np.add.at(counts, (a, b), 1.0)
    counts = counts + counts.T
    counts /= counts.sum()
    return counts


GLCM_FEATURE_NAMES = (
    "contrast",
    "correlation",
    "energy",
    "homogeneity",
    "entropy",
    "dissimilarity",
)


def glcm_features(p: np.ndarray) -> np.ndarray:
    """Haralick-style subset of a normalised co-occurrence matrix: contrast,
    correlation, angular second moment (energy), homogeneity, entropy,
    dissimilarity."""
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvalidParameterError("co-occurrence matrix must be normalised")
    g = p.shape[0]
    i, j = np.indices((g, g))
    diff = i - j
    contrast = float(np.sum(p * diff**2))
    dissimilarity = float(np.sum(p * np.abs(diff)))
    energy = float(np.sum(p**2))
    homogeneity = float(np.sum(p / (1.0 + diff**2)))
    nonzero = p[p > 0]
    entropy = float(-np.sum(nonzero * np.log(nonzero)))
    pi = p.sum(axis=1)
    mu_i = float(np.sum(np.arange(g) * pi))
    var_i = float(np.sum((np.arange(g) - mu_i) ** 2 * pi))
    pj = p.sum(axis=0)
    mu_j = float(np.sum(np.arange(g) * pj))
    var_j = float(np.sum((np.arange(g) - mu_j) ** 2 * pj))
    if var_i < _DEGENERATE_VAR or var_j < _DEGENERATE_VAR:
        correlation = 0.0
    else:
        correlation = float(
            np.sum((i - mu_i) * (j - mu_j) * p) / np.sqrt(var_i * var_j)
        )
    return np.array(
        [contrast, correlation, energy, homogeneity, entropy, dissimilarity]
    )


def glrlm(pixels: np.ndarray, gray_levels: int, direction: int) -> np.ndarray:
    """Maximal-run decomposition of every scan line in one direction (degrees).

    A scan line steps by the direction's ANGLE_OFFSETS entry, the offset glcm
    pairs pixels at.  counts[g, l-1] is the number of maximal runs of gray g
    with length l.
    """
    try:
        dy, dx = ANGLE_OFFSETS[int(direction)]
    except KeyError:
        raise InvalidParameterError(f"direction must be one of {GLCM_ANGLES}") from None
    counts = np.zeros((gray_levels, max(pixels.shape)), dtype=np.int64)
    if pixels.size == 0:
        return counts
    r, c = np.indices(pixels.shape)
    # a step keeps dx*r - dy*c, which tells the lines apart, and raises dy*r + dx*c
    line = (dx * r - dy * c).ravel()
    order = np.lexsort(((dy * r + dx * c).ravel(), line))
    line, gray = line[order], pixels.ravel()[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (np.diff(line) != 0) | (np.diff(gray) != 0)))
    )
    lengths = np.diff(np.append(starts, gray.size))
    np.add.at(counts, (gray[starts], lengths - 1), 1)
    return counts


GLRLM_FEATURE_NAMES = (
    "SRE", "LRE", "GLN", "RLN", "RP",
    "LGRE", "HGRE", "SRLGE", "SRHGE", "LRLGE", "LRHGE",
)


def glrlm_features(run_lengths: np.ndarray, n_pixels: int) -> np.ndarray:
    """The 11 standard run-length features; gray levels weighted from 1."""
    if n_pixels <= 0:
        raise ValueError("n_pixels must be positive")
    counts = run_lengths.astype(float)
    n_runs = counts.sum()
    if n_runs == 0:
        raise ValueError("run-length matrix holds no runs")
    g_idx, l_idx = np.indices(counts.shape)
    gray = (g_idx + 1).astype(float)  # 1-based gray weighting
    length = (l_idx + 1).astype(float)
    sre = np.sum(counts / length**2) / n_runs
    lre = np.sum(counts * length**2) / n_runs
    gln = np.sum(counts.sum(axis=1) ** 2) / n_runs
    rln = np.sum(counts.sum(axis=0) ** 2) / n_runs
    rp = n_runs / float(n_pixels)
    lgre = np.sum(counts / gray**2) / n_runs
    hgre = np.sum(counts * gray**2) / n_runs
    srlge = np.sum(counts / (gray**2 * length**2)) / n_runs
    srhge = np.sum(counts * gray**2 / length**2) / n_runs
    lrlge = np.sum(counts * length**2 / gray**2) / n_runs
    lrhge = np.sum(counts * gray**2 * length**2) / n_runs
    return np.array(
        [sre, lre, gln, rln, rp, lgre, hgre, srlge, srhge, lrlge, lrhge]
    )


METHOD_TAGS = ("FOS", "FFT+FOS", "DCT+FOS", "DWT+FOS", "STFT+GLCM", "STFT+GLRLM")


@dataclass(frozen=True)
class FeatureParams:
    """Knobs shared by the extraction chains; unusable values raise
    InvalidParameterError on construction or in :meth:`check_sweep`."""

    gray_levels: int = 16
    stft_window_len: int = 64
    stft_hop: int = 32
    stft_fft_len: int = 64
    dwt_wavelet: str = "db4"
    dwt_levels: int = 4

    def __post_init__(self):
        if self.dwt_wavelet not in transforms.WAVELETS:
            raise InvalidParameterError(
                f"unknown wavelet {self.dwt_wavelet!r}; "
                f"available: {sorted(transforms.WAVELETS)}"
            )
        if (min(self.gray_levels, self.stft_window_len) < 2
                or min(self.stft_hop, self.dwt_levels) < 1
                or self.gray_levels > MAX_GRAY_LEVELS):
            raise InvalidParameterError(
                f"need 2 <= gray_levels <= {MAX_GRAY_LEVELS}, stft window_len >= 2, "
                f"hop >= 1 and dwt levels >= 1: {self}"
            )
        if self.stft_fft_len < self.stft_window_len:
            raise InvalidParameterError(
                f"stft fft_len {self.stft_fft_len} is below window_len "
                f"{self.stft_window_len}"
            )

    def check_sweep(self, method_tag: str, n_freq: int) -> None:
        """Raise InvalidParameterError if the chain cannot run on n_freq-point sweeps."""
        if method_tag.startswith("STFT") and self.stft_window_len > n_freq:
            raise InvalidParameterError(
                f"stft window_len {self.stft_window_len} exceeds the "
                f"{n_freq}-point sweep"
            )
        if method_tag == "DWT+FOS":
            # the input length of each analysis level
            lens = transforms.subband_lengths(n_freq, self.dwt_levels - 1, self.dwt_wavelet)
            if min(lens) < transforms.WAVELETS[self.dwt_wavelet].size:
                raise InvalidParameterError(
                    f"a {n_freq}-point sweep is too short for {self.dwt_levels} "
                    f"{self.dwt_wavelet} levels"
                )


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    method_tag: str


def _stft_image(mag: np.ndarray, params: FeatureParams) -> np.ndarray:
    frames = transforms.stft(
        mag,
        window_len=params.stft_window_len,
        hop=params.stft_hop,
        fft_len=params.stft_fft_len,
    )
    return quantize(np.abs(frames), params.gray_levels)


def extract(
    ascan: AScan, method_tag: str, params: FeatureParams = FeatureParams()
) -> FeatureVector:
    """Run one method chain on an A-scan.

    Real-valued chains operate on the magnitude sequence of the complex
    sweep; the FFT chain transforms the complex samples directly.
    """
    if method_tag not in METHOD_TAGS:
        raise InvalidParameterError(
            f"unknown method {method_tag!r}; available: {METHOD_TAGS}"
        )
    mag = np.abs(ascan.samples)
    if method_tag == "FOS":
        values = fos(mag)
    elif method_tag == "FFT+FOS":
        values = fos(np.abs(transforms.fft(ascan.samples)))
    elif method_tag == "DCT+FOS":
        values = fos(transforms.dct(mag))
    elif method_tag == "DWT+FOS":
        bands = transforms.dwt_multilevel(mag, params.dwt_levels, params.dwt_wavelet)
        values = np.concatenate([fos(band) for band in bands])
    elif method_tag == "STFT+GLCM":
        pixels = _stft_image(mag, params)
        values = np.concatenate([
            glcm_features(glcm(pixels, params.gray_levels, ANGLE_OFFSETS[a]))
            for a in GLCM_ANGLES
        ])
    else:  # STFT+GLRLM
        pixels = _stft_image(mag, params)
        values = np.concatenate([
            glrlm_features(glrlm(pixels, params.gray_levels, d), pixels.size)
            for d in GLCM_ANGLES
        ])
    return FeatureVector(values, method_tag)


def extract_matrix(
    ascans: Sequence[AScan], method_tag: str, params: FeatureParams = FeatureParams()
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack per-scan feature vectors into (X, labels)."""
    if len(ascans) == 0:
        raise DataError("no A-scans to extract from")
    params.check_sweep(method_tag, ascans[0].samples.size)
    X = np.vstack([extract(a, method_tag, params).values for a in ascans])
    bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
    if bad.size:
        raise DataError(f"{method_tag} features of scan {bad[0]} are not finite")
    y = np.array([int(a.label) for a in ascans], dtype=np.int64)
    return X, y


def export_features_csv(
    path, ascans, method_tag, params=FeatureParams(), provenance: Sequence[str] = ()
) -> np.ndarray:
    """Feature CSV: provenance lines, then method_tag, label, f_0..f_{d-1}; returns X."""
    X, y = extract_matrix(ascans, method_tag, params)
    header = ["method_tag", "label"] + [f"f_{i}" for i in range(X.shape[1])]
    lines = list(provenance) + [",".join(header)]
    for label, row in zip(y, X):
        lines.append(
            ",".join([method_tag, str(int(label))] + [repr(float(v)) for v in row])
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return X
