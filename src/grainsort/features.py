"""Feature extraction: first-order statistics and gray-level texture features.

Six method chains turn an A-scan into a fixed-length vector.  The 1-D chains
summarise a transformed signal with first-order statistics; the 2-D chains
quantize the short-time spectrum magnitude and read co-occurrence or
run-length texture off it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import parallel, transforms
from .errors import DataError, InvalidParameterError

_DEGENERATE_VAR = 1e-24
# a relative spread this small cannot be cut into ENTROPY_BINS finite bins
_DEGENERATE_SPREAD = 1e-12
ENTROPY_BINS = 64
# texture matrices grow with G per image; cap G at the range of one byte
MAX_GRAY_LEVELS = 256
# scans per extract_matrix chunk and per extract_chains job: bounds the
# chains' temporaries, and a row does not depend on the other scans of its chunk
CHUNK_SCANS = 128
# G x G texture cells per chunk, cache-sized: all 128 images at G = 16, four at G = 256
TEXTURE_CELLS = 2**18

FOS_NAMES = ("mean", "variance", "skewness", "kurtosis", "entropy", "energy")


def _entropy(p: np.ndarray) -> np.ndarray:
    """-sum(p log p) over the positive entries of each row of a 2-D array.

    Each row's terms are summed by np.sum on their own: a sum's rounding
    depends on how many terms it adds, so a zero-padded or segmented sum
    over the rows would change the last bits.
    """
    keep = p > 0
    nonzero = p[keep]
    terms = nonzero * np.log(nonzero)
    ends = np.cumsum(keep.sum(axis=1))
    return -np.array([np.sum(t) for t in np.split(terms, ends[:-1])])


def fos(x) -> np.ndarray:
    """First-order statistics of each value distribution, in FOS_NAMES order.

    The last axis of x holds one distribution; the result has shape
    x.shape[:-1] + (6,), so a vector gives a 6-vector.  Population moments;
    skewness and excess kurtosis are defined as 0 for (near-)constant input,
    entropy is Shannon entropy (natural log) of a 64-bin equal-width
    histogram over [min, max], and 0 when that range is below float
    resolution.  Non-finite input is a data error.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] == 0:
        raise ValueError("cannot summarise an empty vector")
    batch, n = x.shape[:-1], x.shape[-1]
    x = x.reshape(-1, n)
    lo, hi = x.min(axis=1), x.max(axis=1)
    span = hi - lo
    if not np.all(np.isfinite(span)):
        raise DataError("values are not finite or span past the float range")
    # moments overflow to inf, which extract_matrix rejects
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = x.mean(axis=1)
        centred = x - mean[:, None]
        sq = centred**2
        m2 = sq.mean(axis=1)
        # higher powers as products of the square: numpy's array power loop
        # leaves its vector path on mixed-sign input; the moment divisors are
        # numpy scalar powers, which the array power loop rounds differently
        skew = (sq * centred).mean(axis=1) / np.array([v**1.5 for v in m2])
        kurt = (sq * sq).mean(axis=1) / np.array([v**2 for v in m2]) - 3.0
        energy = (x**2).sum(axis=1)
    flat = m2 < _DEGENERATE_VAR
    skew[flat] = kurt[flat] = 0.0
    entropy = np.zeros(len(x))
    spread = np.maximum(_DEGENERATE_VAR, _DEGENERATE_SPREAD * np.maximum(np.abs(lo), np.abs(hi)))
    binned = np.flatnonzero(~(span < spread))
    if binned.size:
        entropy[binned] = _entropy(_histogram(x[binned], lo[binned], hi[binned]) / n)
    out = np.stack([mean, m2, skew, kurt, entropy, energy], axis=1)
    return out.reshape(batch + (len(FOS_NAMES),))


def _histogram(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """ENTROPY_BINS-bin counts of each row over its [lo, hi], bin for bin as
    np.histogram(row, ENTROPY_BINS, (lo, hi)) counts them."""
    rows = np.arange(len(x))[:, None]
    edges = np.linspace(lo, hi, ENTROPY_BINS + 1, axis=1)
    index = ((x - lo[:, None]) / (hi - lo)[:, None] * ENTROPY_BINS).astype(np.intp)
    # np.histogram's fix-ups: the maximum joins the last bin, and a value
    # that rounding put one bin off moves to the bin whose edges hold it
    index[index == ENTROPY_BINS] -= 1
    index[x < edges[rows, index]] -= 1
    index[(x >= edges[rows, index + 1]) & (index != ENTROPY_BINS - 1)] += 1
    counts = np.bincount((rows * ENTROPY_BINS + index).ravel(), minlength=len(x) * ENTROPY_BINS)
    return counts.reshape(len(x), ENTROPY_BINS)


def quantize(m, gray_levels: int) -> np.ndarray:
    """dB-scale each non-negative matrix, then map its [min, max] to integer
    pixels 0..G-1; the last two axes hold one matrix.

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
    axes = tuple(range(db.ndim))[-2:]
    lo, hi = db.min(axis=axes, keepdims=True), db.max(axis=axes, keepdims=True)
    constant = hi - lo < 1e-12
    pixels = np.floor((db - lo) / np.where(constant, 1.0, hi - lo) * gray_levels).astype(np.int64)
    pixels = np.clip(pixels, 0, gray_levels - 1)
    pixels[np.broadcast_to(constant, pixels.shape)] = 0
    return pixels


# (dy, dx) at distance 1 for the four standard angles: the pixel pairs glcm
# counts and the steps along glrlm's scan lines
ANGLE_OFFSETS = {0: (0, 1), 45: (-1, 1), 90: (-1, 0), 135: (-1, -1)}
GLCM_ANGLES = tuple(ANGLE_OFFSETS)


def _images(pixels, gray_levels: int) -> np.ndarray:
    """Integer images stacked as (n_images, rows, cols), every pixel a gray level."""
    pixels = np.asarray(pixels)
    if pixels.size and (pixels.min() < 0 or pixels.max() >= gray_levels):
        raise InvalidParameterError(f"pixels must lie in 0..{gray_levels - 1}")
    return pixels.reshape((-1,) + pixels.shape[-2:]).astype(np.int64, copy=False)


def glcm(pixels: np.ndarray, gray_levels: int, offset: Tuple[int, int]) -> np.ndarray:
    """(..., G, G) gray-level pair histograms at one (dy, dx) offset, counted
    in both orders and normalised to sum 1; the last two axes of pixels hold
    one image."""
    dy, dx = int(offset[0]), int(offset[1])
    if (dy, dx) == (0, 0):
        raise InvalidParameterError("offset (0, 0) is not a neighbour relation")
    batch, (rows, cols) = np.shape(pixels)[:-2], np.shape(pixels)[-2:]
    r0, r1 = max(0, -dy), rows - max(0, dy)
    c0, c1 = max(0, -dx), cols - max(0, dx)
    if r1 <= r0 or c1 <= c0:
        raise InvalidParameterError(
            f"offset {(dy, dx)} does not fit inside a {rows}x{cols} image"
        )
    images = _images(pixels, gray_levels)
    g = gray_levels
    a = images[:, r0:r1, c0:c1].reshape(len(images), -1)
    b = images[:, r0 + dy : r1 + dy, c0 + dx : c1 + dx].reshape(len(images), -1)
    image = np.arange(len(images))[:, None]
    counts = np.bincount(((image * g + a) * g + b).ravel(), minlength=len(images) * g * g)
    counts = counts.reshape(batch + (g, g)).astype(float)
    counts = counts + np.swapaxes(counts, -1, -2)
    counts /= counts.sum(axis=(-2, -1), keepdims=True)
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
    """Haralick-style subset of each normalised co-occurrence matrix in the
    last two axes: contrast, correlation, angular second moment (energy),
    homogeneity, entropy, dissimilarity; shape p.shape[:-2] + (6,)."""
    p = np.asarray(p, dtype=float)
    batch, g = p.shape[:-2], p.shape[-1]
    p = p.reshape(-1, g, g)
    cells = p.reshape(len(p), g * g)

    def total(t):
        return t.reshape(len(p), -1).sum(axis=1)

    if np.any(np.abs(cells.sum(axis=1) - 1.0) > 1e-9):
        raise InvalidParameterError("co-occurrence matrix must be normalised")
    i, j = np.indices((g, g))
    diff = i - j
    contrast = total(p * diff**2)
    dissimilarity = total(p * np.abs(diff))
    energy = total(p**2)
    homogeneity = total(p / (1.0 + diff**2))
    entropy = _entropy(cells)
    levels = np.arange(g)
    pi = p.sum(axis=2)
    mu_i = (levels * pi).sum(axis=1)
    var_i = ((levels - mu_i[:, None]) ** 2 * pi).sum(axis=1)
    pj = p.sum(axis=1)
    mu_j = (levels * pj).sum(axis=1)
    var_j = ((levels - mu_j[:, None]) ** 2 * pj).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        correlation = total(
            (i - mu_i[:, None, None]) * (j - mu_j[:, None, None]) * p
        ) / np.sqrt(var_i * var_j)
    correlation[(var_i < _DEGENERATE_VAR) | (var_j < _DEGENERATE_VAR)] = 0.0
    out = np.stack(
        [contrast, correlation, energy, homogeneity, entropy, dissimilarity], axis=1
    )
    return out.reshape(batch + (len(GLCM_FEATURE_NAMES),))


def glrlm(pixels: np.ndarray, gray_levels: int, direction: int) -> np.ndarray:
    """Maximal-run decomposition of every scan line in one direction (degrees).

    A scan line steps by the direction's ANGLE_OFFSETS entry, the offset glcm
    pairs pixels at.  counts[..., g, l-1] is the number of maximal runs of
    gray g with length l in the image held by the last two axes of pixels.
    """
    try:
        dy, dx = ANGLE_OFFSETS[int(direction)]
    except KeyError:
        raise InvalidParameterError(f"direction must be one of {GLCM_ANGLES}") from None
    batch, shape = np.shape(pixels)[:-2], np.shape(pixels)[-2:]
    g, longest = gray_levels, max(shape)
    if np.size(pixels) == 0:
        return np.zeros(batch + (g, longest), dtype=np.int64)
    images = _images(pixels, gray_levels)
    r, c = np.indices(shape)
    # a step keeps dx*r - dy*c, which tells the lines apart, and raises dy*r + dx*c
    line = (dx * r - dy * c).ravel()
    order = np.lexsort(((dy * r + dx * c).ravel(), line))
    line, gray = line[order], images.reshape(len(images), -1)[:, order]
    new_run = np.ones(gray.shape, dtype=bool)
    new_run[:, 1:] = (np.diff(line) != 0) | (np.diff(gray, axis=1) != 0)
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, gray.size))
    image = starts // gray.shape[1]
    counts = np.bincount(
        (image * g + gray.ravel()[starts]) * longest + lengths - 1,
        minlength=len(images) * g * longest,
    )
    return counts.reshape(batch + (g, longest))


GLRLM_FEATURE_NAMES = (
    "SRE", "LRE", "GLN", "RLN", "RP",
    "LGRE", "HGRE", "SRLGE", "SRHGE", "LRLGE", "LRHGE",
)


def glrlm_features(run_lengths: np.ndarray, n_pixels: int) -> np.ndarray:
    """The 11 standard run-length features of each run-length matrix in the
    last two axes; gray levels weighted from 1."""
    if n_pixels <= 0:
        raise ValueError("n_pixels must be positive")
    counts = np.asarray(run_lengths).astype(float)
    batch, shape = counts.shape[:-2], counts.shape[-2:]
    counts = counts.reshape((-1,) + shape)
    n_runs = counts.reshape(len(counts), -1).sum(axis=1)
    if np.any(n_runs == 0):
        raise ValueError("run-length matrix holds no runs")

    def per_run(t):
        return t.reshape(len(counts), -1).sum(axis=1) / n_runs

    g_idx, l_idx = np.indices(shape)
    gray2 = (g_idx + 1).astype(float) ** 2  # 1-based gray weighting
    length2 = (l_idx + 1).astype(float) ** 2
    out = np.stack([
        per_run(counts / length2),  # SRE
        per_run(counts * length2),  # LRE
        (counts.sum(axis=2) ** 2).sum(axis=1) / n_runs,  # GLN
        (counts.sum(axis=1) ** 2).sum(axis=1) / n_runs,  # RLN
        n_runs / float(n_pixels),  # RP
        per_run(counts / gray2),  # LGRE
        per_run(counts * gray2),  # HGRE
        per_run(counts / (gray2 * length2)),  # SRLGE
        per_run(counts * gray2 / length2),  # SRHGE
        per_run(counts * length2 / gray2),  # LRLGE
        per_run(counts * gray2 * length2),  # LRHGE
    ], axis=1)
    return out.reshape(batch + (len(GLRLM_FEATURE_NAMES),))


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


def _chain(samples: np.ndarray, method_tag: str, params: FeatureParams) -> np.ndarray:
    """Run one method chain on an (n_scans, n_freq) complex array; one row per scan.

    Real-valued chains operate on the magnitude sequence of the complex
    sweep; the FFT chain transforms the complex samples directly.
    """
    if method_tag not in METHOD_TAGS:
        raise InvalidParameterError(
            f"unknown method {method_tag!r}; available: {METHOD_TAGS}"
        )
    mag = np.abs(samples)
    if method_tag == "FOS":
        return fos(mag)
    if method_tag == "FFT+FOS":
        return fos(np.abs(transforms.fft(samples)))
    if method_tag == "DCT+FOS":
        return fos(transforms.dct(mag))
    if method_tag == "DWT+FOS":
        bands = transforms.dwt_multilevel(mag, params.dwt_levels, params.dwt_wavelet)
        return np.concatenate([fos(band) for band in bands], axis=1)
    frames = transforms.stft(
        mag,
        window_len=params.stft_window_len,
        hop=params.stft_hop,
        fft_len=params.stft_fft_len,
    )
    magnitudes = np.abs(frames)
    # finite samples can still overflow to an infinite magnitude: a data fault
    if not np.all(np.isfinite(magnitudes)):
        raise DataError(f"{method_tag}: the STFT magnitudes of a scan are not finite")
    pixels = quantize(magnitudes, params.gray_levels)
    if method_tag == "STFT+GLCM":
        texture = [glcm_features(glcm(pixels, params.gray_levels, ANGLE_OFFSETS[a]))
                   for a in GLCM_ANGLES]
    else:
        texture = [glrlm_features(glrlm(pixels, params.gray_levels, a), pixels[0].size)
                   for a in GLCM_ANGLES]
    return np.concatenate(texture, axis=1)


def extract(
    scan: np.record, method_tag: str, params: FeatureParams = FeatureParams()
) -> FeatureVector:
    """Run one method chain on one scan record: extract_matrix's chain on a batch of one."""
    return FeatureVector(_chain(scan.samples[None, :], method_tag, params)[0], method_tag)


def extract_matrix(
    ascans: np.recarray, method_tag: str, params: FeatureParams = FeatureParams(),
    first_scan: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """One chain's feature rows of a scan array (radar.RadarParams.scan_dtype),
    a chunk at a time: (X, labels).  An error names a scan by its index in
    the array plus first_scan."""
    if len(ascans) == 0:
        raise DataError("no A-scans to extract from")
    samples = ascans.samples
    params.check_sweep(method_tag, samples.shape[1])
    chunk = min(CHUNK_SCANS, TEXTURE_CELLS // params.gray_levels**2)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are reported below
        X = np.vstack([
            _chain(samples[i : i + chunk], method_tag, params)
            for i in range(0, len(samples), chunk)
        ])
    bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
    if bad.size:
        raise DataError(f"{method_tag} features of scan {first_scan + bad[0]} are not finite")
    return X, ascans.label.astype(np.int64)


def extract_chains(
    scans: np.recarray, method_tags: Sequence[str], params: FeatureParams = FeatureParams()
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Every chain's feature rows of a scan array: ({method_tag: X}, labels).

    Each CHUNK_SCANS scans are one job of parallel.pmap, which runs
    extract_matrix on them for every chain.  A data error is the one that
    extract_matrix on the whole array raises for the first chain that fails.
    """
    if len(scans) == 0:
        raise DataError("no A-scans to extract from")
    parts = parallel.pmap(
        functools.partial(_extract_slice, tuple(method_tags), params),
        [(i, scans[i : i + CHUNK_SCANS]) for i in range(0, len(scans), CHUNK_SCANS)],
    )
    chains = {}
    for c, method_tag in enumerate(method_tags):
        rows = [part[c] for part in parts]
        errors = [r for r in rows if isinstance(r, DataError)]
        if errors:
            raise errors[0]
        chains[method_tag] = np.vstack(rows)
    return chains, scans.label.astype(np.int64)


def _extract_slice(method_tags, params, job) -> list:
    """One job of extract_chains: each chain's rows of one slice, or its DataError."""
    first_scan, scans = job
    rows = []
    for method_tag in method_tags:
        try:
            rows.append(extract_matrix(scans, method_tag, params, first_scan)[0])
        except DataError as exc:
            rows.append(exc)
    return rows
