"""Deterministic signal transforms feeding the feature extractors.

Every transform needs numpy alone.  The FFT delegates to numpy, the DCT is
one numpy FFT; the multilevel wavelet filterbank and the short-time Fourier
transform are implemented here so subband lengths, boundary handling and
framing are pinned down exactly.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def fft(signal) -> np.ndarray:
    """Unnormalised forward DFT of each (possibly complex) signal along the last axis."""
    x = np.asarray(signal)
    if x.size == 0:
        raise ValueError("cannot transform an empty signal")
    return np.fft.fft(x)


def dct(signal) -> np.ndarray:
    """Orthonormal DCT-II coefficients of each real signal along the last axis.

    Makhoul's one-FFT form (IEEE TASSP 28(1), 1980): the even samples in
    order, then the odd samples reversed, go through one length-N DFT; the
    real part of bin k times exp(-i pi k / (2N)) is the unnormalised
    coefficient k.
    """
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        raise ValueError("cannot transform an empty signal")
    n = x.shape[-1]
    spectrum = np.fft.fft(np.concatenate([x[..., ::2], x[..., 1::2][..., ::-1]], axis=-1))
    twiddle = np.exp(-0.5j * np.pi * np.arange(n) / n)
    out = (spectrum * twiddle).real.copy()
    out[..., 0] *= np.sqrt(1.0 / n)
    out[..., 1:] *= np.sqrt(2.0 / n)
    return out


# scaling (reconstruction low-pass) filters; sum = sqrt(2), energy = 1
WAVELETS = {
    "haar": np.array([0.7071067811865476, 0.7071067811865476]),
    "db2": np.array(
        [
            0.48296291314469025,
            0.8365163037378079,
            0.22414386804185735,
            -0.12940952255092145,
        ]
    ),
    "db4": np.array(
        [
            0.23037781330885523,
            0.7148465705525415,
            0.6308807679295904,
            -0.02798376941698385,
            -0.18703481171888114,
            0.030841381835986965,
            0.032883011666982945,
            -0.010597401784997278,
        ]
    ),
}


def _filters(wavelet_id: str) -> Tuple[np.ndarray, np.ndarray]:
    """Low-pass scaling filter and its quadrature-mirror high-pass mate."""
    try:
        lo = WAVELETS[wavelet_id]
    except KeyError:
        raise ValueError(
            f"unknown wavelet {wavelet_id!r}; available: {sorted(WAVELETS)}"
        ) from None
    n = np.arange(lo.size)
    hi = (-1.0) ** n * lo[::-1]
    return lo, hi


def dwt_multilevel(signal, levels: int, wavelet_id: str = "db4") -> List[np.ndarray]:
    """Cascade the analysis filterbank ``levels`` times on the running
    approximation of each signal along the last axis.

    Returns the subbands ``[approx, d_1, ..., d_levels]``: the deepest low-pass
    band, then the details from level 1 (finest) to ``levels`` (coarsest).
    Each level extends the signal half-sample symmetrically by filter_len - 1
    samples, filters it and keeps every second output from the second on.
    The transform is expansive: each level keeps
    floor((n + filter_len - 1) / 2) coefficients per band, so boundary padding
    may add samples relative to the input length.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    lo, hi = _filters(wavelet_id)
    pad = lo.size - 1
    x = np.asarray(signal, dtype=float)
    details: List[np.ndarray] = []
    for _ in range(levels):
        if x.shape[-1] <= pad:
            raise ValueError(
                f"signal of length {x.shape[-1]} is shorter than the {lo.size}-tap filter"
            )
        ext = np.concatenate([x[..., pad - 1 :: -1], x, x[..., : -pad - 1 : -1]], axis=-1)
        # the taps are summed in order, as np.correlate sums them, so each band
        # equals a per-signal np.correlate bit for bit (a matmul form does not)
        stop = ext.shape[-1] - pad
        x, detail = lo[0] * ext[..., 1:stop:2], hi[0] * ext[..., 1:stop:2]
        for k in range(1, lo.size):
            x += lo[k] * ext[..., 1 + k : stop + k : 2]
            detail += hi[k] * ext[..., 1 + k : stop + k : 2]
        details.append(detail)
    return [x] + details


def subband_lengths(n: int, levels: int, wavelet_id: str) -> List[int]:
    """Length at each cascade stage: [n, len_1, ..., len_levels]."""
    filt_len = _filters(wavelet_id)[0].size
    lens = [int(n)]
    for _ in range(levels):
        lens.append((lens[-1] + filt_len - 1) // 2)
    return lens


def stft(signal, window_len: int = 64, hop: int = 32, fft_len: int = 64) -> np.ndarray:
    """Hamming-windowed, hopped, zero-padded one-sided DFT frames of each
    signal along the last axis.

    Returns the complex spectra, shape (..., fft_len // 2 + 1, n_frames).
    """
    x = np.asarray(signal, dtype=float)
    if window_len > x.shape[-1]:
        raise ValueError(f"window_len {window_len} exceeds signal length {x.shape[-1]}")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if fft_len < window_len:
        raise ValueError("fft_len must be >= window_len")
    frames = sliding_window_view(x, window_len, axis=-1)[..., ::hop, :]
    spectra = np.fft.rfft(frames * np.hamming(window_len), n=fft_len, axis=-1)
    return np.swapaxes(spectra, -1, -2)
