"""Independent brute-force oracles the fast implementations are tested against.

Everything here favours obviousness over speed: an extended-precision
phasor sum for the radar model, direct O(N^2) transform sums, an STFT that
transforms one frame at a time, per-pixel double loops for texture
counting, a projected-gradient solver for the SVM dual, the original
one-exponential-per-cell backscatter tables, the original class-branching
surface synthesis, the original whole-vector SMO loop and Gram expression,
the original one-signal wavelet filterbank, the original one-scan-at-a-time
feature chains, the original config schema and the
inverse-DFT range profile of a sweep (which the radar tests check the
simulated scatterer ranges with).  None of it shares code with the package
paths it checks, except the wavelet banks, the inverse transforms and the
per-scan chains: both wavelet banks read the package's filter taps (the
synthesis bank its subband lengths too), the DCT inverse delegates to
scipy, and the per-scan chains call the package's FFT, DCT and STFT on one
vector and its glcm/glrlm counters on one image, whose integer counts the
brute-force counters here pin.
"""

import math
from typing import List

import numpy as np
import scipy.fft

from grainsort import transforms
from grainsort.errors import DataError, DimensionMismatchError, InvalidParameterError
from grainsort.features import (
    _DEGENERATE_SPREAD, _DEGENERATE_VAR, ANGLE_OFFSETS, ENTROPY_BINS, GLCM_ANGLES,
    MAX_GRAY_LEVELS, METHOD_TAGS, glcm, glrlm,
)
from grainsort.radar import _SURFACE_KEY, RadarParams, ScattererCloud, SurfaceClass
from grainsort.transforms import _filters, subband_lengths


def longdouble_backscatter(amplitudes, ranges, f_start, f_stop, n_freq, c):
    """Noiseless sweep sum_i p_i * exp(-4j pi f_n R_i / c) in np.longdouble.

    Every frequency and phase is formed directly (no factorisation), with
    pi and the trigonometry in extended precision; returns complex128.
    """
    ld = np.longdouble
    amps = np.asarray(amplitudes, dtype=ld)
    ranges = np.asarray(ranges, dtype=ld)
    pi = 4 * np.arctan(ld(1))
    n = np.arange(n_freq, dtype=ld)
    freqs = ld(f_start) + (ld(f_stop) - ld(f_start)) * n / ld(n_freq - 1)
    phase = (-4 * pi / ld(c)) * np.outer(freqs, ranges)
    real = (np.cos(phase) * amps).sum(axis=1)
    imag = (np.sin(phase) * amps).sum(axis=1)
    return real.astype(float) + 1j * imag.astype(float)


def seed_backscatter(cloud, params) -> np.ndarray:
    """Noiseless sweep from two tables holding one complex exponential per cell.

    This was grainsort.radar.backscatter's kernel until its table rows
    became running products; the radar tests bound how far that moves a
    scan.
    """
    n = params.n_freq
    width = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    rows = -(-n // width)
    df = params.bandwidth / (n - 1)
    wavenumber = -4.0j * np.pi / params.c
    coarse = np.exp(
        wavenumber
        * np.outer(params.f_start + df * width * np.arange(rows), cloud.ranges)
    )
    fine = np.exp(wavenumber * np.outer(df * np.arange(width), cloud.ranges))
    return ((coarse * cloud.amplitudes) @ fine.T).ravel()[:n]


def _seed_roughness_sigma(scene, surface_class) -> float:
    if surface_class is SurfaceClass.PEAKED_CONE:
        return scene.surface_roughness_sigma * scene.pour_roughness_factor
    if surface_class is SurfaceClass.INVERTED_CONE:
        return scene.surface_roughness_sigma * scene.drain_roughness_factor
    return scene.surface_roughness_sigma


def _seed_wall_slope(scene, surface_class, cone_height) -> float:
    h = abs(cone_height)
    if surface_class is SurfaceClass.LEVELLED or h == 0.0:
        return 0.0
    radius = scene.diameter / 2.0
    if surface_class is SurfaceClass.PEAKED_CONE:
        return h * scene.peaked_shape_exponent / radius
    return -h * scene.inverted_shape_exponent / radius


def _seed_surface_depths(scene, surface_class, cone_height, radial, mean_depth) -> np.ndarray:
    h = abs(cone_height)
    if surface_class is SurfaceClass.LEVELLED or h == 0.0:
        return np.full_like(radial, mean_depth)
    t = np.clip(radial, 0.0, 1.0)
    if surface_class is SurfaceClass.PEAKED_CONE:
        q = scene.peaked_shape_exponent
        apex_depth = mean_depth - 2.0 * h / (q + 2.0)
        return apex_depth + h * t**q
    q = scene.inverted_shape_exponent
    crater_depth = mean_depth + 2.0 * h / (q + 2.0)
    return crater_depth - h * t**q


def _seed_ripple(scene, surface_class, cone_height, radial, phase) -> np.ndarray:
    if (
        surface_class is SurfaceClass.LEVELLED
        or abs(cone_height) == 0.0
        or scene.ripple_amplitude == 0.0
    ):
        return np.zeros_like(radial)
    amp = scene.ripple_amplitude
    if surface_class is SurfaceClass.INVERTED_CONE:
        amp *= scene.ripple_crater_factor
    rho = np.clip(radial, 0.0, 1.0) * (scene.diameter / 2.0)
    return amp * np.cos(2.0 * np.pi * rho / scene.ripple_wavelength + phase)


def seed_synth_surface(scene, surface_class, fill_fraction, cone_height, seed) -> ScattererCloud:
    """One scatterer cloud, each class's shape decided in four helpers.

    This was grainsort.radar.synth_surface until one per-class lookup took
    the class decision; the radar tests require equal ranges and amplitudes.
    The fill fraction and cone height are arguments, as they are of
    synth_surface, and the clutter rings are drawn when the scene has wall
    clutter scatterers; the algorithm is unchanged.
    """
    surface_class = SurfaceClass(surface_class)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(_SURFACE_KEY,))
    )
    silo_radius = scene.diameter / 2.0
    mean_depth = scene.antenna_height - fill_fraction * (scene.antenna_height - scene.rim_range)
    n = scene.scatterers_per_scene

    rho = silo_radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    px = rho * np.cos(theta)
    py = rho * np.sin(theta)

    offset_r = scene.apex_offset_fraction * silo_radius * np.sqrt(rng.random())
    offset_t = 2.0 * np.pi * rng.random()
    ax, ay = offset_r * np.cos(offset_t), offset_r * np.sin(offset_t)

    ripple_phase = 2.0 * np.pi * rng.random()
    sigma = _seed_roughness_sigma(scene, surface_class)
    radial = np.hypot(px - ax, py - ay) / silo_radius
    depths = _seed_surface_depths(scene, surface_class, cone_height, radial, mean_depth)
    depths = depths + _seed_ripple(scene, surface_class, cone_height, radial, ripple_phase)
    depths = depths + rng.normal(0.0, sigma, n)
    amps = rng.rayleigh(1.0, n)

    ranges = [depths]
    amplitudes = [amps]

    if scene.wall_clutter_scatterers > 0:
        n_c = scene.wall_clutter_scatterers
        ring_theta = 2.0 * np.pi * np.arange(n_c) / n_c
        rim = np.full(n_c, scene.rim_range)
        rim = rim + rng.normal(0.0, 0.001, n_c)
        ranges.append(rim)
        amplitudes.append(rng.rayleigh(scene.wall_clutter_amplitude, n_c))
        wall_radial = (
            np.hypot(silo_radius * np.cos(ring_theta) - ax,
                     silo_radius * np.sin(ring_theta) - ay)
            / silo_radius
        )
        contact = _seed_surface_depths(scene, surface_class, cone_height, wall_radial,
                                       mean_depth)
        contact = contact + _seed_ripple(scene, surface_class, cone_height, wall_radial,
                                         ripple_phase)
        contact = contact + rng.normal(0.0, sigma, n_c)
        ranges.append(contact)
        corner_factor = 1.0 + scene.dihedral_gain * np.tanh(
            _seed_wall_slope(scene, surface_class, cone_height) / 0.5
        )
        amplitudes.append(
            rng.rayleigh(scene.contact_clutter_amplitude * corner_factor, n_c)
        )

    gain = 10.0 ** (rng.uniform(-1.0, 1.0) * scene.gain_jitter_db / 20.0)
    all_ranges = np.concatenate(ranges)
    all_amps = gain * np.concatenate(amplitudes)
    return ScattererCloud(all_amps, all_ranges)


def direct_dft(x):
    """O(N^2) forward DFT sum."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for t in range(n):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def direct_inverse_dft(x):
    """O(N^2) inverse DFT sum with the 1/N convention."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        out[t] = np.sum(x * np.exp(2j * np.pi * t * np.arange(n) / n)) / n
    return out


def range_profile(samples, params) -> np.ndarray:
    """Complex range bins: the inverse DFT of the sweep.  Magnitude peaks locate
    scatterers; the bin spacing is range_resolution(params)."""
    if samples.size != params.n_freq:
        raise DimensionMismatchError(
            f"A-scan has {samples.size} samples, sweep defines {params.n_freq}"
        )
    return np.fft.ifft(samples)


def direct_dct2_ortho(x):
    """Orthonormal DCT-II as an explicit cosine sum."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(n)
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        total = 0.0
        for t in range(n):
            total += x[t] * np.cos(np.pi * (2 * t + 1) * k / (2 * n))
        out[k] = scale * total
    return out


def idct(coeffs) -> np.ndarray:
    """Inverse of ``transforms.dct`` (orthonormal DCT-III)."""
    return scipy.fft.idct(np.asarray(coeffs, dtype=float), type=2, norm="ortho")


def _seed_symmetric_extend(x: np.ndarray, pad: int) -> np.ndarray:
    """Half-sample symmetric extension by ``pad`` samples on each side."""
    left = x[pad - 1 :: -1] if pad > 0 else x[:0]
    right = x[: -pad - 1 : -1] if pad > 0 else x[:0]
    return np.concatenate([left, x, right])


def _seed_dwt_single(x: np.ndarray, wavelet_id: str):
    """One analysis level: symmetric extension, filtering, downsample by 2."""
    lo, hi = _filters(wavelet_id)
    filt_len = lo.size
    if x.size < filt_len:
        raise ValueError(
            f"signal of length {x.size} is shorter than the {filt_len}-tap filter"
        )
    ext = _seed_symmetric_extend(np.asarray(x, dtype=float), filt_len - 1)
    approx = np.correlate(ext, lo, mode="valid")[1::2]
    detail = np.correlate(ext, hi, mode="valid")[1::2]
    return approx, detail


def seed_dwt_multilevel(signal, levels: int, wavelet_id: str = "db4") -> List[np.ndarray]:
    """The analysis cascade of one signal, one np.correlate per band and level.

    This was grainsort.transforms.dwt_multilevel until its filterbank took a
    stack of signals; the transform tests pin the stacked form to it bit for
    bit.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    x = np.asarray(signal, dtype=float)
    details: List[np.ndarray] = []
    for _ in range(levels):
        x, detail = _seed_dwt_single(x, wavelet_id)
        details.append(detail)
    return [x] + details


def idwt_single(
    approx: np.ndarray, detail: np.ndarray, wavelet_id: str, out_len: int
) -> np.ndarray:
    """One synthesis level: upsample, filter, overlap-add, trim to out_len."""
    lo, hi = _filters(wavelet_id)
    if approx.size != detail.size:
        raise DimensionMismatchError("approx/detail lengths differ")
    pad = lo.size - 1
    up = np.zeros(2 * approx.size)
    up[1::2] = approx
    recon = np.convolve(up, lo, mode="full")
    up[1::2] = detail
    recon = recon + np.convolve(up, hi, mode="full")
    if pad + out_len > recon.size:
        raise DimensionMismatchError(
            f"cannot reconstruct {out_len} samples from {approx.size} coefficients"
        )
    return recon[pad : pad + out_len]


def idwt_multilevel(
    bands: List[np.ndarray], original_length: int, wavelet_id: str
) -> np.ndarray:
    """Invert ``transforms.dwt_multilevel``; needs the original signal length."""
    levels = len(bands) - 1
    lens = subband_lengths(original_length, levels, wavelet_id)
    for level, detail in enumerate(bands[1:], start=1):
        if detail.size != lens[level]:
            raise DimensionMismatchError(
                f"detail level {level} has {detail.size} coefficients, "
                f"expected {lens[level]} for input length {original_length}"
            )
    x = bands[0]
    for level in range(levels, 0, -1):
        x = idwt_single(x, bands[level], wavelet_id, lens[level - 1])
    return x


def frame_stft(signal, window_len, hop, fft_len):
    """Hamming-windowed one-sided DFT of each hopped frame, one rfft per frame."""
    x = np.asarray(signal, dtype=float)
    n_frames = (x.size - window_len) // hop + 1
    window = np.hamming(window_len)
    frames = np.empty((fft_len // 2 + 1, n_frames), dtype=complex)
    for t in range(n_frames):
        seg = x[t * hop : t * hop + window_len] * window
        frames[:, t] = np.fft.rfft(seg, n=fft_len)
    return frames


def brute_force_glcm(pixels, gray_levels, offset):
    """Integer symmetric pair counts via an explicit double loop."""
    pixels = np.asarray(pixels)
    dy, dx = offset
    rows, cols = pixels.shape
    counts = np.zeros((gray_levels, gray_levels), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            r2, c2 = r + dy, c + dx
            if 0 <= r2 < rows and 0 <= c2 < cols:
                a, b = pixels[r, c], pixels[r2, c2]
                counts[a, b] += 1
                counts[b, a] += 1
    return counts


_STEPS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (1, 1)}


def brute_force_glrlm(pixels, gray_levels, direction):
    """Maximal-run counts by walking every scan line pixel by pixel."""
    pixels = np.asarray(pixels)
    rows, cols = pixels.shape
    dr, dc = _STEPS[direction]
    counts = np.zeros((gray_levels, max(rows, cols)), dtype=np.int64)
    visited = np.zeros((rows, cols), dtype=bool)
    for r in range(rows):
        for c in range(cols):
            # start of a line: the predecessor cell lies outside the image
            pr, pc = r - dr, c - dc
            if 0 <= pr < rows and 0 <= pc < cols:
                continue
            rr, cc = r, c
            run_val, run_len = pixels[rr, cc], 0
            while 0 <= rr < rows and 0 <= cc < cols:
                if pixels[rr, cc] == run_val:
                    run_len += 1
                else:
                    counts[run_val, run_len - 1] += 1
                    run_val, run_len = pixels[rr, cc], 1
                visited[rr, cc] = True
                rr += dr
                cc += dc
            counts[run_val, run_len - 1] += 1
    assert visited.all(), "scan lines must cover every pixel exactly once"
    return counts


def project_box_hyperplane(v, y, box_c):
    """Euclidean projection of v onto {0 <= a <= C, y'a = 0}, y in {-1, +1}.

    The projection is a(lam) = clip(v - lam * y, 0, C) for the multiplier
    lam that solves g(lam) = y'a(lam) = 0.  g is continuous, piecewise
    linear and non-increasing, with kinks where a component reaches 0 or C
    (lam = y_i v_i and lam = y_i (v_i - C)).  g is evaluated at every sorted
    kink; the root lies on the first kink with g <= 0 or on the linear
    piece just before it.  Needs both labels present.
    """
    kinks = np.sort(np.concatenate([y * v, y * (v - box_c)]))
    g = (y * np.clip(v - kinks[:, None] * y, 0.0, box_c)).sum(axis=1)
    k = int(np.argmax(g <= 0.0))  # g[0] = C * #{y = +1} > 0, so k >= 1
    lam = kinks[k]
    if g[k] < 0.0:
        lam = kinks[k - 1] + g[k - 1] * (kinks[k] - kinks[k - 1]) / (g[k - 1] - g[k])
    return np.clip(v - lam * y, 0.0, box_c)


def qp_dual_oracle(K, y, box_c, iters=50000):
    """Projected-gradient (accelerated) maximiser of the SVM dual.

    maximise  sum(a) - 0.5 * (a*y)' K (a*y)
    s.t.      0 <= a <= C,  y'a = 0

    The feasible-set projection is exact: it finds the equality multiplier
    among the sorted breakpoints of a piecewise-linear function (see
    ``project_box_hyperplane``).  Returns (alpha, dual objective).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    Q = (y[:, None] * y[None, :]) * K
    lipschitz = max(float(np.linalg.eigvalsh(Q).max()), 1e-9)

    alpha = project_box_hyperplane(np.zeros(n), y, box_c)
    prev = alpha.copy()
    momentum = 1.0
    for it in range(iters):
        m_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        z = alpha + ((momentum - 1.0) / m_next) * (alpha - prev)
        grad = 1.0 - Q @ z
        prev = alpha
        alpha = project_box_hyperplane(z + grad / lipschitz, y, box_c)
        momentum = m_next
        if it % 50 == 49 and np.max(np.abs(alpha - prev)) < 1e-13:
            break
    objective = float(alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y))
    return alpha, objective


def qp_decision_values(alpha, K, y, box_c):
    """Training-point decision values implied by a dual solution."""
    f_vals = K @ (alpha * y)
    free = (alpha > 1e-6 * box_c) & (alpha < box_c * (1 - 1e-6))
    if free.any():
        bias = float(np.mean(y[free] - f_vals[free]))
    else:
        bias = float(np.mean(y - f_vals))
    return f_vals + bias


def seed_kernel_matrix(spec, A, B=None):
    """The original Gram expression: fresh n x m temporaries, whole-array steps."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if spec.kind == "linear":
        return A @ B.T
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-spec.gamma * sq)


def seed_smo(K, y, c, tol, max_passes):
    """The original whole-vector SMO loop, run on a given Gram matrix.

    Each update rebuilds both index masks from alpha, picks the maximally
    violating pair through ``flatnonzero`` (lowest index among ties), clips
    all of alpha to the box and reads the columns ``K[:, i]``.  Returns a
    dict of the final ``alpha``, ``bias``, ``n_updates``, ``final_violation``
    and ``converged`` (False once ``max_passes * n`` updates ran out), plus
    ``flat_steps``, the number of updates taken with ``eta <= 1e-12``,
    ``clipped_steps``, the number whose moved alpha rounded outside [0, C],
    and ``chosen_i``, the i picked at each pass, the stopping pass included.
    """
    def maximal_violator(K, errors, i, low_idx):
        return low_idx[np.argmax(errors[low_idx])]

    return _whole_vector_smo(K, y, c, tol, max_passes, maximal_violator)


def wss2_smo(K, y, c, tol, max_passes):
    """seed_smo with second-order working-set selection (Fan, Chen & Lin,
    JMLR 6, 2005): i is still the maximal violator of the up set, and the
    stopping test still reads the maximal violation at every update, but j
    is the low-set row t of largest ``(e_t - e_i) * r_it`` (lowest index
    among ties), where e = f - y and ``r_it = 1 / sqrt(max(((-2 K_it) +
    K_tt) + K_ii, 1e-12))``; the step along (i, j) uses j's own gap
    ``e_j - e_i``.  Returns the same dict as seed_smo.
    """
    def second_order(K, errors, i, low_idx):
        curvature = ((-2.0 * K[i, low_idx]) + K[low_idx, low_idx]) + K[i, i]
        r = 1.0 / np.sqrt(np.maximum(curvature, 1e-12))
        return low_idx[np.argmax((errors[low_idx] - errors[i]) * r)]

    return _whole_vector_smo(K, y, c, tol, max_passes, second_order)


def _whole_vector_smo(K, y, c, tol, max_passes, select_j):
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = 1e-12
    n = y.size
    alpha = np.zeros(n)
    f_cache = np.zeros(n)
    budget = max_passes * n
    n_updates = flat_steps = clipped_steps = 0
    chosen_i = []

    def _sets():
        up = ((y > 0) & (alpha < c - eps)) | ((y < 0) & (alpha > eps))
        low = ((y < 0) & (alpha < c - eps)) | ((y > 0) & (alpha > eps))
        return up, low

    def _finalize(violation, converged):
        errors = f_cache - y
        up, low = _sets()
        if up.any() and low.any():
            bias = -0.5 * (float(errors[up].min()) + float(errors[low].max()))
        else:
            bias = float(np.mean(y - f_cache))
        return {"alpha": alpha, "bias": bias, "n_updates": n_updates,
                "final_violation": violation, "converged": converged,
                "flat_steps": flat_steps, "clipped_steps": clipped_steps,
                "chosen_i": chosen_i}

    while True:
        up, low = _sets()
        if not up.any() or not low.any():
            return _finalize(0.0, True)
        errors = f_cache - y
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = up_idx[np.argmin(errors[up_idx])]
        chosen_i.append(int(i))
        violation = float(errors[low_idx].max() - errors[i])
        if violation <= tol:
            return _finalize(violation, True)
        if n_updates >= budget:
            return _finalize(violation, False)
        j = select_j(K, errors, i, low_idx)
        gap = float(errors[j] - errors[i])
        cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = min(cap_i, cap_j)
        if eta > eps:
            step = min(step, gap / eta)
        else:
            flat_steps += 1
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        clipped_steps += bool(np.any((alpha < 0.0) | (alpha > c)))
        np.clip(alpha, 0.0, c, out=alpha)
        f_cache += step * (K[:, i] - K[:, j])
        n_updates += 1


# --- the per-scan feature chains, as they were before extraction ran on stacked scans ---

def seed_fos(x) -> np.ndarray:
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
        sq = centred**2
        m2 = np.mean(sq)
        if m2 < _DEGENERATE_VAR:
            skew = kurt = 0.0
        else:
            skew = float(np.mean(sq * centred) / m2**1.5)
            kurt = float(np.mean(sq * sq) / m2**2 - 3.0)
        energy = float(np.sum(x**2))
    if hi - lo < max(_DEGENERATE_VAR, _DEGENERATE_SPREAD * max(abs(lo), abs(hi))):
        entropy = 0.0
    else:
        hist, _ = np.histogram(x, bins=ENTROPY_BINS, range=(lo, hi))
        p = hist[hist > 0] / x.size
        entropy = float(-np.sum(p * np.log(p)))
    return np.array([mean, float(m2), skew, kurt, entropy, energy])


def _seed_quantize(m, gray_levels: int = 16) -> np.ndarray:
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


def _seed_glcm_features(p: np.ndarray) -> np.ndarray:
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


def _seed_glrlm_features(run_lengths: np.ndarray, n_pixels: int) -> np.ndarray:
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


def _seed_stft_image(mag: np.ndarray, params) -> np.ndarray:
    frames = transforms.stft(
        mag,
        window_len=params.stft_window_len,
        hop=params.stft_hop,
        fft_len=params.stft_fft_len,
    )
    return _seed_quantize(np.abs(frames), params.gray_levels)


def seed_extract(ascan, method_tag: str, params) -> np.ndarray:
    """Run one method chain on an A-scan; returns its feature vector.

    Real-valued chains operate on the magnitude sequence of the complex
    sweep; the FFT chain transforms the complex samples directly.
    """
    if method_tag not in METHOD_TAGS:
        raise InvalidParameterError(
            f"unknown method {method_tag!r}; available: {METHOD_TAGS}"
        )
    mag = np.abs(ascan.samples)
    if method_tag == "FOS":
        values = seed_fos(mag)
    elif method_tag == "FFT+FOS":
        values = seed_fos(np.abs(transforms.fft(ascan.samples)))
    elif method_tag == "DCT+FOS":
        values = seed_fos(transforms.dct(mag))
    elif method_tag == "DWT+FOS":
        bands = seed_dwt_multilevel(mag, params.dwt_levels, params.dwt_wavelet)
        values = np.concatenate([seed_fos(band) for band in bands])
    elif method_tag == "STFT+GLCM":
        pixels = _seed_stft_image(mag, params)
        values = np.concatenate([
            _seed_glcm_features(glcm(pixels, params.gray_levels, ANGLE_OFFSETS[a]))
            for a in GLCM_ANGLES
        ])
    else:  # STFT+GLRLM
        pixels = _seed_stft_image(mag, params)
        values = np.concatenate([
            _seed_glrlm_features(glrlm(pixels, params.gray_levels, d), pixels.size)
            for d in GLCM_ANGLES
        ])
    return values


# The JSON schema config files were validated against before the parameter
# objects took over the bounds, kept verbatim as the reference the config
# checks are tested against: whatever it rejects must still be rejected.
_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_RANGE2 = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        "radar": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "f_start_hz": _POS_NUM,
                "f_stop_hz": _POS_NUM,
                # the longest sweep whose scan record fits a NumPy dtype
                "n_freq": {"type": "integer", "minimum": 2, "maximum": 134_217_726},
            },
        },
        "scene": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "diameter_m": _POS_NUM,
                "antenna_height_m": _POS_NUM,
                "rim_range_m": _POS_NUM,
                "surface_roughness_sigma_m": {"type": "number", "minimum": 0},
                "scatterers_per_scene": {"type": "integer", "minimum": 10},
                "apex_offset_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "peaked_shape_exponent": _POS_NUM,
                "inverted_shape_exponent": _POS_NUM,
                "ripple_amplitude_m": {"type": "number", "minimum": 0},
                "ripple_wavelength_m": _POS_NUM,
                "ripple_crater_factor": {"type": "number", "minimum": 0, "maximum": 1},
                "pour_roughness_factor": {"type": "number", "minimum": 0},
                "drain_roughness_factor": {"type": "number", "minimum": 0},
                "wall_clutter_scatterers": {"type": "integer", "minimum": 0},
                "wall_clutter_amplitude": {"type": "number", "minimum": 0},
                "contact_clutter_amplitude": {"type": "number", "minimum": 0},
                "dihedral_gain": {"type": "number", "minimum": 0, "maximum": 1},
                "gain_jitter_db": {"type": "number", "minimum": 0},
            },
        },
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "per_class_counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "snr_db": {
                    "type": "array",
                    "items": {"type": ["number", "null"]},
                    "minItems": 1,
                },
                "fill_fraction_range": _RANGE2,
                "cone_height_range": _RANGE2,
            },
        },
        "features": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gray_levels": {"type": "integer", "minimum": 2, "maximum": MAX_GRAY_LEVELS},
                "stft": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "window_len": {"type": "integer", "minimum": 2},
                        "hop": {"type": "integer", "minimum": 1},
                        "fft_len": {"type": "integer", "minimum": 2},
                    },
                },
                "dwt": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "wavelet": {"type": "string"},
                        "levels": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "methods": {
            "type": "array",
            "items": {"enum": list(METHOD_TAGS)},
            "minItems": 1,
        },
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["linear", "rbf"]},
                "C": _POS_NUM,
                "gamma": {
                    "anyOf": [{"enum": ["scale"]}, {"type": "number", "exclusiveMinimum": 0}]
                },
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "C": {"type": "array", "items": _POS_NUM, "minItems": 1},
                "gamma": {"type": "array", "items": _POS_NUM, "minItems": 1},
            },
        },
        "svm": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": _POS_NUM,
                "max_passes": {"type": "integer", "minimum": 1},
            },
        },
        "cv": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"k": {"type": "integer", "minimum": 2}},
        },
    },
}


def scan_array(samples, labels, seeds=0, snr_db=math.nan) -> np.recarray:
    """Not an oracle: a scan array of RadarParams.scan_dtype for tests to feed
    the package, one record per row of the (n_scans, n_freq) samples, with
    the given labels, seeds and SNRs."""
    samples = np.asarray(samples, dtype=np.complex128)
    scans = np.recarray(len(samples), dtype=RadarParams(n_freq=samples.shape[1]).scan_dtype)
    scans.label, scans.seed, scans.snr_db, scans.samples = labels, seeds, snr_db, samples
    return scans
