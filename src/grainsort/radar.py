"""Stepped-frequency CW radar model of grain surfaces inside a model silo.

The silo is viewed from a downward-looking antenna.  A grain surface is
represented as a cloud of point scatterers whose two-way phase at each swept
frequency produces the complex frequency-domain measurement (one A-scan).
Amplitude factors (spreading loss, antenna pattern, reflectivity) are folded
into the per-scatterer amplitude; only the two-way phase is modelled
explicitly.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import parallel
from .errors import AliasingError, InvalidParameterError
from .seeding import RECORD_STREAM, record_seed

SPEED_OF_LIGHT = 2.99792458e8
# the longest sweep whose scan record, 17 + 16 * n_freq bytes, fits a NumPy dtype
MAX_N_FREQ = 134_217_726
# scans simulated per job of generate_dataset
CHUNK_ROWS = 64
# the most scatterers of each kind, surface and clutter ring, a scene may
# hold: backscatter's two phasor tables take 16 bytes per scatterer per row,
# 35 rows at the default 301-point sweep, and a scene at both caps holds
# 3 * MAX_SCATTERERS scatterers, whose tables then take 1 GiB per scan
MAX_SCATTERERS = 2**30 // (3 * 35 * 16)

# spawn_key discriminators under one record seed
_SURFACE_KEY = 0
_NOISE_KEY = 1
_JITTER_KEY = 2


class SurfaceClass(enum.IntEnum):
    """The three grain surface conditions left behind by filling/unloading."""

    LEVELLED = 0
    PEAKED_CONE = 1
    INVERTED_CONE = 2


CLASS_NAMES = tuple(c.name.lower() for c in SurfaceClass)


@dataclass(frozen=True)
class RadarParams:
    """Stepped-frequency sweep definition.

    f_start/f_stop in Hz, n_freq sweep points inclusive of both ends.
    """

    f_start: float = 18e9
    f_stop: float = 40e9
    n_freq: int = 301

    def __post_init__(self):
        if not (self.f_stop > self.f_start > 0):
            raise InvalidParameterError(
                f"need f_stop > f_start > 0, got {self.f_start}..{self.f_stop}"
            )
        if not 2 <= self.n_freq <= MAX_N_FREQ:
            raise InvalidParameterError(f"need 2 <= n_freq <= {MAX_N_FREQ}, got {self.n_freq}")

    @property
    def bandwidth(self) -> float:
        return self.f_stop - self.f_start

    @property
    def scan_dtype(self) -> np.dtype:
        """One scan of this sweep, packed: the GSRD record and the in-memory scan
        array alike.  snr_db is NaN for a noiseless scan."""
        return np.dtype([("label", "u1"), ("seed", "<u8"), ("snr_db", "<f8"),
                         ("samples", "<c16", (self.n_freq,))])


def _pow10(x: float) -> float:
    """10 ** x, or inf where that overflows a float."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


def range_resolution(params: RadarParams) -> float:
    """Range bin size dz = c / (2 B)."""
    return SPEED_OF_LIGHT / (2.0 * params.bandwidth)


def max_unambiguous_range(params: RadarParams) -> float:
    """Unambiguous range window N * dz covered by the sweep."""
    return params.n_freq * range_resolution(params)


@dataclass(frozen=True)
class ScattererCloud:
    """Point-scatterer representation of one scene realisation."""

    amplitudes: np.ndarray  # (n,), dimensionless, >= 0
    ranges: np.ndarray  # (n,), metres, > 0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float)
        rng_ = np.asarray(self.ranges, dtype=float)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "ranges", rng_)
        if amp.size == 0 or rng_.size != amp.size:
            raise InvalidParameterError("cloud needs matching, non-empty p/R arrays")
        if np.any(amp < 0) or not np.all(np.isfinite(amp)):
            raise InvalidParameterError("amplitudes must be finite and >= 0")
        if np.any(rng_ <= 0) or not np.all(np.isfinite(rng_)):
            raise InvalidParameterError("ranges must be finite and > 0")


@dataclass(frozen=True)
class SiloScene:
    """The fixed silo and the texture of its grain surfaces.

    The grain column occupies ranges rim_range (silo top) .. antenna_height
    (silo floor).  Each scan's fill fraction and cone height are drawn per
    scan and passed to synth_surface.  Shape exponents control the radial
    profile curvature (piles are rounded by avalanching, unloading craters
    are funnel-like), which is what makes the two cone classes more than
    mirror images of each other.
    """

    diameter: float = 0.36
    antenna_height: float = 1.2
    surface_roughness_sigma: float = 0.0025
    scatterers_per_scene: int = 400
    # silo top (wall rim) range from the antenna; fixed clutter reference
    rim_range: float = 0.24
    # lateral apex wander as a fraction of the silo radius
    apex_offset_fraction: float = 0.15
    # piles round off at the apex (exponent > 1); drainage craters funnel
    # steeply at the axis (exponent < 1)
    peaked_shape_exponent: float = 1.6
    inverted_shape_exponent: float = 0.5
    # avalanche ripples: poured piles carry radial corrugations left by
    # surface avalanches; drained craters are smoother (crater factor < 1)
    ripple_amplitude: float = 0.004
    ripple_wavelength: float = 0.065
    ripple_crater_factor: float = 0.25
    # multipliers on the roughness sigma per formation process, for scenes
    # where pouring and drainage should leave different micro-textures
    pour_roughness_factor: float = 1.0
    drain_roughness_factor: float = 1.0
    # 0 leaves out the rim and contact clutter rings
    wall_clutter_scatterers: int = 24
    wall_clutter_amplitude: float = 0.5
    contact_clutter_amplitude: float = 1.0
    # dihedral gain: a surface sloping down towards the wall forms an acute
    # corner with it (retro-reflecting groove), a surface rising to the wall
    # an obtuse one; scales the contact-ring return by the wall slope
    dihedral_gain: float = 0.95
    gain_jitter_db: float = 1.5

    def __post_init__(self):
        if self.diameter <= 0:
            raise InvalidParameterError("diameter must be positive")
        for name, low in (("scatterers_per_scene", 10), ("wall_clutter_scatterers", 0)):
            if not low <= getattr(self, name) <= MAX_SCATTERERS:
                raise InvalidParameterError(f"{name} must lie in [{low}, {MAX_SCATTERERS}]",
                                            (name,))
        if not (0.0 < self.rim_range < self.antenna_height):
            raise InvalidParameterError("need 0 < rim_range < antenna_height")
        if self.surface_roughness_sigma < 0:
            raise InvalidParameterError("roughness sigma must be >= 0")
        if self.peaked_shape_exponent <= 0 or self.inverted_shape_exponent <= 0:
            raise InvalidParameterError("shape exponents must be positive")
        if self.ripple_amplitude < 0 or self.ripple_wavelength <= 0:
            raise InvalidParameterError("ripple amplitude >= 0 and wavelength > 0")
        for name in ("apex_offset_fraction", "ripple_crater_factor", "dihedral_gain"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidParameterError(f"{name} must lie in [0, 1]")
        for name in ("pour_roughness_factor", "drain_roughness_factor",
                     "wall_clutter_amplitude", "contact_clutter_amplitude", "gain_jitter_db"):
            if not getattr(self, name) >= 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        # synth_surface draws a gain below 10 ** (gain_jitter_db / 20)
        if not math.isfinite(_pow10(self.gain_jitter_db / 20.0)):
            raise InvalidParameterError(
                f"gain_jitter_db={self.gain_jitter_db} gives a gain that is not a finite float"
            )
        # a sample's modulus is at most the sum of the amplitudes, each the gain
        # times a Rayleigh draw of scale s: 1 on the surface, a ring's clutter
        # amplitude (with its corner gain) on the rings.  numpy draws it as
        # s * sqrt(2 E), E a ziggurat exponential below 7.697 (its tail start)
        # + 53 ln 2, so below 9.43 s.  The error names the largest s's field.
        scales = {"gain_jitter_db": 1.0}
        if self.wall_clutter_scatterers > 0:
            scales["wall_clutter_amplitude"] = self.wall_clutter_amplitude
            scales["contact_clutter_amplitude"] = (self.contact_clutter_amplitude
                                                   * (1.0 + self.dihedral_gain))
        field = max(scales, key=scales.get)
        n = self.scatterers_per_scene + 2 * self.wall_clutter_scatterers
        if not n <= sys.float_info.max / (9.43 * scales[field] * _pow10(self.gain_jitter_db / 20.0)):
            raise InvalidParameterError(
                f"{getattr(self, field)} times the scene's scatterer count and gain lets a "
                "scan's sample modulus exceed the float range",
                (field,))


def mean_surface_range(scene: SiloScene, fill_fraction: float) -> float:
    """Range from the antenna to the mean grain surface at this fill fraction."""
    span = scene.antenna_height - scene.rim_range
    return scene.antenna_height - fill_fraction * span


def _shape(scene: SiloScene, surface_class: SurfaceClass, fill_fraction: float,
           cone_height: float) -> tuple:
    """The one place a class decides its surface: (signed cone height, profile
    base, radial exponent, roughness factor, ripple factor).

    The class signs the cone height: up towards the antenna for a pile, down
    for a crater, 0 for a levelled surface.  The profile base + height * t**q
    keeps the mean depth at the fill's mean surface range, as E[t**q] =
    2 / (q + 2) over an area-uniform disk.  The factors scale the scene's
    roughness sigma and ripple amplitude.
    """
    sign, q, roughness, ripple = {
        SurfaceClass.PEAKED_CONE: (1.0, scene.peaked_shape_exponent,
                                   scene.pour_roughness_factor, 1.0),
        SurfaceClass.INVERTED_CONE: (-1.0, scene.inverted_shape_exponent,
                                     scene.drain_roughness_factor, scene.ripple_crater_factor),
    }.get(surface_class, (0.0, 1.0, 1.0, 0.0))
    height = sign * abs(cone_height)
    base = mean_surface_range(scene, fill_fraction) - 2.0 * height / (q + 2.0)
    return height, base, q, roughness, ripple


def check_fill_and_cone(scene: SiloScene, fill_fraction: float, cone_height: float,
                        max_range: float = math.inf) -> None:
    """The draw rule: the fill lies in (0, 1), and before roughness every
    class's profile lies between range 0 and max_range (the sweep's
    unambiguous range, unbounded by default): its nearest point (a pile's
    apex or a crater's rim, less a ripple crest) beyond 0, its deepest (a
    pile's foot at the wall or a crater's centre, plus a ripple crest) short
    of max_range.  The cone height's sign is ignored."""
    if not 0.0 < fill_fraction < 1.0:
        raise InvalidParameterError(f"fill fraction {fill_fraction} is not in (0, 1)")
    for surface_class in SurfaceClass:
        height, base, _, _, ripple = _shape(scene, surface_class, fill_fraction, cone_height)
        # a flat profile (height 0) carries no ripple
        crest = scene.ripple_amplitude * ripple if height != 0.0 else 0.0
        if not min(base, base + height) - crest > 0:
            raise InvalidParameterError(
                f"cone height {cone_height} brings the surface to a range <= 0")
        deepest = max(base, base + height) + crest
        if not deepest < max_range:
            raise InvalidParameterError(
                f"at fill fraction {fill_fraction} and cone height {cone_height} the surface "
                f"reaches {deepest:.3f} m, at or beyond the unambiguous range {max_range:.3f} m")


def synth_surface(scene: SiloScene, surface_class: SurfaceClass, fill_fraction: float,
                  cone_height: float, seed: int) -> ScattererCloud:
    """Draw one scatterer-cloud realisation of a grain surface.

    Deterministic for fixed arguments.  fill_fraction sets the mean surface
    depth between the rim and the floor.  cone_height is the apex-to-wall
    relief; the class piles it up towards the antenna (peaked), digs it as a
    crater (inverted) or leaves it unused (levelled).  Surface points are
    area-uniform over the silo disk; each gets the class's depth profile plus
    Gaussian roughness and a Rayleigh amplitude.  With wall_clutter_scatterers
    > 0, two clutter rings are added at the silo radius: one at the fixed
    wall rim and one at the wall-surface contact line.  A per-scene gain
    factor jitters the absolute amplitude scale, as antenna coupling would.
    """
    surface_class = SurfaceClass(surface_class)
    check_fill_and_cone(scene, fill_fraction, cone_height)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(_SURFACE_KEY,))
    )
    silo_radius = scene.diameter / 2.0
    n = scene.scatterers_per_scene
    height, base, q, roughness, ripple = _shape(scene, surface_class, fill_fraction, cone_height)

    # surface points, area-uniform over the disk
    rho = silo_radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    px = rho * np.cos(theta)
    py = rho * np.sin(theta)

    # apex may wander off-axis (filling is never perfectly centred)
    offset_r = scene.apex_offset_fraction * silo_radius * np.sqrt(rng.random())
    offset_t = 2.0 * np.pi * rng.random()
    ax, ay = offset_r * np.cos(offset_t), offset_r * np.sin(offset_t)

    ripple_phase = 2.0 * np.pi * rng.random()
    sigma = scene.surface_roughness_sigma * roughness

    def depths(radial: np.ndarray) -> np.ndarray:
        """Depth (range from antenna) at distances from the apex in silo radii.

        The profile conserves the mean depth, so fill_fraction alone fixes
        the grain volume.  Sloped surfaces carry a radial ripple.
        """
        if height == 0.0:
            return np.full_like(radial, base)
        t = np.clip(radial, 0.0, 1.0)
        profile = base + height * t**q
        wave = 2.0 * np.pi * (t * silo_radius) / scene.ripple_wavelength + ripple_phase
        return profile + scene.ripple_amplitude * ripple * np.cos(wave)

    ranges = [depths(np.hypot(px - ax, py - ay) / silo_radius) + rng.normal(0.0, sigma, n)]
    amplitudes = [rng.rayleigh(1.0, n)]

    if scene.wall_clutter_scatterers > 0:
        n_c = scene.wall_clutter_scatterers
        ring_theta = 2.0 * np.pi * np.arange(n_c) / n_c
        # fixed rim ring: silo top, independent of fill state
        ranges.append(np.full(n_c, scene.rim_range) + rng.normal(0.0, 0.001, n_c))
        amplitudes.append(rng.rayleigh(scene.wall_clutter_amplitude, n_c))
        # contact ring: where the surface meets the wall
        wall_radial = (
            np.hypot(silo_radius * np.cos(ring_theta) - ax,
                     silo_radius * np.sin(ring_theta) - ay)
            / silo_radius
        )
        ranges.append(depths(wall_radial) + rng.normal(0.0, sigma, n_c))
        # the surface grade d(depth)/d(radius) at the wall: positive deepens
        # towards it (acute corner), negative rises to meet it (obtuse)
        corner_factor = 1.0 + scene.dihedral_gain * np.tanh(height * q / silo_radius / 0.5)
        amplitudes.append(
            rng.rayleigh(scene.contact_clutter_amplitude * corner_factor, n_c)
        )

    gain = 10.0 ** (rng.uniform(-1.0, 1.0) * scene.gain_jitter_db / 20.0)
    all_ranges = np.concatenate(ranges)
    all_amps = gain * np.concatenate(amplitudes)
    return ScattererCloud(all_amps, all_ranges)


def backscatter(
    cloud: ScattererCloud,
    params: RadarParams,
    snr_db: Optional[float] = None,
    seed: int = 0,
) -> np.ndarray:
    """The complex sweep of one scan: a coherent frequency-domain sum over the
    cloud, optionally noisy.

    At each swept frequency f the two-way phase of a scatterer at range R is
    2 * (2 pi f / c) * R, so the sample is sum_i p_i * exp(-2j * k_n * R_i).
    Additive complex white Gaussian noise is scaled so that the mean signal
    power over the sweep exceeds the noise power by snr_db decibels; None
    means noiseless.

    The sweep is uniform, f_n = f_start + n * df, so with L = ceil(sqrt(N))
    and n = q * L + r each phasor splits into a coarse and a fine factor,
    exp(-4j pi f_n R / c) = C[q] * F[r], and the sweep is one complex
    product of two tables of about sqrt(N) rows each.  Each row of a table
    is the row above it times one fixed factor per scatterer, so the tables
    take three exponentials per scatterer: the fine step exp(-4j pi df R / c),
    the coarse step exp(-4j pi df L R / c) and the first coarse row
    p * exp(-4j pi f_start R / c).  The other rows are running products,
    which add one rounding per row, about sqrt(N) in all.
    """
    r_max = max_unambiguous_range(params)
    if np.any(cloud.ranges >= r_max):
        worst = float(np.max(cloud.ranges))
        raise AliasingError(
            f"scatterer at {worst:.3f} m is at or beyond the unambiguous "
            f"range {r_max:.3f} m; refusing to alias"
        )
    n = params.n_freq
    width = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    rows = -(-n // width)
    df = params.bandwidth / (n - 1)
    phase_per_hz = (-4.0j * np.pi / SPEED_OF_LIGHT) * cloud.ranges
    coarse = np.empty((rows, phase_per_hz.size), dtype=np.complex128)
    fine = np.empty((width, phase_per_hz.size), dtype=np.complex128)
    coarse[0] = np.exp(params.f_start * phase_per_hz) * cloud.amplitudes
    fine[0] = 1.0
    steps = (
        (coarse, np.exp(df * width * phase_per_hz)),
        (fine, np.exp(df * phase_per_hz)),
    )
    for table, step in steps:
        # row by row: np.cumprod(axis=0) on these tables measured 1.7x slower
        for row in range(1, len(table)):
            np.multiply(table[row - 1], step, out=table[row])
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the checks below
        samples = (coarse @ fine.T).ravel()[:n]

    if snr_db is not None:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed), spawn_key=(_NOISE_KEY,))
        )
        with np.errstate(over="ignore"):  # refused right below
            signal_power = float(np.mean(np.abs(samples) ** 2))
        if not math.isfinite(signal_power):
            raise InvalidParameterError(
                "the scan's signal power is not a finite float: the scene's scatterer "
                "amplitudes are too large"
            )
        noise_power = signal_power * _pow10(-float(snr_db) / 10.0)
        if not math.isfinite(noise_power):
            raise InvalidParameterError(
                f"snr_db={snr_db} gives a noise power that is not a finite float"
            )
        sigma = np.sqrt(noise_power / 2.0)
        noise = rng.normal(0.0, sigma, samples.shape) + 1j * rng.normal(
            0.0, sigma, samples.shape
        )
        samples = samples + noise
    if not np.all(np.isfinite(samples)):
        raise InvalidParameterError("samples must be finite")
    return samples


def snr_tag(snr_db: Optional[float]) -> str:
    """The name of an SNR's dataset file, summary block and report pair."""
    return "noiseless" if snr_db is None else f"snr{snr_db:g}"


@dataclass(frozen=True)
class DatasetSpec:
    """A labelled simulation: sweep, silo, scans per class, the ranges each
    scan's fill fraction and cone height are drawn from, the SNRs (None:
    noiseless; each with a snr_tag of its own), the master seed and the k
    folds.  A bad value raises InvalidParameterError whose field names it; a
    range that lets a surface reach past the sweep's window names params."""

    params: RadarParams
    scene: SiloScene
    per_class_counts: Sequence[int]
    fill_fraction_range: Sequence[float]
    cone_height_range: Sequence[float]
    snr_db: Sequence[Optional[float]]
    seed: int
    k: int

    def __post_init__(self):
        for name, n in (("per_class_counts", len(SurfaceClass)), ("fill_fraction_range", 2),
                        ("cone_height_range", 2)):
            if len(getattr(self, name)) != n:
                raise InvalidParameterError(
                    f"{getattr(self, name)!r} is not a list of {n} items", (name,))
        lows = [(("seed",), self.seed, 0), (("k",), self.k, 2)]
        lows += [(("per_class_counts", i), n, 1) for i, n in enumerate(self.per_class_counts)]
        for field, value, low in lows:
            if value < low:
                raise InvalidParameterError(f"{value} is less than the minimum of {low}", field)
        for i, snr in enumerate(self.snr_db):
            # the noise scale 10 ** (-snr_db / 10) must be a finite float
            if snr is not None and not (math.isfinite(snr) and math.isfinite(_pow10(-snr / 10.0))):
                raise InvalidParameterError(
                    f"{snr!r} is not null or a finite number above -3082.5 dB", ("snr_db", i))
            if snr_tag(snr) in map(snr_tag, self.snr_db[:i]):
                raise InvalidParameterError(
                    f"{snr!r} has the tag {snr_tag(snr)!r} of an earlier SNR", ("snr_db", i))
        fills, heights = self.fill_fraction_range, self.cone_height_range
        for name, (low, high) in (("fill_fraction_range", fills), ("cone_height_range", heights)):
            if low > high:
                raise InvalidParameterError(f"low end {low} is above high end {high}", (name,))
        # a draw lies between its ranges' ends, and the surface's nearest range
        # falls, and its deepest rises, as the fill falls or |cone height| grows,
        # so every draw keeps the draw rule if each fill end does with no cone,
        # then each pair of ends, then each pair within the sweep's window
        r_max = max_unambiguous_range(self.params)
        ends = [("fill_fraction_range", f, 0.0, math.inf) for f in fills]
        ends += [("cone_height_range", f, h, math.inf) for f in fills for h in heights]
        ends += [("params", f, h, r_max) for f in fills for h in heights]
        for name, fill, height, max_range in ends:
            try:
                check_fill_and_cone(self.scene, fill, height, max_range)
            except InvalidParameterError as exc:
                raise InvalidParameterError(str(exc), (name,)) from None


def generate_dataset(spec: DatasetSpec, snr_db: Optional[float]) -> np.recarray:
    """Simulate a labelled scan array of spec.params.scan_dtype at snr_db
    (None: noiseless), fully deterministic from spec.seed.

    Per sample, fill_fraction and cone_height are re-drawn uniformly from
    the spec's ranges; the class alone gives the cone its direction.
    Records are emitted class-major: all levelled scans first, then peaked,
    then inverted.  Each CHUNK_ROWS records are one job of parallel.pmap.
    """
    rows = [(cls, i) for cls in SurfaceClass for i in range(spec.per_class_counts[cls])]
    parts = parallel.pmap(
        functools.partial(_simulate_rows, spec, snr_db),
        [rows[i : i + CHUNK_ROWS] for i in range(0, len(rows), CHUNK_ROWS)],
    )
    return np.concatenate(parts).view(np.recarray)


def _simulate_rows(spec, snr_db, rows) -> np.ndarray:
    """The scans of generate_dataset's (class, index) rows, in order."""
    scans = np.empty(len(rows), dtype=spec.params.scan_dtype)
    snr = math.nan if snr_db is None else snr_db
    for row, (cls, i) in enumerate(rows):
        rseed = record_seed(spec.seed, RECORD_STREAM, int(cls), i)
        jitter = np.random.default_rng(
            np.random.SeedSequence(entropy=rseed, spawn_key=(_JITTER_KEY,))
        )
        cloud = synth_surface(spec.scene, cls, jitter.uniform(*spec.fill_fraction_range),
                              jitter.uniform(*spec.cone_height_range), rseed)
        scans[row] = (cls, rseed, snr, backscatter(cloud, spec.params, snr_db, rseed))
    return scans
