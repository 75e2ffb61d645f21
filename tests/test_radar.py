import cmath
import itertools

import numpy as np
import pytest
from scipy.stats import skew

from grainsort.errors import AliasingError, DimensionMismatchError, InvalidParameterError
from grainsort.radar import (
    MAX_N_FREQ,
    DatasetSpec,
    RadarParams,
    ScattererCloud,
    SiloScene,
    SurfaceClass,
    backscatter,
    check_fill_and_cone,
    generate_dataset,
    max_unambiguous_range,
    range_resolution,
    synth_surface,
)
from oracles import (
    direct_inverse_dft, longdouble_backscatter, range_profile, seed_backscatter,
    seed_synth_surface,
)

C_LIGHT = 2.99792458e8


class TestRangeConstants:
    def test_sweep_band_resolution(self, default_params):
        dz = range_resolution(default_params)
        assert dz == C_LIGHT / (2 * 22e9)
        assert abs(dz - 6.8e-3) / 6.8e-3 < 0.005

    def test_unit_forcing_bandwidth(self):
        params = RadarParams(f_start=1e9, f_stop=1e9 + C_LIGHT / 2, n_freq=16)
        assert range_resolution(params) == pytest.approx(1.0, rel=1e-12)

    def test_one_gigahertz_bandwidth(self):
        params = RadarParams(f_start=10e9, f_stop=11e9, n_freq=64)
        # hand evaluation: 2.99792458e8 / 2e9
        assert range_resolution(params) == pytest.approx(0.149896229, rel=1e-9)

    def test_unambiguous_range_sweep_band(self, default_params):
        r_max = max_unambiguous_range(default_params)
        assert abs(r_max - 2.05) / 2.05 < 0.01

    def test_unambiguous_range_scales_with_points(self):
        base = RadarParams(f_start=18e9, f_stop=40e9, n_freq=2)
        assert max_unambiguous_range(base) == 2 * range_resolution(base)

    def test_exact_bin_size_case(self):
        # bandwidth chosen so the bin size is 6.8 mm exactly
        params = RadarParams(f_start=18e9, f_stop=18e9 + C_LIGHT / (2 * 6.8e-3), n_freq=301)
        assert max_unambiguous_range(params) == pytest.approx(2.0468, rel=1e-9)

    def test_product_identity_is_exact(self):
        for n in (2, 31, 301, 1024):
            params = RadarParams(n_freq=n)
            assert range_resolution(params) * n == max_unambiguous_range(params)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            RadarParams(f_start=40e9, f_stop=18e9)
        with pytest.raises(InvalidParameterError):
            RadarParams(f_start=-1.0, f_stop=1e9)
        with pytest.raises(InvalidParameterError):
            RadarParams(n_freq=1)

    def test_n_freq_bound_is_the_longest_record_dtype(self):
        # a scan record is 17 + 16 * n_freq bytes, and a dtype's size must fit a C int
        assert RadarParams(n_freq=MAX_N_FREQ).scan_dtype.itemsize == 17 + 16 * MAX_N_FREQ
        assert 17 + 16 * (MAX_N_FREQ + 1) > 2**31 - 1
        with pytest.raises(InvalidParameterError, match=f"n_freq <= {MAX_N_FREQ}"):
            RadarParams(n_freq=MAX_N_FREQ + 1)


def _single_scatterer_scan(r, params, amplitude=1.0):
    cloud = ScattererCloud([amplitude], [r])
    return backscatter(cloud, params)


class TestBackscatter:
    def test_zero_phase_limit(self, default_params):
        scan = _single_scatterer_scan(1e-12, default_params)
        assert np.max(np.abs(scan - 1.0)) < 1e-6

    def test_coherent_pair_magnitude(self, default_params):
        cloud = ScattererCloud([1.0, 1.0], [0.7, 0.7])
        scan = backscatter(cloud, default_params)
        assert np.max(np.abs(np.abs(scan) - 2.0)) < 1e-12

    def test_scalar_oracle_first_frequency(self, default_params):
        scan = _single_scatterer_scan(0.5, default_params)
        expected = cmath.exp(-1j * 2 * (2 * cmath.pi * 18e9 / C_LIGHT) * 0.5)
        assert abs(scan[0] - expected) < 1e-12

    def test_linearity_over_cloud_union(self, default_params):
        rng = np.random.default_rng(11)
        amps_a, ranges_a = rng.rayleigh(1, 20), rng.uniform(0.3, 1.5, 20)
        amps_b, ranges_b = rng.rayleigh(1, 15), rng.uniform(0.3, 1.5, 15)
        scan_a = backscatter(
            ScattererCloud(amps_a, ranges_a), default_params
        )
        scan_b = backscatter(
            ScattererCloud(amps_b, ranges_b), default_params
        )
        union = backscatter(
            ScattererCloud(
                np.concatenate([amps_a, amps_b]),
                np.concatenate([ranges_a, ranges_b]),
            ),
            default_params,
        )
        err = np.abs(union - scan_a - scan_b)
        assert np.max(err) / np.max(np.abs(union)) < 1e-12

    def test_amplitude_scaling(self, default_params):
        rng = np.random.default_rng(12)
        amps, ranges = rng.rayleigh(1, 10), rng.uniform(0.3, 1.5, 10)
        base = backscatter(
            ScattererCloud(amps, ranges), default_params
        )
        scaled = backscatter(
            ScattererCloud(3.5 * amps, ranges), default_params
        )
        assert np.allclose(scaled, 3.5 * base, rtol=1e-12)

    @pytest.mark.parametrize("n_freq", [2, 3, 16, 17, 301, 1024, 4096])
    @pytest.mark.parametrize("band", [(18e9, 40e9), (1e9, 2e9), (8e9, 12e9)])
    def test_matches_extended_precision_sum(self, band, n_freq):
        # n_freq covers perfect squares, their neighbours, a ragged last row
        # and 64-row tables, the longest running products tested
        params = RadarParams(f_start=band[0], f_stop=band[1], n_freq=n_freq)
        rng = np.random.default_rng(n_freq)
        amps = rng.rayleigh(1.0, 448)
        ranges = rng.uniform(0.01, 0.99, 448) * max_unambiguous_range(params)
        scan = backscatter(ScattererCloud(amps, ranges), params)
        ref = longdouble_backscatter(amps, ranges, *band, n_freq, C_LIGHT)
        assert scan.shape == (n_freq,)
        assert np.max(np.abs(scan - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("surface_class", list(SurfaceClass))
    def test_close_to_seed_kernel(self, default_params, surface_class):
        # the running-product tables move default-scene samples by at most
        # 2e-13 of a scan's peak (600 clouds measured); 1e-12 leaves headroom
        for seed in range(8):
            cloud = synth_surface(SiloScene(), surface_class, 0.5, 0.16, seed)
            ref = seed_backscatter(cloud, default_params)
            scan = backscatter(cloud, default_params)
            assert np.max(np.abs(scan - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_overflowing_sum_refused(self, default_params):
        # finite amplitudes whose coherent sum is not a finite float
        cloud = ScattererCloud([1e308, 1e308], [0.7, 0.7])
        with pytest.raises(InvalidParameterError, match="samples must be finite"):
            backscatter(cloud, default_params)

    def test_aliasing_refused(self, default_params):
        r_max = max_unambiguous_range(default_params)
        cloud = ScattererCloud([1.0], [r_max + 0.01])
        with pytest.raises(AliasingError):
            backscatter(cloud, default_params)

    def test_noise_reproducible_per_seed(self, default_params):
        cloud = ScattererCloud([1.0, 2.0], [0.5, 0.8])
        a = backscatter(cloud, default_params, snr_db=15.0, seed=5)
        b = backscatter(cloud, default_params, snr_db=15.0, seed=5)
        c = backscatter(cloud, default_params, snr_db=15.0, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_measured_snr_calibration(self, default_params):
        # >= 1e5 noise samples pooled over trials
        cloud = synth_surface(SiloScene(), SurfaceClass.LEVELLED, 0.5, 0.16, 7)
        clean = backscatter(cloud, default_params)
        signal_power = np.mean(np.abs(clean) ** 2)
        noise_powers = []
        for seed in range(400):
            noisy = backscatter(cloud, default_params, snr_db=20.0, seed=seed)
            noise_powers.append(np.mean(np.abs(noisy - clean) ** 2))
        assert 400 * clean.size >= 1e5
        measured = 10 * np.log10(signal_power / np.mean(noise_powers))
        assert abs(measured - 20.0) < 0.5


class TestRangeProfile:
    def test_single_scatterer_peak_matches_oracle(self, default_params):
        scan = _single_scatterer_scan(0.5, default_params)
        bins = range_profile(scan, default_params)
        oracle = direct_inverse_dft(scan)
        assert np.max(np.abs(bins - oracle)) < 1e-9
        # oracle-evaluated peak position; one bin above round(R / dz) because
        # the DFT grid spacing is dz * (N - 1) / N
        assert int(np.argmax(np.abs(oracle))) == 74
        dz = range_resolution(default_params)
        assert abs(int(np.argmax(np.abs(bins))) - round(0.5 / dz)) <= 1
        # one bin per sweep point: the bins span the unambiguous range window
        assert bins.size * dz == max_unambiguous_range(default_params)

    def test_constant_sweep_is_zero_range_delta(self, default_params):
        scan = _single_scatterer_scan(1e-12, default_params)
        bins = range_profile(scan, default_params)
        mags = np.abs(bins)
        assert np.argmax(mags) == 0
        assert mags[0] > 100 * np.max(mags[1:])

    def test_forward_inverse_roundtrip(self, default_params):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        bins = range_profile(samples, default_params)
        back = np.fft.fft(bins)
        assert np.max(np.abs(back - samples)) / np.max(np.abs(samples)) < 1e-10

    def test_length_mismatch(self, default_params):
        with pytest.raises(DimensionMismatchError):
            range_profile(np.ones(17, dtype=complex), default_params)

    def test_peak_localisation_property(self, default_params):
        # circular bin distance: the DFT range axis wraps at the unambiguous range
        dz = range_resolution(default_params)
        r_max = max_unambiguous_range(default_params)
        n = default_params.n_freq
        rng = np.random.default_rng(21)
        for r in rng.uniform(dz / 2 * 1.01, r_max - dz, size=40):
            scan = _single_scatterer_scan(r, default_params)
            peak = int(np.argmax(np.abs(range_profile(scan, default_params))))
            expected = round(r / dz)
            dist = min(abs(peak - expected), n - abs(peak - expected))
            assert dist <= 1, (r, peak, expected)


class TestSurfaceSynthesis:
    def test_degenerate_flat_surface(self):
        scene = SiloScene(surface_roughness_sigma=0.0, wall_clutter_scatterers=0)
        cloud = synth_surface(scene, SurfaceClass.LEVELLED, 0.5, 0.0, 3)
        # halfway between the rim at 0.24 m and the floor at 1.2 m
        assert np.allclose(cloud.ranges, 0.72, atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        scene = SiloScene()
        a = synth_surface(scene, SurfaceClass.PEAKED_CONE, 0.5, 0.16, 42)
        b = synth_surface(scene, SurfaceClass.PEAKED_CONE, 0.5, 0.16, 42)
        c = synth_surface(scene, SurfaceClass.PEAKED_CONE, 0.5, 0.16, 43)
        assert np.array_equal(a.ranges, b.ranges)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.array_equal(a.ranges, c.ranges)

    def test_cone_classes_skew_in_opposite_directions(self):
        scene = SiloScene(wall_clutter_scatterers=0)
        peaked = synth_surface(scene, SurfaceClass.PEAKED_CONE, 0.5, 0.12, 42)
        inverted = synth_surface(scene, SurfaceClass.INVERTED_CONE, 0.5, 0.12, 42)
        # piled surfaces put their mass deep with a tail towards the apex;
        # craters mirror that about the mean depth
        assert skew(peaked.ranges) < 0 < skew(inverted.ranges)

    def test_equals_seed_synthesis(self):
        # every shape branch of the class-branching original: cone height
        # positive, negative and zero, ripple off, roughness and crater
        # factors, wall clutter off and dihedral gain off
        variants = itertools.product(
            [0.16, -0.16, 0.0],
            [{}, {"ripple_amplitude": 0.0}, {"ripple_crater_factor": 0.0}],
            [{}, {"pour_roughness_factor": 0.4, "drain_roughness_factor": 2.5}],
            [{}, {"wall_clutter_scatterers": 0}, {"dihedral_gain": 0.0}],
        )
        for height, *fields in variants:
            scene = SiloScene(scatterers_per_scene=60,
                              **{k: v for f in fields for k, v in f.items()})
            for surface_class, seed in itertools.product(SurfaceClass, range(3)):
                cloud = synth_surface(scene, surface_class, 0.5, height, seed)
                ref = seed_synth_surface(scene, surface_class, 0.5, height, seed)
                assert np.array_equal(cloud.ranges, ref.ranges), (height, scene, surface_class,
                                                                  seed)
                assert np.array_equal(cloud.amplitudes, ref.amplitudes)

    def test_scene_validation(self):
        with pytest.raises(InvalidParameterError):
            check_fill_and_cone(SiloScene(), 0.0, 0.16)
        with pytest.raises(InvalidParameterError):
            SiloScene(scatterers_per_scene=5)
        with pytest.raises(InvalidParameterError):
            SiloScene(diameter=-1.0)

    @pytest.mark.parametrize("fill, height", [(0.0, 0.0), (1.0, 0.0), (0.5, 3.0), (0.5, -3.0),
                                              (0.999, 0.5)])
    def test_draw_rule(self, fill, height):
        # a full silo is refused, and so is a cone whose pile apex (either
        # sign: the class signs it) would reach the antenna, which a 0.5 m
        # cone does at fill 0.999 but not at 0.5; the rule binds every class,
        # so a levelled scan refuses the draw too
        scene = SiloScene()
        check_fill_and_cone(scene, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            check_fill_and_cone(scene, fill, height)
        with pytest.raises(InvalidParameterError):
            synth_surface(scene, SurfaceClass.LEVELLED, fill, height, 1)

    @pytest.mark.parametrize("fill, height", [(0.35, 0.2), (0.35, -0.2), (0.65, 0.12),
                                              (0.5, 0.0)])
    def test_draw_rule_far_side(self, fill, height):
        # before roughness no scatterer of any class lies at or beyond a
        # window the rule accepts, so a window at the deepest one is refused
        scene = SiloScene(surface_roughness_sigma=0.0)
        deepest = max(float(np.max(synth_surface(scene, surface_class, fill, height, seed).ranges))
                      for surface_class in SurfaceClass for seed in range(5))
        check_fill_and_cone(scene, fill, height)
        with pytest.raises(InvalidParameterError, match="unambiguous range"):
            check_fill_and_cone(scene, fill, height, deepest)

    @pytest.mark.parametrize("field, bad, edge", [
        ("apex_offset_fraction", 1.01, 1.0),
        ("ripple_crater_factor", -0.01, 0.0),
        ("dihedral_gain", 1.5, 1.0),
        ("pour_roughness_factor", -1.0, 0.0),
        ("drain_roughness_factor", -1.0, 0.0),
        ("wall_clutter_scatterers", -1, 0),
        ("wall_clutter_amplitude", -0.5, 0.0),
        ("contact_clutter_amplitude", -0.5, 0.0),
        ("gain_jitter_db", -1.0, 0.0),
    ])
    def test_scene_bounds(self, field, bad, edge):
        assert getattr(SiloScene(**{field: edge}), field) == edge
        with pytest.raises(InvalidParameterError, match=field):
            SiloScene(**{field: bad})


# degenerate jitter ranges: every scan takes fill 0.5 and cone height 0.16;
# generate_dataset reads neither the spec's SNRs nor its folds
TEMPLATE_RANGES = dict(fill_fraction_range=(0.5, 0.5), cone_height_range=(0.16, 0.16),
                       snr_db=(None,), k=10)


class TestGenerateDataset:
    def test_balanced_counts(self, default_params):
        scene = SiloScene(scatterers_per_scene=20)
        scans = generate_dataset(
            DatasetSpec(default_params, scene, [10] * 3, seed=1, **TEMPLATE_RANGES), None)
        assert scans.dtype == default_params.scan_dtype and len(scans) == 30
        labels = scans.label.tolist()
        for cls in SurfaceClass:
            assert labels.count(cls) == 10
        # noiseless scans carry a NaN SNR
        assert np.all(np.isnan(scans.snr_db))

    def test_configured_counts(self, default_params):
        scene = SiloScene(scatterers_per_scene=20)
        scans = generate_dataset(
            DatasetSpec(default_params, scene, [3, 4, 5], seed=1, **TEMPLATE_RANGES), None)
        labels = scans.label.tolist()
        assert labels.count(0) == 3 and labels.count(1) == 4 and labels.count(2) == 5

    def test_deterministic_from_seed(self, default_params):
        scene = SiloScene(scatterers_per_scene=20)
        kwargs = dict(
            fill_fraction_range=(0.4, 0.6), cone_height_range=(0.08, 0.15), snr_db=(None,), k=10
        )
        a = generate_dataset(DatasetSpec(default_params, scene, [4] * 3, seed=9, **kwargs), 20.0)
        b = generate_dataset(DatasetSpec(default_params, scene, [4] * 3, seed=9, **kwargs), 20.0)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.seed, b.seed)
        assert np.all(a.snr_db == 20.0)

    def test_rejects_bad_counts(self, default_params):
        # the DatasetSpec that generate_dataset takes checks the counts
        scene = SiloScene(scatterers_per_scene=20)
        with pytest.raises(InvalidParameterError):
            DatasetSpec(default_params, scene, [0, 1, 1], seed=1, **TEMPLATE_RANGES)
        with pytest.raises(InvalidParameterError):
            DatasetSpec(default_params, scene, [1, 1], seed=1, **TEMPLATE_RANGES)


class TestDatasetSpec:
    GOOD = dict(per_class_counts=[2, 2, 2], fill_fraction_range=(0.35, 0.65),
                cone_height_range=(0.12, 0.20), snr_db=[20.0, None], seed=0, k=2)

    def test_good_fields_are_kept(self, default_params):
        spec = DatasetSpec(default_params, SiloScene(), **self.GOOD)
        assert spec.per_class_counts == [2, 2, 2] and spec.snr_db == [20.0, None]
        assert (spec.seed, spec.k) == (0, 2)

    @pytest.mark.parametrize("change, field", [
        (dict(per_class_counts=[0, 1, 1]), ("per_class_counts", 0)),
        (dict(per_class_counts=[1, 1]), ("per_class_counts",)),
        (dict(seed=-1), ("seed",)),
        (dict(k=1), ("k",)),
        (dict(snr_db=[20.0, -4000.0]), ("snr_db", 1)),
        (dict(snr_db=[float("nan")]), ("snr_db", 0)),
        (dict(snr_db=[float("inf")]), ("snr_db", 0)),
        (dict(fill_fraction_range=(0.5,)), ("fill_fraction_range",)),
        (dict(fill_fraction_range=(0.6, 0.4)), ("fill_fraction_range",)),
        (dict(cone_height_range=(0.2, 0.1)), ("cone_height_range",)),
        (dict(fill_fraction_range=(0.5, 1.0)), ("fill_fraction_range",)),
        (dict(cone_height_range=(5.0, 6.0)), ("cone_height_range",)),
        # an 18-40 GHz sweep of 64 points ends at 0.44 m, short of the surface
        (dict(params=RadarParams(n_freq=64)), ("params",)),
    ])
    def test_bad_field_raises_naming_it(self, default_params, change, field):
        fields = dict(self.GOOD, params=default_params, scene=SiloScene())
        with pytest.raises(InvalidParameterError) as raised:
            DatasetSpec(**dict(fields, **change))
        assert raised.value.field == field
