from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grainsort import features as ft
from grainsort.cli import cli
from grainsort.dataset import save_dataset
from grainsort.errors import InvalidParameterError
from grainsort.radar import RadarParams, SurfaceClass
from oracles import brute_force_glcm, brute_force_glrlm, scan_array, seed_extract


def _named_fos(x):
    return SimpleNamespace(**dict(zip(ft.FOS_NAMES, ft.fos(x))))


class TestFOS:
    def test_constant_vector_conventions(self):
        out = _named_fos([5.0, 5.0, 5.0, 5.0])
        assert out.mean == 5.0
        assert out.variance == 0.0
        assert out.skewness == 0.0
        assert out.kurtosis == 0.0
        assert out.entropy == 0.0
        assert out.energy == 100.0

    def test_hand_computed_moments(self):
        out = _named_fos([1.0, 2.0, 3.0, 4.0])
        assert out.mean == pytest.approx(2.5)
        assert out.variance == pytest.approx(1.25)
        assert out.skewness == pytest.approx(0.0, abs=1e-12)
        assert out.kurtosis == pytest.approx(-1.36)
        assert out.energy == pytest.approx(30.0)
        # four distinct values land in four of 64 bins
        assert out.entropy == pytest.approx(np.log(4))

    def test_symmetric_sample_has_zero_skewness(self):
        rng = np.random.default_rng(0)
        half = rng.standard_normal(200)
        x = np.concatenate([1.0 + half, 1.0 - half])
        assert abs(_named_fos(x).skewness) < 1e-12

    def test_energy_identity_and_entropy_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(2, 500))
            out = _named_fos(x)
            assert abs(out.energy - np.sum(x**2)) <= 1e-12 * max(out.energy, 1.0)
            assert 0.0 <= out.entropy <= np.log(64) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ft.fos([])

    def test_higher_moments_against_exact_arithmetic(self):
        """Skewness and kurtosis, taken from products of the square, are as
        close to the exact moments of each row as numpy's power form, within
        a few ulps of the moment's size, on mixed-sign, offset and wide-range
        rows."""
        rng = np.random.default_rng(30)
        shape = (4, 301)
        rows = np.vstack([
            rng.standard_normal(shape),
            1e3 + rng.standard_normal(shape),
            rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(-20.0, 20.0, shape)),
            rng.exponential(1.0, shape) - 0.3,
        ])
        out = ft.fos(rows)
        centred = rows - rows.mean(axis=1)[:, None]
        m2 = (centred**2).mean(axis=1)
        power_skew = (centred**3).mean(axis=1) / np.array([v**1.5 for v in m2])
        power_kurt = (centred**4).mean(axis=1) / np.array([v**2 for v in m2]) - 3.0

        def decimal(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        for k, row in enumerate(rows):
            values = [Fraction(v) for v in row.tolist()]
            n = len(values)
            mean = sum(values) / n
            c2, c3, c4 = ([(v - mean) ** p for v in values] for p in (2, 3, 4))
            e2, e3, e4 = (sum(c) / n for c in (c2, c3, c4))
            with localcontext() as ctx:
                ctx.prec = 60
                cubed_sd = decimal(e2).sqrt() ** 3
                skew = float(decimal(e3) / cubed_sd)
                # an ulp of the skewness's size, not of its value, which cancels
                skew_ulp = np.spacing(float(decimal(sum(map(abs, c3)) / n) / cubed_sd))
            kurt = float(e4 / (e2 * e2) - 3)
            kurt_ulp = np.spacing(kurt + 3.0)
            assert abs(out[k, 2] - skew) <= abs(power_skew[k] - skew) + 4 * skew_ulp
            assert abs(out[k, 3] - kurt) <= abs(power_kurt[k] - kurt) + 4 * kurt_ulp


class TestQuantize:
    def test_constant_matrix_goes_dark(self):
        pixels = ft.quantize(np.full((3, 4), 7.0), 8)
        assert np.all(pixels == 0)

    def test_two_level_hand_case(self):
        pixels = ft.quantize(np.array([[1.0], [10.0]]), 2)
        assert pixels.ravel().tolist() == [0, 1]

    def test_max_maps_to_top_level(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.random((6, 5)) + 0.01
            pixels = ft.quantize(m, 16)
            assert pixels[np.unravel_index(np.argmax(m), m.shape)] == 15
            assert pixels.min() >= 0 and pixels.max() <= 15

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParameterError):
            ft.quantize(np.ones((2, 2)), 1)
        with pytest.raises(InvalidParameterError):
            ft.quantize(np.array([[np.inf]]), 4)
        with pytest.raises(InvalidParameterError):
            ft.quantize(np.array([[-1.0]]), 4)


class TestGLCM:
    def test_hand_counted_pairs(self):
        out = ft.glcm(np.array([[0, 0], [1, 1]]), 2, (0, 1))
        assert out[0, 0] == pytest.approx(0.5)
        assert out[1, 1] == pytest.approx(0.5)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0

    def test_constant_image_single_cell(self):
        out = ft.glcm(np.zeros((4, 4), dtype=int), 4, (0, 1))
        assert out[0, 0] == 1.0
        assert out.sum() == pytest.approx(1.0)

    def test_matches_brute_force_all_offsets(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            levels = int(rng.choice([4, 8, 16]))
            pixels = rng.integers(0, levels, size=(8, 8))
            for angle, offset in ft.ANGLE_OFFSETS.items():
                mine = ft.glcm(pixels, levels, offset)
                ints = brute_force_glcm(pixels, levels, offset)
                assert np.array_equal(mine, ints / ints.sum()), (trial, angle)

    def test_offset_validation(self):
        pixels = np.zeros((2, 2), dtype=int)
        with pytest.raises(InvalidParameterError):
            ft.glcm(pixels, 2, (0, 0))
        with pytest.raises(InvalidParameterError):
            ft.glcm(pixels, 2, (0, 5))


class TestGLCMFeatures:
    def test_degenerate_single_cell(self):
        vals = ft.glcm_features(ft.glcm(np.zeros((4, 4), dtype=int), 4, (0, 1)))
        contrast, correlation, energy, homogeneity, entropy, dissim = vals
        assert energy == 1.0 and homogeneity == 1.0
        assert contrast == 0.0 and entropy == 0.0 and dissim == 0.0
        assert correlation == 0.0  # degenerate marginals

    def test_two_cell_diagonal(self):
        counts = np.zeros((2, 2))
        counts[0, 0] = counts[1, 1] = 0.5
        contrast, correlation, energy, _, entropy, _ = ft.glcm_features(counts)
        assert contrast == 0.0
        assert energy == pytest.approx(0.5)
        assert entropy == pytest.approx(np.log(2))
        assert correlation == pytest.approx(1.0)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 8, size=(8, 8))
        matrix = ft.glcm(pixels, 8, (-1, 1))
        assert np.allclose(
            ft.glcm_features(matrix), ft.glcm_features(matrix.T), atol=1e-12
        )

    def test_unnormalised_rejected(self):
        with pytest.raises(InvalidParameterError):
            ft.glcm_features(np.ones((2, 2)))


class TestGLRLM:
    def test_hand_counted_runs(self):
        out = ft.glrlm(np.array([[0, 0, 1, 1, 1]]), 2, 0)
        assert out[0, 1] == 1  # one run of gray 0, length 2
        assert out[1, 2] == 1  # one run of gray 1, length 3
        assert out.sum() == 2

    def test_constant_square_rows(self):
        out = ft.glrlm(np.zeros((4, 4), dtype=int), 2, 0)
        assert out[0, 3] == 4

    def test_matches_brute_force_all_directions(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            pixels = rng.integers(0, 4, size=(8, 8))
            for direction in ft.GLCM_ANGLES:
                mine = ft.glrlm(pixels, 4, direction)
                ref = brute_force_glrlm(pixels, 4, direction)
                assert np.array_equal(mine, ref), (trial, direction)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_beyond_8x8(self, data):
        levels = data.draw(st.integers(2, 16), label="levels")
        shape = data.draw(
            st.tuples(st.integers(1, 12), st.integers(1, 40)) | st.just((33, 8)), label="shape"
        )
        pixels = data.draw(arrays(np.int64, shape, elements=st.integers(0, levels - 1)))
        for direction in ft.GLCM_ANGLES:
            assert np.array_equal(
                ft.glrlm(pixels, levels, direction),
                brute_force_glrlm(pixels, levels, direction),
            ), direction

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_image_counts_nothing(self, shape):
        for direction in ft.GLCM_ANGLES:
            counts = ft.glrlm(np.zeros(shape, dtype=np.int64), 3, direction)
            assert counts.shape == (3, max(shape)) and not counts.any()

    @settings(max_examples=40, deadline=None)
    @given(
        pixels=arrays(
            np.int64,
            st.tuples(st.integers(1, 10), st.integers(1, 10)),
            elements=st.integers(0, 5),
        )
    )
    def test_run_length_conservation(self, pixels):
        lengths = np.arange(1, max(pixels.shape) + 1)
        for direction in ft.GLCM_ANGLES:
            counts = ft.glrlm(pixels, 6, direction)
            assert int(np.sum(counts * lengths[None, :])) == pixels.size

    def test_invalid_direction(self):
        with pytest.raises(InvalidParameterError):
            ft.glrlm(np.zeros((2, 2), dtype=int), 2, 30)


class TestGLRLMFeatures:
    def test_single_run_degenerate(self):
        vals = ft.glrlm_features(ft.glrlm(np.array([[0]]), 2, 0), n_pixels=1)
        named = dict(zip(ft.GLRLM_FEATURE_NAMES, vals))
        assert named["SRE"] == 1.0 and named["LRE"] == 1.0 and named["RP"] == 1.0

    def test_constant_square_hand_values(self):
        vals = ft.glrlm_features(ft.glrlm(np.zeros((4, 4), dtype=int), 2, 0), n_pixels=16)
        named = dict(zip(ft.GLRLM_FEATURE_NAMES, vals))
        assert named["RP"] == pytest.approx(0.25)
        assert named["LRE"] == pytest.approx(16.0)

    def test_finite_and_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pixels = rng.integers(0, 16, size=(9, 7))
            for direction in ft.GLCM_ANGLES:
                vals = ft.glrlm_features(ft.glrlm(pixels, 16, direction), pixels.size)
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            ft.glrlm_features(np.zeros((2, 3), dtype=np.int64), 6)


def _test_scans(seeds):
    """Levelled scans of complex white noise, one per seed."""
    samples = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        samples.append(rng.standard_normal(301) + 1j * rng.standard_normal(301))
    return scan_array(samples, SurfaceClass.LEVELLED)


def _test_scan(seed=0):
    return _test_scans([seed])[0]


class TestExtract:
    @pytest.mark.parametrize(
        "method,dim",
        [
            ("FOS", 6),
            ("FFT+FOS", 6),
            ("DCT+FOS", 6),
            ("DWT+FOS", 30),
            ("STFT+GLCM", 24),
            ("STFT+GLRLM", 44),
        ],
    )
    def test_dimension_contract(self, method, dim):
        vec = ft.extract(_test_scan(), method)
        assert vec.values.size == dim
        assert np.all(np.isfinite(vec.values))

    def test_global_phase_invariance(self):
        scan = _test_scan(1)
        rotated = scan_array([scan.samples * np.exp(1j * 0.7)], scan.label)[0]
        for method in ft.METHOD_TAGS:
            a = ft.extract(scan, method).values
            b = ft.extract(rotated, method).values
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9), method

    def test_deterministic_bit_identical(self):
        scan = _test_scan(2)
        for method in ft.METHOD_TAGS:
            a = ft.extract(scan, method).values
            b = ft.extract(scan, method).values
            assert np.array_equal(a, b)

    def test_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            ft.extract(_test_scan(), "PCA+FOS")

    def test_extract_matrix_shapes(self):
        X, y = ft.extract_matrix(_test_scans(range(4)), "DWT+FOS")
        assert X.shape == (4, 30)
        assert y.tolist() == [0, 0, 0, 0]

    def test_features_csv(self, tmp_path):
        """`extract` writes one CSV row of tag, label and features per scan."""
        dataset = tmp_path / "d.gsrd"
        save_dataset(dataset, RadarParams(), _test_scans(range(3)))
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli, ["extract", str(dataset), "--method", "FOS", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = [
            l for l in (out / "features_FOS.csv").read_text().strip().split("\n")
            if not l.startswith("#")
        ]
        assert lines[0].split(",")[:2] == ["method_tag", "label"]
        assert len(lines) == 4
        assert len(lines[1].split(",")) == 2 + 6



# feature parameter sets the batched chains are checked under
PARAM_SETS = {
    "default": ft.FeatureParams(),
    "g8": ft.FeatureParams(gray_levels=8, stft_window_len=16, stft_hop=8,
                           stft_fft_len=16, dwt_wavelet="haar", dwt_levels=2),
    "g256": ft.FeatureParams(gray_levels=256, stft_window_len=32, stft_hop=7,
                             stft_fft_len=50, dwt_wavelet="db2", dwt_levels=5),
}


def _edge_rows(base):
    """Rows at FOS's degenerate branches and the histogram's float edges."""
    half_zero = base.copy()
    half_zero[base.size // 2 :] = 0.0
    return {
        "constant": np.full(base.size, 0.3 - 0.4j),
        "tiny": base * 1e-9,
        "half_zero": half_zero,
        "huge": base * 1e6,
    }


class _Sweeps:
    """Stacked sweeps behind a short repr: hypothesis prints every test argument."""

    def __init__(self, scans):
        self.samples = scans.samples

    def __repr__(self):
        return f"<{len(self.samples)} simulated sweeps>"


@pytest.fixture(scope="module")
def simulated(tiny_scans):
    return _Sweeps(tiny_scans)


class TestBatchedChains:
    @settings(derandomize=True, max_examples=9, deadline=None)
    @given(data=st.data())
    def test_rows_equal_the_per_scan_chain(self, simulated, data):
        """extract_matrix's rows and extract's vector are bit for bit the
        per-scan chain's, across a chunk boundary and at the edge rows."""
        n = data.draw(st.sampled_from([1, ft.CHUNK_SCANS, ft.CHUNK_SCANS + 1]), label="n_scans")
        params = PARAM_SETS[data.draw(st.sampled_from(sorted(PARAM_SETS)), label="params")]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # simulated sweeps mixed with complex white noise
        samples = simulated.samples[rng.integers(0, len(simulated.samples), n)]
        noisy = rng.random(n) < 0.5
        shape = (int(noisy.sum()), samples.shape[1])
        samples[noisy] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for name, row in _edge_rows(samples[0]).items():
            at = data.draw(st.none() | st.integers(0, n - 1), label=name)
            if at is not None:
                samples[at] = row
        scans = scan_array(samples, np.arange(n) % 3)
        for method in ft.METHOD_TAGS:
            X, _ = ft.extract_matrix(scans, method, params)
            expected = np.array([seed_extract(a, method, params) for a in scans])
            assert np.array_equal(X, expected), (method, np.argwhere(X != expected)[:5])
            assert np.array_equal(ft.extract(scans[-1], method, params).values, expected[-1])

    def test_leading_batch_axes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 20))
        assert ft.fos(x).shape == (2, 3, 6)
        assert np.array_equal(ft.fos(x)[1, 2], ft.fos(x[1, 2]))
        m = rng.random((2, 3, 5, 4))
        pixels = ft.quantize(m, 4)
        assert np.array_equal(pixels[1, 0], ft.quantize(m[1, 0], 4))
        glcms = ft.glcm(pixels, 4, (0, 1))
        assert glcms.shape == (2, 3, 4, 4)
        assert np.array_equal(ft.glcm_features(glcms)[1, 0], ft.glcm_features(glcms[1, 0]))
        runs = ft.glrlm(pixels, 4, 45)
        assert runs.shape == (2, 3, 4, 5)
        assert np.array_equal(runs[1, 0], ft.glrlm(pixels[1, 0], 4, 45))
        assert np.array_equal(ft.glrlm_features(runs, 20)[1, 0], ft.glrlm_features(runs[1, 0], 20))

    def test_pixels_outside_the_gray_levels_rejected(self):
        for bad in (-1, 4):
            pixels = np.zeros((3, 3), dtype=np.int64)
            pixels[1, 1] = bad
            with pytest.raises(InvalidParameterError):
                ft.glcm(pixels, 4, (0, 1))
            with pytest.raises(InvalidParameterError):
                ft.glrlm(pixels, 4, 0)
