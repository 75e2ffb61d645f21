import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grainsort import transforms as tr
from oracles import (
    direct_dct2_ortho, direct_dft, frame_stft, idct, idwt_multilevel, seed_dwt_multilevel,
)


class TestFFT:
    def test_delta(self):
        out = tr.fft([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, np.ones(4), atol=1e-12)

    def test_constant(self):
        out = tr.fft([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(out, [4.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        fast = tr.fft(x)
        slow = direct_dft(x)
        assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            spectrum = tr.fft(x)
            lhs = np.sum(np.abs(x) ** 2)
            rhs = np.sum(np.abs(spectrum) ** 2) / x.size
            assert abs(lhs - rhs) / lhs < 1e-9

    def test_conjugate_symmetry_on_real_input(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64)
        spectrum = tr.fft(x)
        for k in range(1, 64):
            assert spectrum[k] == pytest.approx(np.conj(spectrum[64 - k]), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tr.fft([])


class TestDCT:
    def test_constant_vector_is_dc_only(self):
        out = tr.dct([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(33)
        assert np.max(np.abs(idct(tr.dct(x)) - x)) < 1e-10

    def test_matches_direct_cosine_sum(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(8)
        assert np.max(np.abs(tr.dct(x) - direct_dct2_ortho(x))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 301, 302])
    def test_matches_direct_cosine_sum_on_vectors_and_batches(self, n):
        # a vector and a batch, each row against the cosine sum, within a
        # bound relative to the largest coefficient
        rng = np.random.default_rng(9)
        for x in (rng.standard_normal(n), rng.standard_normal((3, n))):
            ref = np.array([direct_dct2_ortho(row) for row in np.atleast_2d(x)]).reshape(x.shape)
            out = tr.dct(x)
            assert out.shape == x.shape
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_energy_preserved(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(50)
        coeffs = tr.dct(x)
        assert abs(np.sum(x**2) - np.sum(coeffs**2)) / np.sum(x**2) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tr.dct([])


class TestDWT:
    def test_haar_constant_kills_detail(self):
        approx, detail = tr.dwt_multilevel([1.0, 1.0, 1.0, 1.0], 1, "haar")
        assert np.allclose(detail, 0.0, atol=1e-12)

    def test_haar_alternating_kills_approx(self):
        approx, detail = tr.dwt_multilevel([1.0, -1.0, 1.0, -1.0], 1, "haar")
        assert np.allclose(approx, 0.0, atol=1e-12)

    @pytest.mark.parametrize("wavelet", ["haar", "db4"])
    @pytest.mark.parametrize("length", [64, 301, 512])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_perfect_reconstruction(self, wavelet, length, levels):
        rng = np.random.default_rng(length * levels)
        x = rng.standard_normal(length)
        bands = tr.dwt_multilevel(x, levels, wavelet)
        back = idwt_multilevel(bands, length, wavelet)
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9

    def test_db4_deep_reconstruction_matches_oracle_case(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal(301)
        bands = tr.dwt_multilevel(x, 4, "db4")
        assert len(bands) == 1 + 4  # approximation, then 4 detail levels
        back = idwt_multilevel(bands, 301, "db4")
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-9

    def test_subband_lengths_expand_with_padding(self):
        lengths = [band.size for band in tr.dwt_multilevel(np.arange(301.0), 4, "db4")]
        assert lengths == [25, 154, 80, 43, 25]
        assert sum(lengths) >= 301

    def test_filter_normalisation(self):
        for name, lo in tr.WAVELETS.items():
            assert np.sum(lo) == pytest.approx(np.sqrt(2), rel=1e-10)
            assert np.sum(lo**2) == pytest.approx(1.0, rel=1e-9)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            tr.dwt_multilevel(np.ones(4), 1, "db4")
        with pytest.raises(ValueError):
            tr.dwt_multilevel(np.ones(64), 0, "haar")

    def test_unknown_wavelet(self):
        with pytest.raises(ValueError):
            tr.dwt_multilevel(np.ones(32), 1, "sym9")

    @pytest.mark.parametrize("wavelet", ["haar", "db2", "db4"])
    @pytest.mark.parametrize("length", ["taps", "taps+1", 33, 301])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_stacked_bands_equal_the_per_signal_filterbank(self, wavelet, length, levels):
        taps = tr.WAVELETS[wavelet].size
        n = {"taps": taps, "taps+1": taps + 1}.get(length, length)
        rng = np.random.default_rng(1000 * taps + 10 * n + levels)
        rows = rng.standard_normal((6, n)) * np.array([1e-9, 1e-3, 1.0, 1.0, 1e3, 1e9])[:, None]
        try:
            expected = [seed_dwt_multilevel(row, levels, wavelet) for row in rows]
        except ValueError as exc:
            # too short for some level: the stack fails at that level too
            for stack in (rows[0], rows, rows.reshape(2, 3, n)):
                with pytest.raises(ValueError) as raised:
                    tr.dwt_multilevel(stack, levels, wavelet)
                assert str(raised.value) == str(exc)
            return
        for stack in (rows[0], rows, rows.reshape(2, 3, n)):
            bands = tr.dwt_multilevel(stack, levels, wavelet)
            assert len(bands) == levels + 1
            for band, seed_bands in zip(bands, zip(*expected)):
                assert band.shape[:-1] == stack.shape[:-1]
                flat = band.reshape(-1, band.shape[-1])
                assert np.array_equal(flat, np.stack(seed_bands[: len(flat)]))


class TestSTFT:
    def test_sweep_framing(self):
        frames = tr.stft(np.zeros(301), window_len=64, hop=32, fft_len=64)
        assert frames.shape == (33, 8)

    def test_pure_tone_lands_on_its_bin(self):
        n = np.arange(256)
        x = np.cos(2 * np.pi * 3 * n / 64)
        mags = np.abs(tr.stft(x, window_len=64, hop=32, fft_len=64))
        for t in range(mags.shape[1]):
            assert np.argmax(mags[:, t]) == 3

    def test_zero_signal(self):
        frames = tr.stft(np.zeros(200), window_len=64, hop=32, fft_len=64)
        assert np.all(frames == 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tr.stft(np.zeros(32), window_len=64, hop=32, fft_len=64)
        with pytest.raises(ValueError):
            tr.stft(np.zeros(301), window_len=64, hop=0, fft_len=64)
        with pytest.raises(ValueError):
            tr.stft(np.zeros(301), window_len=64, hop=32, fft_len=32)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(8, 400),
        window=st.integers(2, 64),
        hop=st.integers(1, 48),
        pad=st.integers(0, 32),
    )
    def test_frame_count_law(self, length, window, hop, pad):
        if window > length:
            return
        fft_len = window + pad
        frames = tr.stft(np.ones(length), window_len=window, hop=hop, fft_len=fft_len)
        assert frames.shape[1] == (length - window) // hop + 1
        assert frames.shape[0] == fft_len // 2 + 1

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        length=st.integers(2, 400),
        window=st.integers(2, 64),
        hop=st.integers(1, 96),
        pad=st.integers(0, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=64, window=64, hop=1, pad=0, seed=0)  # a single frame
    @example(length=301, window=16, hop=40, pad=5, seed=1)  # hop above the window
    def test_matches_per_frame_loop(self, length, window, hop, pad, seed):
        window = min(window, length)
        x = np.random.default_rng(seed).standard_normal(length)
        frames = tr.stft(x, window_len=window, hop=hop, fft_len=window + pad)
        assert np.array_equal(frames, frame_stft(x, window, hop, window + pad))
