"""Acceptance gates: every release-blocking criterion in one module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The end-to-end gate (criterion 6) and the determinism gate
(criterion 7) drive the real CLI on a 300-scans-per-class synthetic dataset.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from grainsort import evaluation as ev
from grainsort import features as ft
from grainsort import svm
from grainsort import transforms as tr
from grainsort.cli import cli
from grainsort.radar import RadarParams, max_unambiguous_range, range_resolution
from oracles import brute_force_glcm, brute_force_glrlm, idct, idwt_multilevel, qp_dual_oracle


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


# --- criterion 1: radar constants ------------------------------------------


def test_criterion_1_radar_constants():
    params = RadarParams()  # 18-40 GHz, 301 points
    dz = range_resolution(params)
    r_max = max_unambiguous_range(params)
    assert abs(dz - 6.8e-3) / 6.8e-3 < 0.005
    assert abs(r_max - 2.05) / 2.05 < 0.01
    _report(
        "criterion 1",
        f"dz={dz * 1e3:.4f} mm (0.5% of 6.8), r_max={r_max:.4f} m (1% of 2.05)",
    )


# --- criterion 2: transform suite -------------------------------------------


def test_criterion_2_transform_suite():
    start = time.time()
    lengths = (64, 301, 512)
    worst = {"parseval": 0.0, "dct": 0.0, "dwt": 0.0}
    shape_checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.choice(lengths))
        x_c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spectrum = tr.fft(x_c)
        lhs = np.sum(np.abs(x_c) ** 2)
        rhs = np.sum(np.abs(spectrum) ** 2) / n
        worst["parseval"] = max(worst["parseval"], abs(lhs - rhs) / lhs)

        x_r = rng.standard_normal(n)
        back = idct(tr.dct(x_r))
        worst["dct"] = max(
            worst["dct"], np.max(np.abs(back - x_r)) / np.max(np.abs(x_r))
        )

        wavelet = "haar" if seed % 2 == 0 else "db4"
        levels = 1 + seed % 4
        bands = tr.dwt_multilevel(x_r, levels, wavelet)
        recon = idwt_multilevel(bands, n, wavelet)
        worst["dwt"] = max(
            worst["dwt"], np.max(np.abs(recon - x_r)) / np.max(np.abs(x_r))
        )

        window = int(rng.integers(4, min(n, 64) + 1))
        hop = int(rng.integers(1, 32))
        fft_len = window + int(rng.integers(0, 16))
        frames = tr.stft(np.ones(n), window_len=window, hop=hop, fft_len=fft_len)
        assert frames.shape == (fft_len // 2 + 1, (n - window) // hop + 1)
        shape_checked += 1

    assert worst["parseval"] <= 1e-9
    assert worst["dct"] <= 1e-9
    assert worst["dwt"] <= 1e-9
    assert shape_checked == 100
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(
        "criterion 2",
        f"parseval {worst['parseval']:.1e}, dct {worst['dct']:.1e}, "
        f"dwt {worst['dwt']:.1e}, 100 stft shapes, {elapsed:.1f}s",
    )


# --- criterion 3: texture oracles -------------------------------------------


def test_criterion_3_texture_oracles():
    start = time.time()
    rng = np.random.default_rng(33)
    for trial in range(100):
        levels = int(rng.choice([4, 8, 16]))
        pixels = rng.integers(0, levels, size=(8, 8))
        for angle, offset in ft.ANGLE_OFFSETS.items():
            mine = ft.glcm(pixels, levels, offset)
            ints = brute_force_glcm(pixels, levels, offset)
            assert np.array_equal(mine, ints / ints.sum()), (trial, angle)
        for direction in ft.GLCM_ANGLES:
            assert np.array_equal(
                ft.glrlm(pixels, levels, direction),
                brute_force_glrlm(pixels, levels, direction),
            ), (trial, direction)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion 3", f"100 images x 4 offsets/directions exact, {elapsed:.1f}s")


# --- criterion 4: SVM solver correctness -------------------------------------


def test_criterion_4_svm_solver():
    start = time.time()
    rng = np.random.default_rng(44)
    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 21))
        X = rng.standard_normal((n, 3))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        kind = "rbf" if trial % 2 == 0 else "linear"
        kernel = svm.KernelSpec(
            kind=kind, c=5.0, gamma=0.7 if kind == "rbf" else None
        )
        model = svm.train_binary(X, y, kernel, solver=svm.SolverSpec(1e-3, 400))
        gram = svm.kernel_matrix(kernel, X)
        _, best = qp_dual_oracle(gram, y, 5.0, iters=20000)
        worst_gap = max(worst_gap, abs(model.diagnostics.dual_objective - best))
        worst_kkt = max(worst_kkt, model.diagnostics.final_violation)
    assert worst_gap <= 1e-3
    assert worst_kkt <= 1e-3

    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    xor = svm.train_binary(X, y, svm.KernelSpec(kind="rbf", c=100.0, gamma=1.0))
    assert np.all(np.sign(svm.decision(xor, X)) == y)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(
        "criterion 4",
        f"50 problems, dual gap {worst_gap:.2e}, KKT {worst_kkt:.2e}, "
        f"XOR 100%, {elapsed:.1f}s",
    )


# --- criterion 5: metric identities ------------------------------------------


def _binary_metrics(tp, tn, fp, fn):
    """Metrics of a (tp, tn, fp, fn) tuple by name: row 0 of its 2 x 2 matrix."""
    values, _ = ev.class_metrics([[tp, fn], [fp, tn]])
    return dict(zip(ev.METRIC_NAMES, values[0]))


def test_criterion_5_metric_identities():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
        if tp + tn + fp + fn == 0:
            continue
        m = _binary_metrics(tp, tn, fp, fn)
        assert -1.0 - 1e-12 <= m["MCC"] <= 1.0 + 1e-12
        if m["PRE"] > 0 and m["SEN"] > 0:
            harmonic = 2 * m["PRE"] * m["SEN"] / (m["PRE"] + m["SEN"])
            assert m["F1"] == pytest.approx(harmonic, rel=1e-12)
        checked += 1
    assert checked > 900

    worked = _binary_metrics(tp=40, tn=45, fp=5, fn=10)
    assert worked["ACC"] == pytest.approx(0.85, abs=5e-5)
    assert worked["F1"] == pytest.approx(0.8421, abs=5e-5)
    assert worked["MCC"] == pytest.approx(0.7035, abs=5e-5)
    _report(
        "criterion 5",
        f"{checked} random tuples, worked tuple ACC/F1/MCC to 4 decimals",
    )


# --- criteria 6 & 7: end-to-end reproduction and determinism -----------------

N_PER_CLASS = 300
ACCEPTANCE_SNR_DB = 20.0
ACCEPTANCE_K = 10


@pytest.fixture(scope="module")
def acceptance_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "config.json"
    path.write_text(
        json.dumps(
            {
                "seed": 20260809,
                "dataset": {
                    "per_class_counts": [N_PER_CLASS] * 3,
                    "snr_db": [ACCEPTANCE_SNR_DB],
                },
                "cv": {"k": ACCEPTANCE_K},
            }
        )
    )
    return path


def _run_evaluate(config_path, out_dir):
    runner = CliRunner()
    result = runner.invoke(
        cli, ["evaluate", "--config", str(config_path), "--out", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    return json.loads((out_dir / "summary.json").read_text())


@pytest.fixture(scope="module")
def acceptance_run(acceptance_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_a")
    start = time.time()
    summary = _run_evaluate(acceptance_config, out)
    elapsed = time.time() - start
    return summary, out, elapsed


def test_criterion_6_end_to_end_ordering(acceptance_run):
    summary, _, elapsed = acceptance_run
    block = summary["results"][f"snr{ACCEPTANCE_SNR_DB:g}"]
    acc = {method: block[method]["mean"]["ACC"] for method in block}
    assert set(acc) == set(ft.METHOD_TAGS)
    assert acc["STFT+GLCM"] >= 0.90, acc
    assert acc["DWT+FOS"] >= 0.90, acc
    assert acc["STFT+GLCM"] > acc["FOS"], acc
    assert acc["STFT+GLCM"] > acc["STFT+GLRLM"], acc
    assert acc["DWT+FOS"] > acc["FOS"], acc
    assert acc["DWT+FOS"] > acc["STFT+GLRLM"], acc
    assert elapsed < 300.0
    ordering = " ".join(f"{m}={100 * acc[m]:.2f}" for m in ft.METHOD_TAGS)
    _report("criterion 6", f"{ordering} ({elapsed:.0f}s)")


def test_criterion_7_reports_byte_identical(acceptance_run, acceptance_config, tmp_path_factory):
    _, out_a, _ = acceptance_run
    out_b = tmp_path_factory.mktemp("acceptance_b")
    _run_evaluate(acceptance_config, out_b)
    csv_a = (out_a / f"report_snr{ACCEPTANCE_SNR_DB:g}.csv").read_bytes()
    csv_b = (out_b / f"report_snr{ACCEPTANCE_SNR_DB:g}.csv").read_bytes()
    assert csv_a == csv_b
    summary_a = (out_a / "summary.json").read_bytes()
    summary_b = (out_b / "summary.json").read_bytes()
    assert summary_a == summary_b
    _report("criterion 7", f"two runs, {len(csv_a)} CSV bytes identical")
