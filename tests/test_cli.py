import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from grainsort import cli as cli_module
from grainsort import config as cfgmod
from grainsort import evaluation, features, radar, svm
from grainsort.cli import cli
from grainsort.errors import ConvergenceError
from grainsort.dataset import load_dataset


@pytest.fixture()
def runner():
    return CliRunner()


def _write_config(tmp_path, **overrides):
    cfg = {
        "seed": 777,
        "dataset": {
            "per_class_counts": [6, 6, 6],
            "snr_db": [20.0],
        },
        "scene": {"scatterers_per_scene": 30},
        "cv": {"k": 2},
        "svm": {"max_passes": 50},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_dataset_and_manifest(self, runner, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        result = runner.invoke(
            cli, ["simulate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        params, scans = load_dataset(out / "dataset_snr20.gsrd")
        assert len(scans) == 18
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [6, 6, 6]
        assert manifest["seed"] == 777
        assert manifest["files"][0]["n_records"] == 18
        assert len(manifest["config_hash"]) == 64

    def test_default_record_split_totals(self, runner, tmp_path):
        # default per-class counts, tiny scenes to keep synthesis fast
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"seed": 9, "scene": {"scatterers_per_scene": 10},
                        "scene": {"scatterers_per_scene": 10},
                        "dataset": {"snr_db": [None]}})
        )
        out = tmp_path / "run"
        result = runner.invoke(
            cli, ["simulate", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [1894, 1894, 1893]
        assert manifest["files"][0]["n_records"] == 5681

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        config = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(
                cli, ["simulate", "--config", str(config), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        digest_a = hashlib.sha256((out_a / "dataset_snr20.gsrd").read_bytes()).hexdigest()
        digest_b = hashlib.sha256((out_b / "dataset_snr20.gsrd").read_bytes()).hexdigest()
        assert digest_a == digest_b

    def test_csv_export_flag(self, runner, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "run_csv"
        result = runner.invoke(
            cli, ["simulate", "--config", str(config), "--out", str(out), "--csv"]
        )
        assert result.exit_code == 0, result.output
        params, scans = load_dataset(out / "dataset_snr20.gsrd")
        text = (out / "dataset_snr20.csv").read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text.split("\n")[:-1]
        header = lines[0].split(",")
        assert header[:5] == ["label", "re_0", "im_0", "re_1", "im_1"]
        assert len(header) == 1 + 2 * params.n_freq
        assert len(lines) == 1 + len(scans) == 1 + 18
        for line, scan in zip(lines[1:], scans):
            cells = line.split(",")
            assert int(cells[0]) == int(scan.label)
            # every float cell reads back exactly: the writer's str is repr
            values = [float(c) for c in cells[1:]]
            assert values == scan.samples.view(np.float64).tolist()

    def test_seed_override_changes_data(self, runner, tmp_path):
        config = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out_a)])
        runner.invoke(
            cli,
            ["simulate", "--config", str(config), "--out", str(out_b), "--seed", "778"],
        )
        assert (out_a / "dataset_snr20.gsrd").read_bytes() != (
            out_b / "dataset_snr20.gsrd"
        ).read_bytes()

    def test_bad_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "cv": {"k": 0}}))
        result = runner.invoke(
            cli, ["simulate", "--config", str(config), "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2
        config.write_text(json.dumps({"seed": 1, "unknown_section": {}}))
        result = runner.invoke(
            cli, ["simulate", "--config", str(config), "--out", str(tmp_path / "y")]
        )
        assert result.exit_code == 2

    def test_missing_config_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["simulate", "--config", str(tmp_path / "nope.json")]
        )
        assert result.exit_code == 2


def _moved(value):
    """The value 10% lower, of its type: in bounds for every scene key and
    both dataset ranges."""
    if isinstance(value, list):
        return [_moved(v) for v in value]
    return type(value)(value * 0.9)


LIVE_KEYS = [("scene", key) for key in cfgmod.DEFAULT_CONFIG["scene"]]
LIVE_KEYS += [("dataset", "fill_fraction_range"), ("dataset", "cone_height_range")]


@pytest.mark.parametrize("section, key", LIVE_KEYS, ids=[key for _, key in LIVE_KEYS])
def test_every_scene_and_range_key_reaches_the_scans(runner, tmp_path, section, key):
    # a key that no scan reads writes the same GSRD at any value
    default = cfgmod.DEFAULT_CONFIG[section][key]
    blobs = []
    for value in (default, _moved(default)):
        doc = {"seed": 5, "dataset": {"per_class_counts": [1, 1, 1], "snr_db": [20.0]}}
        doc.setdefault(section, {})[key] = value
        config, out = tmp_path / "config.json", tmp_path / f"run_{len(blobs)}"
        config.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append((out / "dataset_snr20.gsrd").read_bytes())
    assert blobs[0] != blobs[1]


# a value off the default for every key of these sections; svm.tol and
# svm.max_passes are left out: they bound the solver and change no output of
# a run that converges
MOVED_EVALUATION_KEYS = {
    ("features", "gray_levels"): 8,
    ("features", "stft", "window_len"): 32,
    ("features", "stft", "hop"): 16,
    ("features", "stft", "fft_len"): 128,
    ("features", "dwt", "wavelet"): "db2",
    ("features", "dwt", "levels"): 3,
    ("kernel", "kind"): "linear",
    ("kernel", "C"): 1.0,
    ("kernel", "gamma"): 1.0,
    ("cv", "k"): 4,
}


def _evaluated(tmp_path, path=(), value=None):
    """(exit code, summary results) of evaluate on 12 scans/class with k = 3,
    with the key at path set to value; the config hash and the echoed kernel
    section change with any key, so they are left out."""
    doc = {"seed": 5, "dataset": {"per_class_counts": [12, 12, 12], "snr_db": [20.0]},
           "scene": {"scatterers_per_scene": 40}, "cv": {"k": 3}}
    parent = doc
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    if path:
        parent[path[-1]] = value
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli, ["evaluate", "--config", str(config), "--out", str(out)])
    if result.exit_code != 0:
        return result.exit_code, None
    return 0, json.loads((out / "summary.json").read_text())["results"]


@pytest.fixture(scope="module")
def evaluated_at_defaults(tmp_path_factory):
    return _evaluated(tmp_path_factory.mktemp("defaults"))


def test_the_moved_keys_are_every_feature_kernel_and_cv_key():
    def leaves(value, path):
        if isinstance(value, dict):
            return [p for k, v in value.items() for p in leaves(v, path + (k,))]
        return [path]

    assert set(MOVED_EVALUATION_KEYS) == {
        p for section in ("features", "kernel", "cv")
        for p in leaves(cfgmod.DEFAULT_CONFIG[section], (section,))}


@pytest.mark.parametrize("path", MOVED_EVALUATION_KEYS, ids=".".join)
def test_every_feature_kernel_and_cv_key_reaches_the_reports(tmp_path, evaluated_at_defaults,
                                                            path):
    # a key that nothing reads gives the same results at any value
    code, results = evaluated_at_defaults
    assert code == 0
    assert _evaluated(tmp_path, path, MOVED_EVALUATION_KEYS[path]) != (code, results)


@pytest.fixture()
def simulated(runner, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sim")
    config = _write_config(tmp_path)
    out = tmp_path / "run"
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return config, out / "dataset_snr20.gsrd", tmp_path


class TestExtract:
    def test_feature_csv_contract(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "feat"
        result = runner.invoke(
            cli,
            ["extract", str(dataset), "--method", "FOS",
             "--config", str(config), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "features_FOS.csv").read_text().strip().split("\n")
        provenance = [l for l in lines if l.startswith("#")]
        assert any("config_hash=" in l for l in provenance)
        assert any("seed=" in l for l in provenance)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",") == ["method_tag", "label"] + [f"f_{i}" for i in range(6)]
        assert len(data) == 1 + 18
        _, scans = load_dataset(dataset)
        fparams = cfgmod.feature_params(cfgmod.load_config(config))
        X, y = features.extract_matrix(scans, "FOS", fparams)
        for line, label, row in zip(data[1:], y.tolist(), X.tolist()):
            cells = line.split(",")
            assert cells[:2] == ["FOS", str(label)]
            # every float cell reads back exactly: the writer's str is repr
            assert [float(c) for c in cells[2:]] == row

    def test_glrlm_dimension(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "feat44"
        result = runner.invoke(
            cli,
            ["extract", str(dataset), "--method", "STFT+GLRLM",
             "--config", str(config), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = [
            l
            for l in (out / "features_STFT_GLRLM.csv").read_text().strip().split("\n")
            if not l.startswith("#")
        ]
        assert len(lines[1].split(",")) == 2 + 44

    @pytest.mark.parametrize("change", ["replaced", "removed"])
    def test_hashes_the_bytes_it_extracted(self, runner, simulated, monkeypatch, change):
        """The dataset_sha256 line is the hash of the bytes extracted, even
        when the file is replaced or removed while the features are built."""
        config, dataset, tmp_path = simulated
        copy = tmp_path / f"{change}.gsrd"
        blob = Path(dataset).read_bytes()
        copy.write_bytes(blob)
        extract_matrix = features.extract_matrix

        def then_change_the_file(*args, **kwargs):
            result = extract_matrix(*args, **kwargs)
            if change == "replaced":
                copy.write_bytes(blob[:-1] + b"\x01")
            else:
                copy.unlink()
            return result

        monkeypatch.setattr(features, "extract_matrix", then_change_the_file)
        out = tmp_path / f"feat_{change}"
        result = runner.invoke(cli, ["extract", str(copy), "--method", "FOS",
                                     "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "features_FOS.csv").read_text().splitlines()
        assert f"# dataset_sha256={hashlib.sha256(blob).hexdigest()}" in lines

    def test_truncated_dataset_exits_3(self, runner, simulated):
        config, dataset, tmp_path = simulated
        broken = tmp_path / "broken.gsrd"
        blob = Path(dataset).read_bytes()
        broken.write_bytes(blob[: len(blob) - 7])
        result = runner.invoke(
            cli,
            ["extract", str(broken), "--method", "FOS",
             "--config", str(config), "--out", str(tmp_path / "f")],
        )
        assert result.exit_code == 3
        assert "byte offset" in result.output


class TestTrainPredict:
    def test_train_then_predict_round_trip(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "model"
        result = runner.invoke(
            cli,
            ["train", str(dataset), "--method", "DWT+FOS",
             "--config", str(config), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "model.json").read_text())
        assert doc["method_tag"] == "DWT+FOS"
        assert doc["n_freq"] == 301

        pred_out = tmp_path / "pred"
        result = runner.invoke(
            cli,
            ["predict", str(out / "model.json"), str(dataset), "--out", str(pred_out)],
        )
        assert result.exit_code == 0, result.output
        names = [l for l in result.output.strip().split("\n") if not l.startswith("wrote")]
        assert len(names) == 18
        assert set(names) <= {"levelled", "peaked_cone", "inverted_cone"}
        rows = [
            l
            for l in (pred_out / "predictions.csv").read_text().strip().split("\n")
            if not l.startswith("#")
        ]
        assert rows[0] == "index,label_id,label_name"
        assert len(rows) == 1 + 18

    def test_predict_rejects_wrong_sweep_length(self, runner, simulated, tmp_path):
        config, dataset, sim_tmp = simulated
        out = sim_tmp / "model2"
        runner.invoke(
            cli,
            ["train", str(dataset), "--method", "FOS",
             "--config", str(config), "--out", str(out)],
        )
        other_cfg = tmp_path / "cfg.json"
        # 160 points leave a 1.09 m window, beyond the deepest default surface
        other_cfg.write_text(
            json.dumps({
                "seed": 5,
                "radar": {"n_freq": 160},
                "dataset": {"per_class_counts": [2, 2, 2], "snr_db": [None]},
                "scene": {"scatterers_per_scene": 15},
            })
        )
        sim_out = tmp_path / "other"
        result = runner.invoke(
            cli, ["simulate", "--config", str(other_cfg), "--out", str(sim_out)]
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            cli,
            ["predict", str(out / "model.json"), str(sim_out / "dataset_noiseless.gsrd")],
        )
        assert result.exit_code == 3
        assert "sweep" in result.output or "model" in result.output


class TestEvaluate:
    def test_echo_classifier_all_ones(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "eval_echo"
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(out),
             "--method", "FOS", "--method", "DCT+FOS", "--echo-classifier"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        block = summary["results"]["snr20"]
        assert set(block) == {"FOS", "DCT+FOS"}
        for payload in block.values():
            assert payload["mean"]["ACC"] == 1.0
            assert payload["std"]["ACC"] == 0.0
        assert "100.00±0.00" in (out / "report_snr20.txt").read_text()

    def test_report_files_structure(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "eval_svm"
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(out), "--method", "FOS"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "report_snr20.csv").read_text().strip().split("\n")
        provenance = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# config_hash=") for l in provenance)
        assert any(l.startswith("# seed=") for l in provenance)
        rows = [l for l in lines if not l.startswith("#")]
        header = rows[0].split(",")
        assert header[:4] == ["method", "metric", "mean", "std"]
        assert header[4:] == ["fold_0", "fold_1"]
        assert len(rows) == 1 + 6  # one method x six metrics

    def test_rerun_reports_byte_identical(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out_a, out_b = tmp_path / "ev_a", tmp_path / "ev_b"
        for out in (out_a, out_b):
            result = runner.invoke(
                cli,
                ["evaluate", "--config", str(config), "--out", str(out),
                 "--method", "FOS"],
            )
            assert result.exit_code == 0, result.output
        assert (out_a / "report_snr20.csv").read_bytes() == (
            out_b / "report_snr20.csv"
        ).read_bytes()
        assert (out_a / "summary.json").read_bytes() == (
            out_b / "summary.json"
        ).read_bytes()

    def test_convergence_failure_exits_4(self, runner, tmp_path):
        config = _write_config(
            tmp_path,
            kernel={"kind": "rbf", "C": 1000.0, "gamma": 0.001},
            svm={"max_passes": 1},
            scene={"scatterers_per_scene": 30, "gain_jitter_db": 6.0},
            dataset={"per_class_counts": [20, 20, 20], "snr_db": [-30.0]},
        )
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(tmp_path / "ev"),
             "--method", "FOS"],
        )
        assert result.exit_code == 4, result.output

    def test_grid_search_survives_non_converging_point(self, runner, tmp_path):
        hard = dict(
            svm={"max_passes": 1},
            scene={"scatterers_per_scene": 30, "gain_jitter_db": 6.0},
            dataset={"per_class_counts": [20, 20, 20], "snr_db": [-30.0]},
        )
        config = _write_config(
            tmp_path, grid={"C": [1.0, 1000.0], "gamma": [0.001]}, **hard
        )
        out = tmp_path / "grid_out"
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(out),
             "--method", "FOS", "--grid"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        payload = summary["results"]["snr-30"]["FOS"]
        assert payload["best_kernel"] == {"C": 1.0, "gamma": 0.001}
        good, bad = payload["grid_scan"]
        assert set(good) == {"C", "gamma", "macro_acc"}
        assert bad["C"] == 1000.0 and bad["converged"] is False
        assert bad["kkt_violation"] > 1e-3 and "macro_acc" not in bad

        config = _write_config(
            tmp_path, grid={"C": [1000.0], "gamma": [0.001]}, **hard
        )
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(tmp_path / "none"),
             "--method", "FOS", "--grid"],
        )
        assert result.exit_code == 4, result.output

    def test_grid_search_reports_best_kernel(self, runner, simulated):
        config, dataset, tmp_path = simulated
        cfg = json.loads(Path(config).read_text())
        cfg["grid"] = {"C": [1.0, 10.0], "gamma": [0.05]}
        grid_config = tmp_path / "grid.json"
        grid_config.write_text(json.dumps(cfg))
        out = tmp_path / "grid_out"
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(grid_config), "--out", str(out),
             "--method", "FOS", "--grid"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        payload = summary["results"]["snr20"]["FOS"]
        assert payload["best_kernel"]["C"] in (1.0, 10.0)
        assert len(payload["grid_scan"]) == 2


    def test_grid_builds_each_gram_once_and_scores_points_as_alone(
            self, runner, tmp_path, monkeypatch, one_cpu):
        """A pinned --grid run at 2 C x 2 gamma and k = 3 builds each training
        Gram once per (fold, pair, gamma), not once per point, and each point
        gets the confusion stack, or the ConvergenceError, that cross_validate
        gives at its kernel alone; (C=10, gamma=0.01) does not converge."""
        config = _write_config(
            tmp_path, grid={"C": [1.0, 10.0], "gamma": [0.001, 0.01]}, cv={"k": 3},
            svm={"max_passes": 1},
            scene={"scatterers_per_scene": 30, "gain_jitter_db": 6.0},
            dataset={"per_class_counts": [20, 20, 20], "snr_db": [-30.0]},
        )
        grams = []
        kernel_matrix = svm.kernel_matrix

        def counting(spec, A, B=None, out=None):
            if B is None:  # a training Gram, not a decision's kernel rows
                grams.append(spec)
            return kernel_matrix(spec, A, B, out=out)

        monkeypatch.setattr(svm, "kernel_matrix", counting)
        searched = []
        grid_search = cli_module._grid_search

        def recording(points, kernels, outcomes):
            searched.append(outcomes)
            return grid_search(points, kernels, outcomes)

        monkeypatch.setattr(cli_module, "_grid_search", recording)
        out = tmp_path / "grams"
        result = runner.invoke(
            cli, ["evaluate", "--config", str(config), "--out", str(out), "--method", "FOS",
                  "--grid"])
        assert result.exit_code == 0, result.output
        assert len(grams) == 3 * 3 * 2  # k x pairs x gammas

        cfg = cfgmod.load_config(config)
        X, y = features.extract_matrix(radar.generate_dataset(cfgmod.dataset_spec(cfg), -30.0),
                                       "FOS")
        scan = json.loads((out / "summary.json").read_text())["results"]["snr-30"]["FOS"]["grid_scan"]
        (outcomes,) = searched
        points = [(c, gamma) for c in (1.0, 10.0) for gamma in (0.001, 0.01)]
        stalled = []
        for (c, gamma), outcome, entry in zip(points, outcomes, scan, strict=True):
            try:
                oracle = evaluation.cross_validate(
                    X, y, "FOS", cfgmod.kernel_spec(cfg, c=c, gamma=gamma), k=3, seed=777,
                    solver=cfgmod.solver_spec(cfg),
                )
            except ConvergenceError as exc:
                stalled.append((c, gamma))
                assert str(outcome) == str(exc)
                violation = exc.model.diagnostics.final_violation
                assert outcome.model.diagnostics.final_violation == violation
                assert entry == {"C": c, "gamma": gamma, "converged": False,
                                 "kkt_violation": violation}
                continue
            assert np.array_equal(outcome.confusions, oracle.confusions)
            acc = evaluation.report_payload(oracle)["mean"]["ACC"]
            assert entry == {"C": c, "gamma": gamma, "macro_acc": acc}
        assert stalled == [(10.0, 0.01)]

    def test_extracts_each_chain_once(self, runner, simulated, monkeypatch):
        """Plain and grid runs extract each (chain, scan) row once."""
        original = features.extract_matrix
        calls = []

        def counting(ascans, method_tag, *args, **kwargs):
            calls.extend((method_tag, seed) for seed in ascans.seed.tolist())
            return original(ascans, method_tag, *args, **kwargs)

        # every module that bound the function by name, not only its home
        for name, module in list(sys.modules.items()):
            if name.startswith("grainsort") and getattr(module, "extract_matrix", None) is original:
                monkeypatch.setattr(module, "extract_matrix", counting)

        config, dataset, tmp_path = simulated
        seeds = load_dataset(dataset)[1].seed.tolist()
        cfg = json.loads(Path(config).read_text())
        cfg["grid"] = {"C": [1.0, 10.0], "gamma": [0.05, 0.5]}
        grid_config = tmp_path / "grid_2x2.json"
        grid_config.write_text(json.dumps(cfg))
        for argv in (
            ["--config", str(config), "--out", str(tmp_path / "once")],
            ["--config", str(grid_config), "--out", str(tmp_path / "once_grid"), "--grid"],
        ):
            calls.clear()
            result = runner.invoke(
                cli, ["evaluate", *argv, "--method", "FOS", "--method", "DWT+FOS"]
            )
            assert result.exit_code == 0, result.output
            assert sorted(calls) == sorted((tag, seed) for tag in ("DWT+FOS", "FOS")
                                           for seed in seeds), argv
        summary = json.loads((tmp_path / "once_grid" / "summary.json").read_text())
        assert len(summary["results"]["snr20"]["FOS"]["grid_scan"]) == 4


class TestReport:
    def test_renders_stored_summary(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "ev_rep"
        runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(out),
             "--method", "FOS", "--echo-classifier"],
        )
        result = runner.invoke(cli, ["report", str(out / "summary.json")])
        assert result.exit_code == 0, result.output
        assert "FOS+SVM" in result.output
        assert "100.00±0.00" in result.output

    def test_report_evaluate_and_txt_render_the_same_table(self, runner, simulated):
        config, dataset, tmp_path = simulated
        out = tmp_path / "ev_same"
        result = runner.invoke(
            cli,
            ["evaluate", "--config", str(config), "--out", str(out),
             "--method", "DWT+FOS", "--method", "FOS", "--method", "DCT+FOS"],
        )
        assert result.exit_code == 0, result.output
        printed = result.stdout[: result.stdout.index("wrote ")]
        rendered = runner.invoke(cli, ["report", str(out / "summary.json")])
        assert rendered.exit_code == 0, rendered.output
        txt = (out / "report_snr20.txt").read_text(encoding="utf-8").split("\n")
        assert [l for l in txt if l.startswith("#")] == txt[:2]
        assert rendered.stdout == printed == "[snr20]\n" + "\n".join(txt[2:])

        # a chain left out of "methods" follows the listed ones, in summary order
        summary = json.loads((out / "summary.json").read_text())
        summary["methods"] = ["DCT+FOS", "STFT+GLCM"]
        edited = tmp_path / "edited_summary.json"
        edited.write_text(json.dumps(summary))
        rendered = runner.invoke(cli, ["report", str(edited)])
        assert rendered.exit_code == 0, rendered.output
        rows = [l.split()[0] for l in rendered.stdout.splitlines()[3:]]
        assert rows == ["DCT+FOS+SVM", "DWT+FOS+SVM", "FOS+SVM"]

    def test_rejects_garbage_summary(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a summary\"}")
        result = runner.invoke(cli, ["report", str(bad)])
        assert result.exit_code == 3


def _loaded(package, code) -> str:
    """The modules of package loaded once code has run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code += f"; print([m for m in sys.modules if m.split('.')[0] == {package!r}])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("package", ["scipy", "jsonschema", "multiprocessing"])
def test_importing_the_cli_does_not_load(package):
    """Importing any would add to every command's start-up: the program
    needs only numpy and click, and the tests use scipy as a reference for
    transforms and statistics and jsonschema as the reference for the config
    checks; multiprocessing is loaded by the first worker pool a command
    starts."""
    assert _loaded(package, "import sys, grainsort.cli") == "[]"


def test_importing_the_package_does_not_load_numpy():
    # so the package's BLAS thread default is set before numpy loads OpenBLAS
    assert _loaded("numpy", "import sys, grainsort") == "[]"


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("given, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
    ({"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"}),
])
def test_package_sets_one_blas_thread_unless_the_user_set_a_count(given, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    code = ("import os, grainsort, numpy; "
            f"print({{k: os.environ[k] for k in {BLAS_VARIABLES!r} if k in os.environ}})")
    result = subprocess.run([sys.executable, "-c", code], env={**env, **given},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(expected)


def test_dct_extraction_does_not_load_scipy(simulated, tmp_path):
    # the DCT is one numpy FFT, so the one chain that used scipy runs without it
    config, dataset, _ = simulated
    argv = ["extract", str(dataset), "--method", "DCT+FOS", "--config", str(config),
            "--out", str(tmp_path / "feat")]
    code = f"import sys, grainsort.cli; grainsort.cli.cli({argv!r}, standalone_mode=False)"
    assert _loaded("scipy", code) == "[]"
    assert (tmp_path / "feat" / "features_DCT_FOS.csv").exists()
