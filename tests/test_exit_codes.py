"""Every malformed input ends in a documented exit code (0/2/3/4) with one
``error:`` line, never in a traceback with exit 1."""

import json
import struct
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grainsort import config as cfgmod
from grainsort import dataset as ds
from grainsort.cli import cli
from grainsort.errors import DataError
from grainsort.features import METHOD_TAGS
from grainsort.radar import MAX_N_FREQ, RadarParams
from oracles import CONFIG_SCHEMA

DOCUMENTED = {0, 2, 3, 4}
HEADER = ds._HEADER.size
# a record's label, seed and SNR: the bytes before its samples
RECORD_FIXED = RadarParams().scan_dtype.fields["samples"][1]
NAN_SAMPLE_PART = bytes.fromhex("000000000000f87f")
# a JSON integer literal longer than Python's integer string-conversion limit
HUGE_INTEGER = "1" + "0" * 5000
# a sample with finite parts whose modulus, and so any STFT built on it, is inf
OVERFLOWING_SAMPLE = struct.pack("<dd", 1.7e308, 1.7e308)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def files(runner, tmp_path_factory):
    """Paths to a 12-scan/class dataset, a FOS model trained on it, an evaluation
    summary and a 6-scan/class dataset simulated from TINY_CONFIG.

    It holds paths and sizes only, because hypothesis prints it in every
    falsifying example; tests read the files they need.
    """
    root = tmp_path_factory.mktemp("exit_codes")
    config = root / "config.json"
    tiny_config = root / "tiny_config.json"
    tiny_config.write_text(json.dumps(TINY_CONFIG))
    config.write_text(json.dumps({
        "seed": 1234,
        "dataset": {"per_class_counts": [12, 12, 12], "snr_db": [20.0]},
        "scene": {"scatterers_per_scene": 40},
        "cv": {"k": 3},
        "svm": {"max_passes": 50},
    }))
    out = root / "run"
    for argv in (
        ["simulate", "--config", str(config), "--out", str(out)],
        ["train", str(out / "dataset_snr20.gsrd"), "--method", "FOS",
         "--config", str(config), "--out", str(out)],
        ["evaluate", "--config", str(config), "--out", str(out),
         "--method", "FOS", "--echo-classifier"],
        ["simulate", "--config", str(tiny_config), "--out", str(root / "tiny")],
    ):
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0, result.output
    gsrd = out / "dataset_snr20.gsrd"
    params, scans = ds.load_dataset(gsrd)
    return {
        "root": root,
        "run": out,
        "config": config,
        "gsrd": gsrd,
        "tiny_gsrd": root / "tiny" / "dataset_snr20.gsrd",
        "size": gsrd.stat().st_size,
        "n_records": len(scans),
        "record_size": params.scan_dtype.itemsize,
    }


def _model(files):
    return json.loads((files["run"] / "model.json").read_text())


def _assert_data_error(result):
    assert result.exit_code == 3, result.output
    assert len([l for l in result.output.splitlines() if l.startswith("error:")]) == 1, (
        result.output
    )
    assert "Traceback" not in result.output


def _extract(runner, files, blob, method="FOS"):
    path = files["root"] / "mutated.gsrd"
    path.write_bytes(blob)
    return runner.invoke(
        cli, ["extract", str(path), "--method", method,
              "--config", str(files["config"]), "--out", str(files["root"] / "feat")]
    )


def _predict(runner, files, text):
    path = files["root"] / "mutated_model.json"
    path.write_text(text)
    return runner.invoke(cli, ["predict", str(path), str(files["gsrd"])])


def _report(runner, files, summary):
    path = files["root"] / "mutated_summary.json"
    path.write_text(json.dumps(summary))
    return runner.invoke(cli, ["report", str(path)])


class TestDataFaultsExit3:
    def test_unknown_label_byte(self, runner, files):
        blob = bytearray(files["gsrd"].read_bytes())
        blob[HEADER] = 7
        result = _extract(runner, files, bytes(blob))
        _assert_data_error(result)
        assert f"byte offset {HEADER}" in result.output

    def test_nan_sample(self, runner, files):
        blob = bytearray(files["gsrd"].read_bytes())
        record = HEADER + files["record_size"]  # second record
        blob[record + RECORD_FIXED : record + RECORD_FIXED + 8] = NAN_SAMPLE_PART
        result = _extract(runner, files, bytes(blob))
        _assert_data_error(result)
        assert f"byte offset {record}" in result.output

    @pytest.mark.parametrize("nan_at, label_at, fault", [
        (1, 3, "non-finite sample"), (3, 1, "unknown label 7"), (2, 2, "unknown label 7"),
    ])
    def test_first_faulty_record_and_its_label_first(self, runner, files, nan_at, label_at,
                                                     fault):
        # the record nearest the header is named; in one record, its label
        blob = bytearray(files["gsrd"].read_bytes())
        size = files["record_size"]
        sample = HEADER + nan_at * size + RECORD_FIXED
        blob[sample : sample + 8] = NAN_SAMPLE_PART
        blob[HEADER + label_at * size] = 7
        first = HEADER + min(nan_at, label_at) * size
        result = _extract(runner, files, bytes(blob))
        _assert_one_error(result, 3, f"{fault} in the record at byte offset {first}")

    def test_zero_record_dataset(self, runner, files):
        blob = bytearray(files["gsrd"].read_bytes()[:HEADER])
        blob[10:18] = bytes(8)  # record count
        _assert_data_error(_extract(runner, files, bytes(blob)))

    @pytest.mark.parametrize("n_freq, count, needle", [
        (MAX_N_FREQ + 1, 0, "byte offset 6"),
        (2**32 - 1, 0, "byte offset 6"),
        (MAX_N_FREQ, 0, "no A-scans"),
        (MAX_N_FREQ, 1, f"expected {HEADER + 17 + 16 * MAX_N_FREQ} bytes"),
    ])
    def test_header_at_the_n_freq_bound(self, runner, files, n_freq, count, needle):
        # a sweep longer than a record dtype holds is refused before any
        # dtype is built; at the bound, the dtype is built and nothing allocated
        blob = bytearray(files["gsrd"].read_bytes()[:HEADER])
        blob[6:10] = n_freq.to_bytes(4, "little")
        blob[10:18] = count.to_bytes(8, "little")
        _assert_one_error(_extract(runner, files, bytes(blob)), 3, needle)

    def test_model_not_json(self, runner, files):
        _assert_data_error(_predict(runner, files, "{nope"))

    def test_model_with_huge_integer(self, runner, files):
        text = json.dumps(dict(_model(files), seed="HUGE")).replace('"HUGE"', HUGE_INTEGER)
        _assert_data_error(_predict(runner, files, text))

    def test_model_without_scaler(self, runner, files):
        doc = _model(files)
        del doc["scaler"]
        _assert_data_error(_predict(runner, files, json.dumps(doc)))

    def test_model_feature_params_extra_key(self, runner, files):
        doc = _model(files)
        doc["feature_params"] = dict(doc["feature_params"], extra=1)
        _assert_data_error(_predict(runner, files, json.dumps(doc)))

    @pytest.mark.parametrize("pairs", [[], [0, 1], [0, 1, 0], [0, 1, 2, 2]],
                             ids=["none", "missing", "repeated", "extra"])
    def test_model_without_one_machine_per_class_pair(self, runner, files, pairs):
        """Machines given by index into the trained model's pairs (0-1, 0-2,
        1-2): none, one missing, one repeated in place of another, one extra."""
        doc = _model(files)
        doc["pairwise"] = [doc["pairwise"][i] for i in pairs]
        result = _predict(runner, files, json.dumps(doc))
        _assert_data_error(result)
        assert "one per class pair" in result.output

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_model_scaler_std_not_positive(self, runner, files, std):
        doc = _model(files)
        doc["scaler"]["std"][-1] = std
        result = _predict(runner, files, json.dumps(doc))
        _assert_data_error(result)
        assert "std must be positive" in result.output

    def test_model_whose_decision_values_are_not_finite(self, runner, files):
        doc = _model(files)
        doc["pairwise"][0]["support_vectors"][0] = [1e308] * len(doc["scaler"]["mean"])
        result = _predict(runner, files, json.dumps(doc))
        _assert_data_error(result)
        assert "row 0: decision value is not finite" in result.output
        assert "Warning" not in result.output

    def test_model_unknown_method_tag(self, runner, files):
        doc = dict(_model(files), method_tag="NOPE")
        _assert_data_error(_predict(runner, files, json.dumps(doc)))

    def test_summary_std_missing_a_metric(self, runner, files):
        summary = json.loads((files["run"] / "summary.json").read_text())
        del summary["results"]["snr20"]["FOS"]["std"]["MCC"]
        result = _report(runner, files, summary)
        _assert_data_error(result)
        assert "MCC" in result.output

    @pytest.mark.parametrize("method", ["STFT+GLCM", "STFT+GLRLM"])
    def test_sample_whose_magnitude_overflows(self, runner, files, method):
        blob = bytearray(files["gsrd"].read_bytes())
        record = HEADER + files["record_size"]  # second record
        sample = record + RECORD_FIXED
        blob[sample : sample + 16] = OVERFLOWING_SAMPLE
        _assert_data_error(_extract(runner, files, bytes(blob), method))

    def test_missing_input_files(self, runner, files):
        missing = str(files["root"] / "missing")
        out = files["root"] / "missing_out"
        _assert_data_error(runner.invoke(
            cli, ["extract", missing, "--method", "FOS", "--config", str(files["config"]),
                  "--out", str(out)]
        ))
        assert not out.exists()
        _assert_data_error(runner.invoke(cli, ["predict", missing, str(files["gsrd"])]))


# feature parameters of the right type but an unusable value: the chain they
# break, the config "features" section, the model "feature_params" and a word
# the error line must hold
UNUSABLE_FEATURE_PARAMS = {
    "unknown_wavelet": (
        "DWT+FOS", {"dwt": {"wavelet": "xyz"}}, {"dwt_wavelet": "xyz"}, "xyz",
    ),
    "window_above_sweep": (
        "STFT+GLCM", {"stft": {"window_len": 400, "fft_len": 512}},
        {"stft_window_len": 400, "stft_fft_len": 512}, "301-point",
    ),
    "fft_below_window": (
        "STFT+GLCM", {"stft": {"window_len": 64, "fft_len": 32}},
        {"stft_window_len": 64, "stft_fft_len": 32}, "fft_len 32",
    ),
    # values above the 256 cap that allocate nothing large when rejected
    "gray_levels_257": ("STFT+GLCM", {"gray_levels": 257}, {"gray_levels": 257}, "gray_levels"),
    "gray_levels_2_40": (
        "STFT+GLCM", {"gray_levels": 2**40}, {"gray_levels": 2**40}, "gray_levels",
    ),
}


def _assert_one_error(result, code, needle):
    assert result.exit_code == code, result.output
    errors = [l for l in result.output.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and needle in errors[0], result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("case", sorted(UNUSABLE_FEATURE_PARAMS))
def test_unusable_feature_params_in_config_exit_2(runner, files, case):
    method, section, _, needle = UNUSABLE_FEATURE_PARAMS[case]
    config = files["root"] / f"config_{case}.json"
    doc = json.loads(files["config"].read_text())
    config.write_text(json.dumps(dict(doc, features=section)))
    result = runner.invoke(
        cli, ["extract", str(files["gsrd"]), "--method", method,
              "--config", str(config), "--out", str(files["root"] / "feat")]
    )
    _assert_one_error(result, 2, needle)


@pytest.mark.parametrize("case", sorted(UNUSABLE_FEATURE_PARAMS))
def test_unusable_feature_params_in_model_exit_3(runner, files, case):
    method, _, params, needle = UNUSABLE_FEATURE_PARAMS[case]
    doc = dict(_model(files), method_tag=method)
    doc["feature_params"] = dict(doc["feature_params"], **params)
    _assert_one_error(_predict(runner, files, json.dumps(doc)), 3, needle)


def _unreadable(root, kind):
    """A path that exists but cannot be read as text: a directory or non-UTF-8 bytes."""
    path = root / f"unreadable_{kind}"
    if kind == "directory":
        path.mkdir(exist_ok=True)
    else:
        path.write_bytes(b'{"seed": 1, "out_dir": "\xff"}')
    return path


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_2(runner, files, kind):
    config = _unreadable(files["root"], kind)
    result = runner.invoke(cli, ["simulate", "--config", str(config)])
    _assert_one_error(result, 2, "cannot read config file")


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_summary_exits_3(runner, files, kind):
    summary = _unreadable(files["root"], kind)
    _assert_one_error(runner.invoke(cli, ["report", str(summary)]), 3, "summary")


@pytest.mark.parametrize(
    "command", ["simulate", "extract", "train", "predict", "evaluate", "report"]
)
def test_out_under_a_regular_file_exits_2(runner, files, command):
    blocker = files["root"] / "blocker"
    blocker.write_text("a file, not a directory\n")
    config, gsrd, run = str(files["config"]), str(files["gsrd"]), files["run"]
    argv = {
        "simulate": ["simulate", "--config", config],
        "extract": ["extract", gsrd, "--method", "FOS", "--config", config],
        "train": ["train", gsrd, "--method", "FOS", "--config", config],
        "predict": ["predict", str(run / "model.json"), gsrd],
        "evaluate": ["evaluate", "--config", config, "--method", "FOS"],
        "report": ["report", str(run / "summary.json")],
    }[command]
    result = runner.invoke(cli, argv + ["--out", str(blocker / "out")])
    _assert_one_error(result, 2, "output directory")
    # the directory is made before any result is printed: no result line
    # precedes the error
    assert result.output.splitlines()[0].startswith("error:"), result.output


def test_k_above_a_class_count_exits_2_before_simulating(runner, files):
    config = files["root"] / "config_k_above_count.json"
    doc = json.loads(files["config"].read_text())
    doc["dataset"]["per_class_counts"] = [3, 4, 3]
    doc["cv"]["k"] = 4
    config.write_text(json.dumps(doc))
    out = files["root"] / "k_above_count"
    result = runner.invoke(cli, ["evaluate", "--config", str(config), "--out", str(out)])
    _assert_one_error(result, 2, "cv.k=4")
    assert not out.exists()


def test_sweep_too_short_for_a_chain_exits_2_before_simulating(runner, files):
    config = files["root"] / "config_short_sweep.json"
    doc = json.loads(files["config"].read_text())
    doc["radar"] = {"n_freq": 40, "f_start_hz": 18e9, "f_stop_hz": 20e9}
    doc["dataset"]["per_class_counts"] = [4, 4, 4]
    doc["cv"]["k"] = 2
    config.write_text(json.dumps(doc))
    out = files["root"] / "short_sweep"
    result = runner.invoke(cli, ["evaluate", "--config", str(config), "--out", str(out),
                                 "--method", "STFT+GLCM"])
    _assert_one_error(result, 2, "40-point sweep")
    assert not out.exists()
    # a chain that fits the sweep runs on the same config
    result = runner.invoke(cli, ["evaluate", "--config", str(config), "--out", str(out),
                                 "--method", "DWT+FOS"])
    assert result.exit_code == 0, result.output


def test_sweep_too_coarse_for_the_scene_exits_2(runner, files):
    # 18-40 GHz in n_freq points leaves a window of n_freq * 6.8 mm: 0.27 or
    # 0.44 m, nearer than the 0.58 m mean surface of the fullest default fill,
    # or 0.68 m, beyond that but short of the 0.86 m mean surface of the
    # emptiest, which every scan at a low enough fill would reach
    config = files["root"] / "config_coarse_sweep.json"
    out = files["root"] / "coarse"
    for n_freq in (40, 64, 100):
        config.write_text(json.dumps(dict(json.loads(files["config"].read_text()),
                                          radar={"n_freq": n_freq})))
        for command in (["simulate"], ["evaluate", "--method", "FOS"]):
            result = runner.invoke(cli, command + ["--config", str(config), "--out", str(out)])
            _assert_one_error(result, 2, "unambiguous range")
            assert "$['radar']" in result.output
            assert not out.exists()


@pytest.mark.parametrize("key, value", [("fill_fraction", 0.5), ("cone_height_m", 0.16),
                                        ("wall_clutter", True)])
def test_removed_scene_key_exits_2(runner, files, key, value):
    # each scan draws its fill and cone height from the dataset ranges, and
    # wall_clutter_scatterers 0 leaves out the clutter rings
    config = files["root"] / "config_removed_key.json"
    doc = json.loads(files["config"].read_text())
    doc["scene"][key] = value
    config.write_text(json.dumps(doc))
    out = files["root"] / "removed_key"
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
    _assert_one_error(result, 2, f"unknown key {key!r}")
    assert not out.exists()


@pytest.fixture(scope="module")
def short_gsrd(runner, files):
    """A 4-scan/class dataset of 40-point sweeps on 18-20 GHz: too short for
    the STFT chains, and not the sweep of the FOS model."""
    config = files["root"] / "config_short_gsrd.json"
    doc = json.loads(files["config"].read_text())
    doc["radar"] = {"n_freq": 40, "f_start_hz": 18e9, "f_stop_hz": 20e9}
    doc["dataset"]["per_class_counts"] = [4, 4, 4]
    config.write_text(json.dumps(doc))
    out = files["root"] / "short_gsrd"
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out / "dataset_snr20.gsrd"


@pytest.fixture(scope="module")
def overflowing_gsrd(files):
    """The 12-scan/class dataset with one sample whose modulus overflows: a
    fault only extraction finds."""
    blob = bytearray(files["gsrd"].read_bytes())
    sample = HEADER + files["record_size"] + RECORD_FIXED  # second record
    blob[sample : sample + 16] = OVERFLOWING_SAMPLE
    path = files["root"] / "overflowing.gsrd"
    path.write_bytes(bytes(blob))
    return path


@pytest.fixture(scope="module")
def stalling_config(files):
    """The 12-scan/class config with an SMO budget too small to converge: a
    fault only training finds."""
    doc = json.loads(files["config"].read_text())
    doc["svm"] = {"max_passes": 1, "tol": 1e-12}
    path = files["root"] / "config_stalling.json"
    path.write_text(json.dumps(doc))
    return path


NO_OUTPUT_CASES = ["extract", "train", "predict_missing_model", "predict_other_sweep", "report",
                   "extract_overflow_stft", "extract_overflow_fos", "train_overflow",
                   "predict_overflow", "train_stalls", "evaluate_stalls"]


@pytest.mark.parametrize("case", NO_OUTPUT_CASES)
def test_unusable_input_makes_no_output_directory(runner, files, short_gsrd, overflowing_gsrd,
                                                  stalling_config, case):
    # a fault found before, or only during, the work leaves no --out behind
    config, model = str(files["config"]), str(files["run"] / "model.json")
    gsrd, overflowing, stalling = str(files["gsrd"]), str(overflowing_gsrd), str(stalling_config)
    argv, code, needle = {
        "extract": (["extract", str(short_gsrd), "--method", "STFT+GLCM", "--config", config],
                    2, "40-point sweep"),
        "train": (["train", str(short_gsrd), "--method", "STFT+GLRLM", "--config", config],
                  2, "40-point sweep"),
        "predict_missing_model": (
            ["predict", str(files["root"] / "missing_model.json"), gsrd],
            3, "cannot read model"),
        "predict_other_sweep": (["predict", model, str(short_gsrd)], 3, "40-point sweeps"),
        "report": (["report", str(files["root"] / "missing_summary.json")], 3, "summary"),
        "extract_overflow_stft": (
            ["extract", overflowing, "--method", "STFT+GLCM", "--config", config],
            3, "not finite"),
        "extract_overflow_fos": (["extract", overflowing, "--method", "FOS", "--config", config],
                                 3, "not finite"),
        "train_overflow": (["train", overflowing, "--method", "STFT+GLRLM", "--config", config],
                           3, "not finite"),
        "predict_overflow": (["predict", model, overflowing], 3, "not finite"),
        "train_stalls": (["train", gsrd, "--method", "FOS", "--config", stalling],
                         4, "SMO exhausted"),
        "evaluate_stalls": (["evaluate", "--method", "FOS", "--config", stalling],
                            4, "SMO exhausted"),
    }[case]
    out = files["root"] / f"no_out_{case}"
    result = runner.invoke(cli, argv + ["--out", str(out)])
    _assert_one_error(result, code, needle)
    assert not out.exists()


@pytest.mark.parametrize("snr", ["inf", "nan", "-inf"])
def test_non_finite_snr_override_exits_2_before_simulating(runner, files, snr):
    out = files["root"] / f"snr_{snr}"
    result = runner.invoke(cli, ["simulate", "--config", str(files["config"]),
                                 "--out", str(out), f"--snr={snr}"])
    _assert_one_error(result, 2, "snr_db")
    assert not out.exists()


@pytest.mark.parametrize("snr", ["-4000", "-3070"])
def test_snr_too_low_for_a_float_noise_power_exits_2(runner, files, snr):
    # 10 ** 400 overflows, which the config check refuses before any work;
    # 10 ** 307 is finite, but times the signal power it is infinite
    out = files["root"] / f"snr_{snr}"
    result = runner.invoke(cli, ["simulate", "--config", str(files["config"]),
                                 "--out", str(out), f"--snr={snr}"])
    _assert_one_error(result, 2, "snr_db")
    assert not out.exists()


def test_a_later_snr_that_fails_leaves_no_output_and_no_stage(runner, files):
    # the first SNR's file is written before the second SNR's noise power
    # overflows; nothing of the run may be left, neither --out (in a directory
    # the run has to make) nor a stage directory
    config = files["root"] / "config_later_snr_fails.json"
    config.write_text(json.dumps(dict(json.loads(files["config"].read_text()), dataset={
        "per_class_counts": [2, 2, 2], "snr_db": [20.0, -3070.0]})))
    before = set(files["root"].iterdir())
    out = files["root"] / "later_snr_fails" / "out"
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
    _assert_one_error(result, 2, "snr_db=-3070")
    assert "wrote" not in result.output
    assert set(files["root"].iterdir()) == before
    # into an existing --out, the stage sits inside it and leaves with the run
    out.mkdir(parents=True)
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
    _assert_one_error(result, 2, "snr_db=-3070")
    assert list(out.iterdir()) == []


WRITE_FAULT_COMMANDS = ["simulate", "extract", "train", "predict", "evaluate", "report"]


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", WRITE_FAULT_COMMANDS)
def test_a_fault_at_the_write_step_leaves_no_output_and_no_stage(runner, files, monkeypatch,
                                                                 command, existing):
    # every command writes its files through Path.write_text; a fault there
    # leaves neither a new --out nor a stage directory, and an existing --out
    # as it was
    config, gsrd = str(files["config"]), str(files["gsrd"])
    argv = {
        "simulate": ["simulate", "--config", config],
        "extract": ["extract", gsrd, "--method", "FOS", "--config", config],
        "train": ["train", gsrd, "--method", "FOS", "--config", config],
        "predict": ["predict", str(files["run"] / "model.json"), gsrd],
        "evaluate": ["evaluate", "--method", "FOS", "--echo-classifier", "--config", config],
        "report": ["report", str(files["run"] / "summary.json")],
    }[command]
    home = files["root"] / f"write_fault_{command}_{existing}"
    out = home / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept")
    before = set(files["root"].iterdir())

    def fault(self, *args, **kwargs):
        raise DataError(f"injected fault writing {self.name}")

    monkeypatch.setattr(Path, "write_text", fault)
    result = runner.invoke(cli, argv + ["--out", str(out)])
    monkeypatch.undo()
    _assert_one_error(result, 3, "injected fault writing")
    assert "wrote" not in result.output
    assert set(files["root"].iterdir()) == before
    if existing:
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "kept"
    else:
        assert not home.exists()


def test_n_freq_above_the_record_bound_exits_2(runner, files):
    config = files["root"] / "config_n_freq_bound.json"
    config.write_text(json.dumps(dict(json.loads(files["config"].read_text()),
                                      radar={"n_freq": MAX_N_FREQ + 1})))
    out = files["root"] / "n_freq_bound"
    for command in (["simulate"], ["evaluate", "--method", "FOS"]):
        result = runner.invoke(cli, command + ["--config", str(config), "--out", str(out)])
        _assert_one_error(result, 2, f"$['radar']: need 2 <= n_freq <= {MAX_N_FREQ}")
        assert not out.exists()


def test_huge_integer_in_config_exits_2(runner, files):
    config = files["root"] / "config_huge_integer.json"
    config.write_text(f'{{"seed": {HUGE_INTEGER}}}')
    out = files["root"] / "huge_integer"
    result = runner.invoke(cli, ["simulate", "--config", str(config), "--out", str(out)])
    _assert_one_error(result, 2, "not valid JSON")
    assert not out.exists()


# one malformed value per key, each caught before any work starts: an
# integer-valued float at an integer key, NaN or Infinity (which Python's json
# module reads) at a number key, an integer too large for a float, a range
# whose low end is above its high end, a fill range reaching a full silo, or an
# SNR whose noise power overflows a float
MALFORMED_CONFIG_VALUES = [
    (("seed",), 1234.0),
    (("radar", "n_freq"), 301.0),
    (("scene", "scatterers_per_scene"), 40.0),
    (("scene", "wall_clutter_scatterers"), 24.0),
    (("dataset", "per_class_counts", 0), 12.0),
    (("features", "gray_levels"), 16.0),
    (("features", "stft", "window_len"), 64.0),
    (("features", "stft", "hop"), 32.0),
    (("features", "stft", "fft_len"), 64.0),
    (("features", "dwt", "levels"), 4.0),
    (("svm", "max_passes"), 50.0),
    (("cv", "k"), 3.0),
    (("kernel", "C"), float("nan")),
    (("svm", "tol"), float("nan")),
    (("kernel", "gamma"), float("inf")),
    (("radar", "f_stop_hz"), float("inf")),
    (("dataset", "snr_db", 0), float("nan")),
    (("dataset", "snr_db", 0), -4000.0),
    (("dataset", "fill_fraction_range", 0), float("nan")),
    (("scene", "diameter_m"), float("inf")),
    (("scene", "gain_jitter_db"), float("nan")),
    (("scene", "gain_jitter_db"), 1e308),  # 10 ** (1e308 / 20) is no float
    (("kernel", "C"), 10**400),  # an integer no float holds
    (("dataset", "fill_fraction_range"), [0.7, 0.2]),
    (("dataset", "cone_height_range"), [0.3, 0.1]),
    (("dataset", "cone_height_range"), [5.0, 6.0]),  # the surface reaches the antenna
    (("dataset", "fill_fraction_range"), [0.5, 1.5]),
    (("dataset", "fill_fraction_range"), [0.5, 1.0]),
    # the minima that DatasetSpec and SolverSpec hold
    (("seed",), -1),
    (("svm", "max_passes"), 0),
    (("svm", "tol"), 0.0),
    (("cv", "k"), 1),
    (("dataset", "per_class_counts", 1), 0),
]


# the values that a parameter object rejects: the error names its section
SECTION_NAMED = [(("scene", "gain_jitter_db"), 1e308)]


def _case_id(path, value):
    shown = f"10**{len(str(value)) - 1}" if isinstance(value, int) else value
    return ".".join(map(str, path)) + f"={shown}"


@pytest.mark.parametrize("path, value", MALFORMED_CONFIG_VALUES,
                         ids=[_case_id(*case) for case in MALFORMED_CONFIG_VALUES])
def test_malformed_config_value_exits_2_at_load(runner, files, path, value):
    doc = cfgmod.load_config(files["config"])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    config = files["root"] / "config_malformed_value.json"
    config.write_text(json.dumps(doc))
    out = files["root"] / "malformed_value"
    result = runner.invoke(cli, ["evaluate", "--config", str(config), "--out", str(out),
                                 "--method", "FOS"])
    named = path[:1] if (path, value) in SECTION_NAMED else path
    _assert_one_error(result, 2, "$" + "".join(f"[{k!r}]" for k in named))
    assert not out.exists()


def _assert_exits(result, codes=DOCUMENTED):
    assert result.exit_code in codes, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert "Traceback" not in result.output


@st.composite
def gsrd_mutations(draw, files):
    """("truncate", length) or bytes to overwrite, (offset, data), in the
    dataset at files["gsrd"]: one byte, or a whole sample whose modulus
    overflows.  A few numbers, not the file, so a falsifying example prints
    short."""
    kind = draw(st.sampled_from(["truncate", "header", "label", "sample", "overflow"]))
    if kind == "truncate":
        return ("truncate", draw(st.integers(0, files["size"] - 1)))
    if kind == "header":
        return (draw(st.integers(0, HEADER - 1)), bytes([draw(st.integers(0, 255))]))
    record = HEADER + draw(st.integers(0, files["n_records"] - 1)) * files["record_size"]
    if kind == "overflow":
        n_freq = (files["record_size"] - RECORD_FIXED) // 16
        return (record + RECORD_FIXED + 16 * draw(st.integers(0, n_freq - 1)),
                OVERFLOWING_SAMPLE)
    if kind == "label":
        offset = record
    else:
        offset = record + draw(st.integers(RECORD_FIXED, files["record_size"] - 1))
    return (offset, bytes([draw(st.integers(0, 255))]))


def _mutate(blob, mutation):
    if mutation[0] == "truncate":
        return blob[: mutation[1]]
    offset, data = mutation
    mutated = bytearray(blob)
    mutated[offset : offset + len(data)] = data
    return bytes(mutated)


def _key_paths(node, prefix=()):
    """Every dict key, and the first element of every list, as a path into the document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node:
        items = [(0, node[0])]
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths += _key_paths(child, prefix + (key,))
    return paths


OTHER_TYPES = st.sampled_from([None, True, "x", -1.5, 0, 7, [], {}, [1.0], {"a": 1}])


@st.composite
def model_mutations(draw, paths):
    """("drop", path) or ("set", path, value) for one of the key paths into
    the model document: a few values, not the document, so a falsifying
    example prints short."""
    path = draw(st.sampled_from(paths))
    if draw(st.booleans()):
        return ("drop", path)
    return ("set", path, draw(OTHER_TYPES))


def _mutate_model(model, mutation):
    doc = json.loads(json.dumps(model))
    path = mutation[1]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation[0] == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation[2]
    return json.dumps(doc)


FAST = settings(
    derandomize=True, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestMutatedInputs:
    @FAST
    @given(data=st.data())
    def test_mutated_dataset_exits_documented(self, runner, files, data):
        # every chain, so that an overflowing sample reaches the STFT chains'
        # check whichever examples the search draws
        blob = _mutate(files["gsrd"].read_bytes(), data.draw(gsrd_mutations(files)))
        for method in METHOD_TAGS:
            _assert_exits(_extract(runner, files, blob, method))

    @FAST
    @given(data=st.data())
    def test_mutated_model_exits_documented(self, runner, files, data):
        model = _model(files)
        mutation = data.draw(model_mutations(_key_paths(model)))
        _assert_exits(_predict(runner, files, _mutate_model(model, mutation)))


TINY_CONFIG = {
    "seed": 7,
    "radar": {"n_freq": 301},
    "scene": {"scatterers_per_scene": 20},
    "dataset": {"per_class_counts": [6, 6, 6], "snr_db": [20.0]},
    "features": {
        "gray_levels": 8,
        "stft": {"window_len": 16, "hop": 8, "fft_len": 16},
        "dwt": {"wavelet": "db4", "levels": 2},
    },
    "methods": ["FOS", "DWT+FOS"],
    "kernel": {"kind": "rbf", "C": 1.0, "gamma": "scale"},
    "svm": {"tol": 1e-3, "max_passes": 50},
    "cv": {"k": 3},
}
# dropping these would fall back to the paper's 5,681 scans
KEEP = {("dataset",), ("dataset", "per_class_counts")}


def _out_of_range(path):
    """Values just outside the schema's bounds for the key at ``path``."""
    node = CONFIG_SCHEMA
    for key in path:
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    bounds = {"minimum": -1, "exclusiveMinimum": 0, "maximum": 1, "exclusiveMaximum": 0}
    return [node[name] + shift for name, shift in bounds.items() if name in node]


@st.composite
def config_mutations(draw, paths):
    """TINY_CONFIG with the key at one of ``paths`` dropped, retyped or put out of range."""
    doc = json.loads(json.dumps(TINY_CONFIG))
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    actions = ["retype"] + (["drop"] if path not in KEEP else [])
    actions += ["out_of_range"] if _out_of_range(path) else []
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del parent[path[-1]]
    elif action == "retype":
        parent[path[-1]] = draw(OTHER_TYPES)
    else:
        parent[path[-1]] = draw(st.sampled_from(_out_of_range(path)))
    return doc


@FAST
@given(doc=config_mutations(_key_paths(TINY_CONFIG)))
def test_mutated_config_exits_0_or_2(runner, files, doc):
    config = files["root"] / "mutated_config.json"
    config.write_text(json.dumps(doc))
    result = runner.invoke(cli, ["evaluate", "--config", str(config), "--echo-classifier",
                                 "--out", str(files["root"] / "fuzz")])
    _assert_exits(result, {0, 2})


# evaluate --echo-classifier only schema-checks these; train runs SMO on them
SOLVER_KEYS = [path for path in _key_paths(TINY_CONFIG) if path[0] in ("kernel", "svm")]


@FAST
@given(doc=config_mutations(SOLVER_KEYS))
def test_mutated_solver_keys_exit_0_2_or_4(runner, files, doc):
    config = files["root"] / "mutated_solver_config.json"
    config.write_text(json.dumps(doc))
    result = runner.invoke(cli, ["train", str(files["tiny_gsrd"]), "--method", "FOS",
                                 "--config", str(config), "--out", str(files["root"] / "solver")])
    _assert_exits(result, {0, 2, 4})
