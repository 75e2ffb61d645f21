"""The worker pool: commands give the same bytes at any worker count, report
a worker's failure as the serial loop would, and leave no process behind."""

import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from grainsort import evaluation, features, parallel, radar, svm
from grainsort.cli import cli
from grainsort.dataset import load_dataset
from grainsort.errors import ConvergenceError, DataError, InvalidParameterError

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHAINS = features.METHOD_TAGS

multi_cpu = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="the pool needs two or more CPUs")

# 150 scans, three simulation jobs; two SNRs, one of them noiseless
CONFIG = {
    "seed": 4321,
    "dataset": {"per_class_counts": [50, 50, 50], "snr_db": [20.0, None]},
    "scene": {"scatterers_per_scene": 40},
    "cv": {"k": 3},
    "svm": {"max_passes": 50},
    "grid": {"C": [1.0, 10.0], "gamma": [0.05, 0.5]},
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _children(pid) -> set:
    found = subprocess.run(["pgrep", "-P", str(pid)], capture_output=True, text=True)
    return {int(p) for p in found.stdout.split()}


def _dead(pid) -> bool:
    """Gone, or a zombie that its new parent has not reaped yet."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_pmap_is_map_in_order_in_and_out_of_a_pool():
    jobs = [np.arange(i, i + 5) for i in range(7)]
    expected = [np.cumsum(j).tolist() for j in jobs]
    assert [r.tolist() for r in parallel.pmap(np.cumsum, jobs)] == expected
    with parallel.pool():
        assert [r.tolist() for r in parallel.pmap(np.cumsum, jobs)] == expected
        assert parallel.pmap(np.cumsum, []) == []


@multi_cpu
def test_pmap_runs_on_workers_that_do_not_nest_pools():
    with parallel.pool():
        pids = parallel.pmap(_pid_and_nested, range(4))
    assert all(pid != os.getpid() for pid, _ in pids)
    # a pmap inside a worker runs in that worker
    assert all(nested == [pid, pid] for pid, nested in pids)
    assert not _children(os.getpid())


def _pid_and_nested(_):
    return os.getpid(), parallel.pmap(_own_pid, range(2))


def _own_pid(_):
    return os.getpid()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    result = CliRunner().invoke(cli, ["simulate", "--config", str(config), "--out", str(root / "sim")])
    assert result.exit_code == 0, result.output
    return {"root": root, "config": config, "gsrd": root / "sim" / "dataset_snr20.gsrd"}


def _stalling_folds(monkeypatch, files, folds, stalls=lambda kernel: True):
    """svm.train_multiclass gives a ConvergenceError in these folds of the
    command _evaluate_k10 runs, for each kernel that stalls, with a model
    whose KKT violation is the fold id / 100 and a message naming the
    worker's process.  A training matrix is mapped to its fold by its bytes."""
    X, y = features.extract_matrix(load_dataset(files["gsrd"])[1], "FOS")
    split = evaluation.kfold_split(y, 10, CONFIG["seed"])
    fold_of = {X[split != fold].tobytes(): fold for fold in range(10)}
    train = svm.train_multiclass

    def fake(X, labels, kernels, **kwargs):
        fold = fold_of[X.tobytes()]
        stalled = [fold in folds and stalls(kernel) for kernel in kernels]
        trained = iter(train(X, labels, [k for k, s in zip(kernels, stalled) if not s], **kwargs))
        return [_stall(X, kernel, fold) if s else next(trained)
                for kernel, s in zip(kernels, stalled)]

    monkeypatch.setattr(svm, "train_multiclass", fake)


def _stall(X, kernel, fold):
    model = svm.BinarySVM(np.zeros((0, X.shape[1])), np.zeros(0), 0.0, kernel,
                          diagnostics=svm.SMODiagnostics(0, fold / 100, None))
    return ConvergenceError(f"stalled in process {os.getpid()}", model=model)


def _failing(exc_type):
    def fake(*args, **kwargs):
        raise exc_type(f"fault in process {os.getpid()}")
    return fake


def _evaluate_k10(files):
    config = files["root"] / "config_k10.json"
    config.write_text(json.dumps({**CONFIG, "cv": {"k": 10},
                                  "dataset": {**CONFIG["dataset"], "snr_db": [20.0]}}))
    return ["evaluate", "--config", str(config), "--method", "FOS"]


@multi_cpu
@pytest.mark.parametrize("code", [2, 3, 4])
def test_a_worker_failure_exits_with_its_code_and_leaves_no_process(files, monkeypatch, code):
    out = files["root"] / f"fail_{code}"
    if code == 4:
        _stalling_folds(monkeypatch, files, {3, 7})
        argv = _evaluate_k10(files) + ["--out", str(out)]
    else:
        monkeypatch.setattr(radar, "backscatter",
                            _failing(InvalidParameterError if code == 2 else DataError))
        argv = ["simulate", "--config", str(files["config"]), "--out", str(out)]
    before = _children(os.getpid())
    result = CliRunner().invoke(cli, argv)
    assert result.exit_code == code, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in result.output, result.output
    worker = int(errors[0].rsplit(" ", 1)[1])
    assert worker != os.getpid()  # the job failed in a worker
    assert _children(os.getpid()) <= before and worker not in _children(os.getpid())
    assert not out.exists()
    if code == 4:
        assert errors[0].startswith("error: fold 3: stalled"), errors


@multi_cpu
def test_grid_records_the_first_stalled_fold_of_a_point(files, monkeypatch):
    _stalling_folds(monkeypatch, files, {3, 7}, stalls=lambda kernel: kernel.c == 10.0)
    out = files["root"] / "grid"
    result = CliRunner().invoke(cli, _evaluate_k10(files) + ["--out", str(out), "--grid"])
    assert result.exit_code == 0, result.output
    scan = json.loads((out / "summary.json").read_text())["results"]["snr20"]["FOS"]["grid_scan"]
    assert [p["converged"] for p in scan if p["C"] == 10.0] == [False, False]
    assert [p["kkt_violation"] for p in scan if p["C"] == 10.0] == [0.03, 0.03]
    assert all("macro_acc" in p for p in scan if p["C"] == 1.0)


@pytest.mark.parametrize("pinned", [True, pytest.param(False, marks=multi_cpu)])
def test_a_non_finite_row_names_its_scan_as_a_serial_run(files, monkeypatch, request, pinned):
    """FOS rows go non-finite at scan 140, in the second 128-scan slice, and
    DWT+FOS rows at scan 10, in the first: the run names the first chain's
    scan, as extract_matrix on the whole array does."""
    if pinned:
        request.getfixturevalue("one_cpu")
    scans = load_dataset(files["gsrd"])[1]
    poison = {"FOS": scans.samples[140], "DWT+FOS": scans.samples[10]}
    chain = features._chain

    def poisoned(samples, method_tag, params):
        X = chain(samples, method_tag, params)
        if method_tag in poison:
            X[np.all(samples == poison[method_tag], axis=1)] = np.nan
        return X

    monkeypatch.setattr(features, "_chain", poisoned)
    with pytest.raises(DataError) as serial:
        features.extract_matrix(scans, "FOS")
    assert str(serial.value) == "FOS features of scan 140 are not finite"
    out = files["root"] / f"nan_{pinned}"
    result = CliRunner().invoke(cli, ["evaluate", "--config", str(files["config"]), "--out",
                                      str(out), "--method", "FOS", "--method", "DWT+FOS"])
    assert result.exit_code == 3, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {serial.value}"]
    assert not out.exists()


@multi_cpu
def test_extract_train_predict_report_and_help_start_no_pool(files, monkeypatch):
    root = files["root"] / "serial"
    gsrd, config = str(files["gsrd"]), str(files["config"])
    evaluated = CliRunner().invoke(cli, ["evaluate", "--config", config,
                                         "--out", str(root / "ev"), "--method", "FOS"])
    assert evaluated.exit_code == 0, evaluated.output

    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for argv in (["--help"],
                 ["extract", gsrd, "--method", "STFT+GLCM", "--config", config,
                  "--out", str(root / "x")],
                 ["train", gsrd, "--method", "FOS", "--config", config, "--out", str(root / "m")],
                 ["predict", str(root / "m" / "model.json"), gsrd],
                 ["report", str(root / "ev" / "summary.json")]):
        result = CliRunner().invoke(cli, argv)
        assert result.exit_code == 0, (argv, result.output, result.exception)


def _commands(root, config, stall_config):
    sim = root / "sim"
    commands = [["simulate", "--config", str(config), "--out", str(sim)]]
    commands += [["extract", str(sim / "dataset_snr20.gsrd"), "--method", chain,
                  "--config", str(config), "--out", str(root / "extract")] for chain in CHAINS]
    commands += [["evaluate", "--config", str(config), "--out", str(root / "evaluate")],
                 ["evaluate", "--config", str(config), "--out", str(root / "grid"),
                  "--grid", "--method", "STFT+GLCM"],
                 ["evaluate", "--config", str(stall_config), "--out", str(root / "stall"),
                  "--grid", "--method", "FOS"]]
    return commands


@multi_cpu
def test_same_bytes_on_one_cpu_and_on_all(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    # C = 1000 runs out of updates in some folds, so ConvergenceError values
    # cross the pipe and their KKT violations reach the summary
    stall_config = tmp_path / "stall.json"
    stall_config.write_text(json.dumps({**CONFIG, "grid": {"C": [1.0, 1000.0],
                                                           "gamma": [0.05, 0.5]}}))
    one_cpu = min(os.sched_getaffinity(0))
    runs = {}
    for side, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})), ("all", None)):
        root = tmp_path / side
        for i, argv in enumerate(_commands(root, config, stall_config)):
            proc = subprocess.run([sys.executable, "-m", "grainsort.cli", *argv], env=_env(),
                                  capture_output=True, preexec_fn=pin, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs[side, i] = (proc.stdout.replace(str(root).encode(), b"ROOT"), proc.stderr)
        (root / "streams").write_bytes(repr(sorted(
            (i, out) for (s, i), out in runs.items() if s == side)).encode())
    names = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*")
                   if p.is_file())
    # two GSRD files and a manifest, a CSV per chain, four reports and a
    # summary per evaluation, and the commands' output streams
    assert len(names) == 3 + len(CHAINS) + 3 * 5 + 1
    assert '"converged": false' in (tmp_path / "all" / "stall" / "summary.json").read_text()
    assert names == sorted(p.relative_to(tmp_path / "all") for p in (tmp_path / "all").rglob("*")
                           if p.is_file())
    for name in names:
        same = subprocess.run(["cmp", str(tmp_path / "one" / name), str(tmp_path / "all" / name)])
        assert same.returncode == 0, name


@multi_cpu
def test_workers_die_with_a_killed_command(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "dataset": {"per_class_counts": [200] * 3,
                                                        "snr_db": [20.0]}, "cv": {"k": 10}}))
    proc = subprocess.Popen([sys.executable, "-m", "grainsort.cli", "evaluate", "--config",
                             str(config), "--out", str(tmp_path / "out")], env=_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(workers := _children(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no workers started"
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    deadline = time.monotonic() + 2
    while not all(map(_dead, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    alive = [pid for pid in workers if not _dead(pid)]
    for pid in alive:  # the orphans of a failing run
        os.kill(pid, signal.SIGKILL)
    assert not alive


@multi_cpu
def test_a_dead_worker_exits_1_with_one_error_line(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "dataset": {"per_class_counts": [200] * 3,
                                                        "snr_db": [20.0]}, "cv": {"k": 10}}))
    out = tmp_path / "out"
    proc = subprocess.Popen([sys.executable, "-m", "grainsort.cli", "evaluate", "--config",
                             str(config), "--out", str(out)], env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while len(workers := _children(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no workers started"
            time.sleep(0.01)
        os.kill(min(workers), signal.SIGKILL)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert proc.returncode == 1, stderr
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: a worker process died"), stderr
    assert "Traceback" not in stdout + stderr
    assert not out.exists()
    alive = [pid for pid in workers if not _dead(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive
