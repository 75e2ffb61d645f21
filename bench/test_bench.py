"""Tests of the benchmark itself: its checks catch corrupt outputs, and the
quick mode runs every workload end to end.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
import workloads

LAYERS = ("radar", "dataset", "transforms", "features", "svm", "evaluation", "cli")


def _run_round(workload, round_dir, corrupt=None):
    """Run one quick round, letting corrupt(command) damage outputs before the checks."""
    tally = run.Tally(perf_counter() + 120)
    commands = workloads.plan(workload, 0, round_dir, quick=True)
    failed = {}
    for command in commands:
        code, _, _ = tally.spawn(run.CLI + command.args)
        if corrupt is not None:
            corrupt(command)
        before = tally.failed
        tally.record(command, code)
        failed[command.name] = tally.failed - before
    return tally, failed


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", ["evaluate", "grid"])
def test_changed_fold_value_fails_the_evaluation(workload, tmp_path):
    def corrupt(command):
        path = command.outputs[0]
        summary = json.loads(path.read_text())
        payload = next(iter(summary["results"]["snr20"].values()))
        payload["folds"]["ACC"][1] += 0.01
        path.write_text(json.dumps(summary, indent=1, sort_keys=True))

    tally, failed = _run_round(workload, tmp_path, corrupt)
    assert list(failed.values()) == [12 if workload == "grid" else 1]
    assert not tally.correct


def test_changed_label_byte_fails_the_simulation(tmp_path):
    def corrupt(command):
        if command.name == "simulate":
            path = command.outputs[0]
            blob = bytearray(path.read_bytes())
            header = struct.calcsize("<4sHIQdd")
            assert blob[header] == 0  # records are class-major: the first is class 0
            blob[header] = 1
            path.write_bytes(bytes(blob))

    tally, failed = _run_round("ingest", tmp_path, corrupt)
    assert failed["simulate"] == 1
    assert not tally.correct


def test_dropped_csv_row_fails_the_extraction(tmp_path):
    def corrupt(command):
        if command.name == "extract STFT+GLRLM":
            path = command.outputs[0]
            lines = path.read_text().splitlines(keepends=True)
            del lines[-3]
            path.write_text("".join(lines))

    tally, failed = _run_round("ingest", tmp_path, corrupt)
    assert {name for name, n in failed.items() if n} == {"extract STFT+GLRLM"}
    assert not tally.correct


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_mode_runs_every_workload(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m for m in result["metrics"]] == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_accounts_for_its_wall_time():
    proc = _bench("--workload", "grid", "--seed", "3", "--seconds", "1", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    m = {name: v["value"] for name, v in result["metrics"].items()}
    self_times = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert self_times + m["trace.unaccounted_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert m["features.rows_per_unique_row"] == 12
    assert m["cli.grid_points"] == 12


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
