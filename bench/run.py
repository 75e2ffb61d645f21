"""Benchmark grainsort end to end through its CLI.

    python3 bench/run.py --workload evaluate|ingest|grid --seed N --seconds S --trace 0|1 [--quick]

With --trace 0 every command runs in a fresh `python -m grainsort.cli`
process, as a user runs it, and the run repeats whole rounds of the
workload until S seconds have passed; the end-to-end metrics are medians
over the rounds.  With --trace 1 one process runs the workload in-process
through click, once untraced and once traced (tracer.py), and the run
reports the per-layer metrics.  Every command's outputs are checked
(checks.py); a command that exits non-zero or whose outputs fail a check
counts its operations as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The children run with one BLAS/OpenMP thread, so that timings measure
grainsort rather than the thread scheduler.  --quick runs a tiny config
that tests the plumbing in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI = [sys.executable, "-m", "grainsort.cli"]
# timed `--help` start-ups before and after the rounds, so that setup_s
# samples the same stretch of time as the rounds
SETUP_RUNS = (3, 2)
# a run must end within 180 s; no command or round starts past this
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    env["GRAINSORT_THREADS"] = "1"
    return env


class Tally:
    """Operations attempted and failed, and whether every completed output was right."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._digests = {}

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def spawn(self, argv):
        """Run a child to completion or the deadline; returns (exit code, wall s, stdout)."""
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\nkilled at the run's time limit"
        wall = perf_counter() - start
        if proc.returncode != 0:
            print(f"exit {proc.returncode}: {' '.join(map(str, argv))}\n{err[-2000:]}", file=sys.stderr)
        return proc.returncode, wall, out

    def record(self, command: workloads.Command, code: int, compare: str = None) -> None:
        """Count the command and check its outputs.

        compare names a group of rounds that run the same config: their
        outputs must be byte-identical, the program's promise of determinism.
        """
        self.attempted += command.ops
        if code != 0:
            self.failed += command.ops
            return
        try:
            command.check()
            if compare is not None:
                digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in command.outputs]
                first = self._digests.setdefault((compare, command.name), digest)
                if digest != first:
                    raise checks.CheckFailed("outputs differ from the first round's")
        except (checks.CheckFailed, OSError, ValueError, LookupError, TypeError) as exc:
            print(f"check failed: {command.name}: {exc!r}", file=sys.stderr)
            self.failed += command.ops
            self.correct = False


def start_up(tally: Tally, times: int) -> list:
    """Wall times of `times` start-ups of the CLI (`--help`)."""
    walls = []
    for _ in range(times):
        code, wall, out = tally.spawn(CLI + ["--help"])
        check = lambda: checks.check_help(out, ("simulate", "extract", "evaluate"))
        tally.record(workloads.Command("--help", ["--help"], [], check), code)
        walls.append(wall)
    return walls


def run_untraced(args, work: Path, tally: Tally) -> dict:
    start_up(tally, 1)  # untimed: fills the bytecode and file caches
    setup = start_up(tally, SETUP_RUNS[0])
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        if rounds and tally.remaining() < rounds[-1]["wall"]:
            break
        commands = workloads.plan(args.workload, args.seed, work / f"round{len(rounds)}", args.quick)
        walls = []
        for command in commands:
            code, wall, _ = tally.spawn(CLI + command.args)
            tally.record(command, code, compare="rounds")
            walls.append(wall)
        rounds.append({
            "wall": sum(walls),
            "scans_per_s": _rate(commands, walls, "scans"),
            "rows_per_s": _rate(commands, walls, "rows"),
        })
        print(f"round {len(rounds)}: {rounds[-1]['wall']:.3f} s", file=sys.stderr)
    setup += start_up(tally, SETUP_RUNS[1])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "scans_per_s": statistics.median(r["scans_per_s"] for r in rounds),
        "rows_per_s": statistics.median(r["rows_per_s"] for r in rounds),
        # largest peak RSS of any child: Linux reports kilobytes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _rate(commands, walls, what: str) -> float:
    """Work of one kind over the wall time of the commands that did it."""
    work = sum(getattr(c, what) for c in commands)
    busy = sum(w for c, w in zip(commands, walls) if getattr(c, what))
    return work / busy


def run_traced(args, work: Path, tally: Tally) -> dict:
    passes = [
        ("warm-up", False, workloads.plan(args.workload, args.seed, work / "warmup", quick=True)),
        ("untraced", False, workloads.plan(args.workload, args.seed, work / "untraced", args.quick)),
        ("traced", True, workloads.plan(args.workload, args.seed, work / "traced", args.quick)),
    ]
    plan_path, result_path = work / "plan.json", work / "trace.json"
    plan_path.write_text(json.dumps({
        "passes": [{"traced": t, "commands": [c.args for c in cmds]} for _, t, cmds in passes]
    }), encoding="utf-8")
    code, _, _ = tally.spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(plan_path), str(result_path)])
    if code != 0 or not result_path.exists():
        for _, _, commands in passes:
            for command in commands:
                tally.record(command, 1)
        return tracer.layer_metrics([], 0.0, 0.0, 0.0)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for (label, _, commands), done in zip(passes, result["passes"]):
        for command, outcome in zip(commands, done["commands"]):
            tally.record(command, outcome["exit"], compare=None if label == "warm-up" else "passes")
    untraced, traced = result["passes"][1]["wall_s"], result["passes"][2]["wall_s"]
    return tracer.layer_metrics(result["spans"], traced, untraced, result["cost_per_span_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="tiny config, for testing the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grainsort" / "cli.py").is_file():
        print(f"grainsort sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    tally = Tally(perf_counter() + TIME_LIMIT_S)
    work = ROOT / ".bench_runs" / "-".join(
        [args.workload, f"seed{args.seed}"] + ["quick"] * args.quick + ["trace"] * args.trace
    )
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    values = (run_traced if args.trace else run_untraced)(args, work, tally)
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} differ from BENCHMARK.json")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
