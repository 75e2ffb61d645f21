"""The benchmark's workloads: the grainsort configs and CLI commands of one round.

A round is the unit a run repeats.  plan() writes the round's config file
and returns its commands; each command knows how many operations it counts
for, how much work it does and how to check what it wrote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import checks

WORKLOADS = ("evaluate", "ingest", "grid")
CHAINS = tuple(checks.CHAIN_DIMS)
GRID_CHAIN = "STFT+GLCM"
# C=100 is left out of the default grid: at (C=100, gamma=0.01) SMO can run
# out of updates on one fold, and `evaluate --grid` then aborts the whole
# search with exit 4
GRID_C = (0.1, 1.0, 10.0)
GRID_GAMMA = (0.001, 0.01, 0.1, 1.0)
# seed 0 gives the acceptance dataset's master seed
BASE_SEED = 20260809

# scans per class: full size, and the quick mode that tests the plumbing
SIZES = {
    "evaluate": (300, 12),
    "ingest": (300, 6),
    "grid": (100, 12),
}


@dataclass
class Command:
    """One CLI invocation and what the benchmark knows about it."""

    name: str
    args: List[str]  # after the program name
    outputs: List[Path]  # files it writes, compared between rounds
    check: Callable[[], None]  # raises checks.CheckFailed
    ops: int = 1  # operations it counts for: 1, or the grid points it scores
    scans: int = 0  # A-scans it simulates
    rows: int = 0  # distinct scan x chain feature rows it produces


def master_seed(seed: int) -> int:
    return (BASE_SEED + seed) % 2**32


def config(workload: str, seed: int, quick: bool = False) -> dict:
    """The grainsort config of a workload; radar and silo keys spelled out for the checks."""
    per_class = SIZES[workload][1 if quick else 0]
    cfg = {
        "seed": master_seed(seed),
        "radar": {"f_start_hz": 18e9, "f_stop_hz": 40e9, "n_freq": 301},
        "scene": {"rim_range_m": 0.24, "antenna_height_m": 1.2},
        "dataset": {"per_class_counts": [per_class] * 3, "snr_db": [20.0]},
        "cv": {"k": 3 if quick else 10},
    }
    if quick:
        cfg["scene"]["scatterers_per_scene"] = 40
        cfg["svm"] = {"max_passes": 50}
    if workload == "grid":
        cfg["grid"] = {"C": list(GRID_C), "gamma": list(GRID_GAMMA)}
    return cfg


def plan(workload: str, seed: int, round_dir: Path, quick: bool = False) -> List[Command]:
    """Write the round's config under round_dir and return its commands in order."""
    round_dir.mkdir(parents=True, exist_ok=True)
    cfg = config(workload, seed, quick)
    cfg_path = round_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    scans = sum(cfg["dataset"]["per_class_counts"])
    out = round_dir / "out"
    tag = f"snr{cfg['dataset']['snr_db'][0]:g}"
    reports = [out / "summary.json", out / f"report_{tag}.csv", out / f"report_{tag}.txt"]

    if workload == "evaluate":
        return [Command(
            "evaluate",
            ["evaluate", "--config", str(cfg_path), "--out", str(out)],
            reports,
            lambda: checks.check_evaluation(out, cfg, CHAINS, full_size=not quick),
            scans=scans,
            rows=scans * len(CHAINS),
        )]

    if workload == "grid":
        points = [(c, g) for c in GRID_C for g in GRID_GAMMA]
        return [Command(
            "evaluate --grid",
            ["evaluate", "--config", str(cfg_path), "--out", str(out),
             "--grid", "--method", GRID_CHAIN],
            reports,
            lambda: checks.check_evaluation(out, cfg, [GRID_CHAIN], full_size=not quick, grid=points),
            ops=len(points),
            scans=scans,
            rows=scans,
        )]

    if workload != "ingest":
        raise ValueError(f"unknown workload {workload!r}")
    gsrd = out / f"dataset_{tag}.gsrd"
    commands = [Command(
        "simulate",
        ["simulate", "--config", str(cfg_path), "--out", str(out)],
        [gsrd, out / "manifest.json"],
        lambda: checks.check_gsrd(gsrd, cfg),
        scans=scans,
    )]
    for chain in CHAINS:
        csv = out / ("features_" + chain.replace("+", "_") + ".csv")

        def check(csv=csv, chain=chain):
            _, labels, _, samples = checks.read_gsrd(gsrd)
            checks.check_features_csv(csv, chain, labels, samples)

        commands.append(Command(
            f"extract {chain}",
            ["extract", str(gsrd), "--method", chain, "--config", str(cfg_path), "--out", str(out)],
            [csv],
            check,
            rows=scans,
        ))
    return commands
