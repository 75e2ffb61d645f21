"""Output checks for the benchmark workloads.

Every check tests a property the method must have or compares with a value
recomputed here from the program's own inputs; none compares with stored
output.  The readers below parse the program's files independently of the
grainsort package, so a fault in its writers or readers cannot hide itself.
A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import scipy.fft

SPEED_OF_LIGHT = 2.99792458e8
METRICS = ("SEN", "SPE", "ACC", "PRE", "F1", "MCC")
CHAIN_DIMS = {
    "FOS": 6,
    "FFT+FOS": 6,
    "DCT+FOS": 6,
    "DWT+FOS": 30,
    "STFT+GLCM": 24,
    "STFT+GLRLM": 44,
}
# macro SEN a working chain must reach; chance on three classes is 1/3
MIN_SEN = 0.5
IDENTITY_TOL = 1e-12
RECOMPUTE_RTOL = 1e-9

_HEADER = struct.Struct("<4sHIQdd")


class CheckFailed(Exception):
    """An output of the program does not have a property it must have."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_help(text: str, commands) -> None:
    for name in commands:
        _require(name in text, f"--help does not list the {name!r} command")


# --- GSRD dataset file --------------------------------------------------------


def read_gsrd(path: Path):
    """Parse a GSRD file; returns (header dict, labels, snr, samples)."""
    blob = Path(path).read_bytes()
    _require(len(blob) >= _HEADER.size, f"{path}: shorter than the header")
    magic, version, n_freq, count, f_start, f_stop = _HEADER.unpack_from(blob, 0)
    _require(magic == b"GSRD", f"{path}: magic {magic!r}")
    _require(version == 1, f"{path}: version {version}")
    record = np.dtype(
        [("label", "u1"), ("seed", "<u8"), ("snr", "<f8"), ("samples", "<c16", (n_freq,))]
    )
    _require(
        len(blob) == _HEADER.size + count * record.itemsize,
        f"{path}: {len(blob)} bytes for {count} records of {record.itemsize}",
    )
    recs = np.frombuffer(blob, dtype=record, count=count, offset=_HEADER.size)
    header = {"n_freq": n_freq, "count": count, "f_start": f_start, "f_stop": f_stop}
    return header, recs["label"].astype(int), recs["snr"], recs["samples"]


def check_gsrd(path: Path, cfg: dict):
    """Header, class-major labels, finite samples, surface peak inside the silo."""
    header, labels, snr, samples = read_gsrd(path)
    radar, scene = cfg["radar"], cfg["scene"]
    counts = cfg["dataset"]["per_class_counts"]
    _require(header["n_freq"] == radar["n_freq"], f"{path}: n_freq {header['n_freq']}")
    _require(header["count"] == sum(counts), f"{path}: {header['count']} records")
    _require(
        (header["f_start"], header["f_stop"]) == (radar["f_start_hz"], radar["f_stop_hz"]),
        f"{path}: sweep {header['f_start']}..{header['f_stop']}",
    )
    expected = np.repeat(np.arange(len(counts)), counts)
    _require(np.array_equal(labels, expected), f"{path}: labels are not class-major")
    _require(np.all(snr == cfg["dataset"]["snr_db"][0]), f"{path}: wrong SNR field")
    _require(np.all(np.isfinite(samples.view(np.float64))), f"{path}: non-finite sample")

    # the inverse DFT of a stepped-frequency sweep is a range profile whose
    # bin k sits at k * c / (2 * n * df); the grain return lies between the
    # silo rim and the floor, give or take one bin
    n = header["n_freq"]
    df = (header["f_stop"] - header["f_start"]) / (n - 1)
    dz = SPEED_OF_LIGHT / (2.0 * n * df)
    peaks = np.argmax(np.abs(np.fft.ifft(samples, axis=1)), axis=1) * dz
    lo, hi = scene["rim_range_m"] - dz, scene["antenna_height_m"] + dz
    bad = np.flatnonzero((peaks < lo) | (peaks > hi))
    _require(
        bad.size == 0,
        f"{path}: {bad.size} range-profile peaks outside [{lo:.3f}, {hi:.3f}] m, "
        f"first at record {bad[:1].tolist()}",
    )
    return labels, samples


# --- feature CSVs ---------------------------------------------------------------


def _data_lines(path: Path):
    return [l for l in Path(path).read_text(encoding="utf-8").splitlines() if not l.startswith("#")]


def fos_reference(x) -> np.ndarray:
    """Population moments, 64-bin histogram entropy and energy of one vector."""
    x = np.asarray(x, dtype=float)
    centred = x - x.mean()
    m2 = np.mean(centred**2)
    hist, _ = np.histogram(x, bins=64, range=(x.min(), x.max()))
    p = hist[hist > 0] / x.size
    return np.array([
        x.mean(),
        m2,
        np.mean(centred**3) / m2**1.5,
        np.mean(centred**4) / m2**2 - 3.0,
        -np.sum(p * np.log(p)),
        np.sum(x**2),
    ])


_FOS_INPUTS = {
    "FOS": lambda s: np.abs(s),
    "FFT+FOS": lambda s: np.abs(np.fft.fft(s)),
    "DCT+FOS": lambda s: scipy.fft.dct(np.abs(s), type=2, norm="ortho"),
}


def check_features_csv(path: Path, chain: str, labels, samples, n_recomputed: int = 16) -> None:
    """One row per scan with the chain's dimension and labels; values plausible."""
    lines = _data_lines(path)
    dim = CHAIN_DIMS[chain]
    header = ["method_tag", "label"] + [f"f_{i}" for i in range(dim)]
    _require(lines and lines[0].split(",") == header, f"{path}: header {lines[:1]}")
    rows = [l.split(",") for l in lines[1:]]
    _require(len(rows) == len(labels), f"{path}: {len(rows)} rows for {len(labels)} scans")
    _require(all(len(r) == dim + 2 for r in rows), f"{path}: a row is not {dim + 2} wide")
    _require(all(r[0] == chain for r in rows), f"{path}: a row names another chain")
    _require(
        [int(r[1]) for r in rows] == [int(v) for v in labels],
        f"{path}: labels differ from the dataset",
    )
    X = np.array([[float(v) for v in r[2:]] for r in rows])
    _require(np.all(np.isfinite(X)), f"{path}: non-finite feature")

    if chain in _FOS_INPUTS:
        picks = np.unique(np.linspace(0, len(rows) - 1, n_recomputed).astype(int))
        for i in picks:
            want = fos_reference(_FOS_INPUTS[chain](samples[i]))
            _require(
                np.allclose(X[i], want, rtol=RECOMPUTE_RTOL, atol=0.0),
                f"{path}: row {i} is {X[i].tolist()}, recomputed {want.tolist()}",
            )
    elif chain == "STFT+GLCM":
        # per angle: contrast, correlation, energy, homogeneity, entropy, dissimilarity
        F = X.reshape(len(rows), -1, 6)
        _require(np.all((F[..., 2] > 0) & (F[..., 2] <= 1)), f"{path}: GLCM energy outside (0, 1]")
        _require(np.all((F[..., 3] > 0) & (F[..., 3] <= 1)), f"{path}: GLCM homogeneity outside (0, 1]")
        _require(np.all(np.abs(F[..., 1]) <= 1 + IDENTITY_TOL), f"{path}: GLCM correlation outside [-1, 1]")
    elif chain == "STFT+GLRLM":
        # per direction: SRE, LRE, GLN, RLN, RP, then six gray-weighted emphases
        F = X.reshape(len(rows), -1, 11)
        _require(np.all((F[..., 4] > 0) & (F[..., 4] <= 1)), f"{path}: GLRLM run percentage outside (0, 1]")
        _require(np.all(F[..., 0] <= 1 + IDENTITY_TOL), f"{path}: GLRLM SRE above 1")
        _require(np.all(F[..., 1] >= 1 - IDENTITY_TOL), f"{path}: GLRLM LRE below 1")


# --- evaluation reports ------------------------------------------------------------


def check_evaluation(out: Path, cfg: dict, methods, full_size: bool = True, grid=None) -> None:
    """summary.json, report CSV and text table of one `evaluate` run.

    grid, when given, is the list of (C, gamma) points the search must visit.
    full_size asks for accuracies the method reaches at the benchmark's data
    sizes: SEN clearly above chance and, when all six chains ran, STFT+GLCM
    and DWT+FOS ahead of FOS, and DWT+FOS ahead of STFT+GLRLM.
    """
    tag = f"snr{cfg['dataset']['snr_db'][0]:g}"
    k = cfg["cv"]["k"]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    _require(summary["seed"] == cfg["seed"], f"summary seed {summary['seed']}")
    block = summary["results"][tag]
    _require(sorted(block) == sorted(methods), f"summary holds chains {sorted(block)}")

    for method in methods:
        payload = block[method]
        folds = {m: np.array(payload["folds"][m]) for m in METRICS}
        for m in METRICS:
            _require(folds[m].size == k, f"{method} {m}: {folds[m].size} folds, k={k}")
            _require(
                np.isclose(folds[m].mean(), payload["mean"][m], rtol=IDENTITY_TOL, atol=IDENTITY_TOL)
                and np.isclose(folds[m].std(ddof=1), payload["std"][m], rtol=IDENTITY_TOL, atol=IDENTITY_TOL),
                f"{method} {m}: mean/std do not follow from the fold values",
            )
        # folds hold the same number of scans of every class, so each error is
        # one FN and one FP among the three one-vs-rest views
        sen = folds["SEN"]
        _require(
            np.all(np.abs(folds["ACC"] - (1 + 2 * sen) / 3) <= IDENTITY_TOL)
            and np.all(np.abs(folds["SPE"] - (1 + sen) / 2) <= IDENTITY_TOL),
            f"{method}: a fold breaks ACC = (1 + 2 SEN)/3 or SPE = (1 + SEN)/2",
        )
        if full_size:
            _require(payload["mean"]["SEN"] > MIN_SEN, f"{method}: SEN {payload['mean']['SEN']:.3f}")

    _check_report_csv(out / f"report_{tag}.csv", block, methods, k)
    _check_report_txt(out / f"report_{tag}.txt", block, methods)
    if full_size and len(methods) == len(CHAIN_DIMS):
        # the ordering of acceptance criterion 6 where it holds on every seed
        # tried: its 90% levels and STFT+GLCM over STFT+GLRLM hold on the
        # acceptance seed, but by margins some seeds do not keep
        acc = {m: block[m]["mean"]["ACC"] for m in methods}
        _require(
            min(acc["STFT+GLCM"], acc["DWT+FOS"]) > acc["FOS"]
            and acc["DWT+FOS"] > acc["STFT+GLRLM"],
            f"acceptance ordering broken: {acc}",
        )
    if grid is not None:
        for method in methods:
            _check_grid(block[method], grid)


def _check_report_csv(path: Path, block: dict, methods, k: int) -> None:
    lines = _data_lines(path)
    header = ["method", "metric", "mean", "std"] + [f"fold_{i}" for i in range(k)]
    _require(lines and lines[0].split(",") == header, f"{path}: header {lines[:1]}")
    rows = [l.split(",") for l in lines[1:]]
    want = [(m, n) for m in methods for n in METRICS]
    _require([(r[0], r[1]) for r in rows] == want, f"{path}: rows are not chain x metric")
    for r in rows:
        payload = block[r[0]]
        values = [payload["mean"][r[1]], payload["std"][r[1]]] + payload["folds"][r[1]]
        _require([float(v) for v in r[2:]] == values, f"{path}: {r[0]} {r[1]} differs from summary.json")


def _check_report_txt(path: Path, block: dict, methods) -> None:
    text = path.read_text(encoding="utf-8")
    for method in methods:
        line = next((l for l in text.splitlines() if l.startswith(method + "+SVM ")), None)
        _require(line is not None, f"{path}: no row for {method}")
        payload = block[method]
        cells = [f"{100 * payload['mean'][m]:.2f}±{100 * payload['std'][m]:.2f}" for m in METRICS]
        _require(line.split()[1:] == cells, f"{path}: {method} row differs from summary.json")


def _check_grid(payload: dict, grid) -> None:
    scan = payload["grid_scan"]
    points = [(p["C"], p["gamma"]) for p in scan]
    _require(points == list(grid), f"grid visited {points}")
    accs = [p["macro_acc"] for p in scan]
    first_best = scan[accs.index(max(accs))]
    _require(
        payload["best_kernel"] == {"C": first_best["C"], "gamma": first_best["gamma"]},
        f"best kernel {payload['best_kernel']} is not the first highest-ACC point",
    )
    _require(payload["mean"]["ACC"] == first_best["macro_acc"], "best report ACC differs from its grid point")
