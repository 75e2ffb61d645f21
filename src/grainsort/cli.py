"""Command-line front end: simulate, extract, train, predict, evaluate, report.

Exit codes: 0 success, 1 a worker process died, 2 configuration error,
3 data error, 4 solver non-convergence.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List

import click
import numpy as np

from . import config as cfgmod
from . import dataset as ds
from . import evaluation, features, parallel, radar, svm
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DimensionMismatchError,
    GrainsortError,
    InvalidParameterError,
    exit_code_for,
)


def _handle_errors(func):
    """Run a command inside its worker pool's scope and turn a grainsort
    error into its exit code; the workers have exited before the code is."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            with parallel.pool():
                return func(*args, **kwargs)
        except GrainsortError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exit_code_for(exc))

    return wrapper


@contextlib.contextmanager
def _staged_out(path):
    """A fresh hidden stage directory to write a run's files into: inside
    the output directory if it exists, else beside it, so that it is on the
    output's filesystem.

    When the block ends without an exception, every file in the stage moves
    into the output directory (made if missing) with os.replace: a file of
    the same name already there is replaced, and other files there are left
    as they are.  The stage, and any directory made for it, is removed
    however the block ends, so a run that fails writes nothing.  A path that
    cannot be an output directory is a configuration error.
    """
    out = Path(path)
    home = out if out.is_dir() else out.resolve().parent
    made = [parent for parent in (home, *home.parents) if not parent.exists()]
    try:
        home.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".grainsort-stage-", dir=home))
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    try:
        yield stage
        try:
            out.mkdir(parents=True, exist_ok=True)
            for item in sorted(stage.iterdir()):
                os.replace(item, out / item.name)
        except OSError as exc:
            raise ConfigError(f"cannot write into output directory {out}: {exc}") from None
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for parent in made:  # deepest first
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise
    stage.rmdir()


def _provenance_lines(config_hash, seed, **extra) -> List[str]:
    fields = {"config_hash": config_hash, "seed": seed, **extra}
    return [f"# {key}={value}" for key, value in fields.items()]


def _write_csv(path: Path, header, rows, provenance=()) -> None:
    """The one CSV writer: provenance lines, the header, then one line per row.

    Cells are str, int or float (numpy values go through ``.tolist()``), for
    which str is repr, so a float cell reads back exactly.
    """
    lines = [*provenance, ",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@click.group()
def cli():
    """Radar grain-surface classification experiments."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON experiment config; defaults are used when omitted.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (overrides config out_dir).")
@click.option("--snr", "snr_override", type=float, default=None,
              help="Simulate at this single SNR instead of the config list.")
@click.option("--csv", "also_csv", is_flag=True,
              help="Additionally export each dataset as a flat CSV.")
@_handle_errors
def simulate(config_path, seed, out_dir, snr_override, also_csv):
    """Simulate a labelled A-scan dataset and write the binary container."""
    cfg = cfgmod.load_config(config_path, seed=seed, out_dir=out_dir)
    if snr_override is not None:
        cfg["dataset"]["snr_db"] = [snr_override]
    spec = cfgmod.build(cfg, "dataset")
    manifest = {
        "config_hash": cfgmod.config_hash(cfg),
        "seed": cfg["seed"],
        "per_class_counts": cfg["dataset"]["per_class_counts"],
        "class_names": list(radar.CLASS_NAMES),
        "n_freq": spec.params.n_freq,
        "files": [],
    }
    out = Path(cfg["out_dir"])
    wrote = []
    with _staged_out(out) as stage:
        for snr in spec.snr_db:
            scans = radar.generate_dataset(spec, snr)
            name = f"dataset_{radar.snr_tag(snr)}.gsrd"
            ds.save_dataset(stage / name, spec.params, scans)
            manifest["files"].append(
                {"path": name, "snr_db": snr, "n_records": len(scans)}
            )
            wrote.append(f"{out / name} ({len(scans)} records)")
            if also_csv:
                csv_name = f"dataset_{radar.snr_tag(snr)}.csv"
                header = ["label"] + [f"{part}_{i}" for i in range(spec.params.n_freq)
                                      for part in ("re", "im")]
                _write_csv(stage / csv_name, header,
                           ([label] + samples.view(np.float64).tolist()
                            for label, samples in zip(scans.label.tolist(), scans.samples)))
                wrote.append(f"{out / csv_name}")
        (stage / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
        )
        wrote.append(f"{out / 'manifest.json'}")
    for line in wrote:
        click.echo(f"wrote {line}")


@cli.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--method", "method_tag", required=True,
              type=click.Choice(features.METHOD_TAGS), help="Feature chain to run.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@_handle_errors
def extract(dataset_path, method_tag, config_path, out_dir):
    """Extract one feature chain from a dataset into a CSV."""
    cfg = cfgmod.load_config(config_path, out_dir=out_dir)
    digest = hashlib.sha256()
    _, scans = ds.load_dataset(dataset_path, digest=digest)
    X, y = features.extract_matrix(scans, method_tag, cfgmod.feature_params(cfg))
    out = Path(cfg["out_dir"])
    name = "features_" + method_tag.replace("+", "_") + ".csv"
    with _staged_out(out) as stage:
        _write_csv(
            stage / name, ["method_tag", "label"] + [f"f_{i}" for i in range(X.shape[1])],
            ([method_tag, label] + row for label, row in zip(y.tolist(), X.tolist())),
            _provenance_lines(cfgmod.config_hash(cfg), cfg["seed"],
                              dataset_sha256=digest.hexdigest()),
        )
    click.echo(f"wrote {out / name} ({X.shape[0]} rows x {X.shape[1]} features)")


@cli.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--method", "method_tag", required=True,
              type=click.Choice(features.METHOD_TAGS))
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@_handle_errors
def train(dataset_path, method_tag, config_path, seed, out_dir):
    """Train a multiclass SVM on a dataset and persist it as JSON."""
    cfg = cfgmod.load_config(config_path, seed=seed, out_dir=out_dir)
    params, scans = ds.load_dataset(dataset_path)
    fparams = cfgmod.feature_params(cfg)
    X, y = features.extract_matrix(scans, method_tag, fparams)
    (model,) = svm.train_multiclass(X, y, [cfgmod.kernel_spec(cfg)],
                                    solver=cfgmod.solver_spec(cfg))
    if isinstance(model, ConvergenceError):
        raise model
    extra = _model_keys(method_tag, params.n_freq, fparams, cfgmod.config_hash(cfg), cfg["seed"])
    out = Path(cfg["out_dir"])
    with _staged_out(out) as stage:
        svm.save_model(stage / "model.json", model, extra=extra)
    click.echo(f"wrote {out / 'model.json'}")


def _model_keys(method_tag, n_freq, fparams, config_hash, seed) -> dict:
    """The keys train writes beside the machines; predict requires every one,
    of the JSON type it has here."""
    return {"method_tag": method_tag, "n_freq": n_freq, "config_hash": config_hash,
            "seed": seed, "feature_params": dataclasses.asdict(fparams)}


@cli.command()
@click.argument("model_path", type=click.Path())
@click.argument("dataset_path", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Also write predictions.csv here.")
@_handle_errors
def predict(model_path, dataset_path, out_dir):
    """Classify the A-scans of a dataset with a stored model."""
    model, doc = svm.load_model(model_path)
    params, scans = ds.load_dataset(dataset_path)
    template = _model_keys("", 0, features.FeatureParams(), "", 0)
    try:
        cfgmod.check_shape({key: doc[key] for key in template if key in doc}, template)
    except InvalidParameterError as exc:
        raise DataError(f"model invalid at {cfgmod.json_path(exc.field)}: {exc}") from None
    if params.n_freq != doc["n_freq"]:
        raise DimensionMismatchError(
            f"dataset holds {params.n_freq}-point sweeps, model was trained "
            f"on {doc['n_freq']}"
        )
    method_tag = doc["method_tag"]
    if method_tag not in features.METHOD_TAGS:
        raise DataError(f"model file names no known feature chain: {method_tag!r}")
    try:
        fparams = features.FeatureParams(**doc["feature_params"])
        fparams.check_sweep(method_tag, params.n_freq)
    except InvalidParameterError as exc:
        raise DataError(f"model feature_params: {exc}") from None
    X, _ = features.extract_matrix(scans, method_tag, fparams)
    labels = svm.predict(model, X).tolist()
    if out_dir is not None:
        with _staged_out(out_dir) as stage:
            _write_csv(
                stage / "predictions.csv", ["index", "label_id", "label_name"],
                ([i, value, radar.CLASS_NAMES[value]] for i, value in enumerate(labels)),
                _provenance_lines(doc["config_hash"], doc["seed"]),
            )
    for value in labels:
        click.echo(radar.CLASS_NAMES[value])
    if out_dir is not None:
        click.echo(f"wrote {Path(out_dir) / 'predictions.csv'}")


def _grid_search(points, kernels, outcomes):
    """Best point of a flat (C, gamma) grid by macro ACC: (report, kernel, scan).

    points are the grid's (C, gamma) values as configured, kernels their
    KernelSpecs and outcomes their cross-validations: a MetricsReport, or
    the ConvergenceError of a point whose solver ran out of updates in some
    fold.  Such a point is kept in the scan as ``"converged": false`` with
    its KKT violation and left out of the selection; the search fails only
    when no point converged.
    """
    best = None
    failure = None
    scan = []
    for (c_val, gamma), kernel, outcome in zip(points, kernels, outcomes):
        if isinstance(outcome, ConvergenceError):
            failure = outcome
            scan.append({
                "C": c_val,
                "gamma": gamma,
                "converged": False,
                "kkt_violation": outcome.model.diagnostics.final_violation,
            })
            continue
        acc = evaluation.report_payload(outcome)["mean"]["ACC"]
        scan.append({"C": c_val, "gamma": gamma, "macro_acc": acc})
        if best is None or acc > best[0]:
            best = (acc, kernel, outcome)
    if best is None:
        raise failure
    return best[2], best[1], scan


def _write_report_files(out: Path, tag: str, cfg: dict, block: dict, table: str) -> List[Path]:
    provenance = _provenance_lines(cfgmod.config_hash(cfg), cfg["seed"])
    csv_path = out / f"report_{tag}.csv"
    _write_csv(
        csv_path,
        ["method", "metric", "mean", "std"] + [f"fold_{i}" for i in range(cfg["cv"]["k"])],
        (row for method_tag in cfg["methods"]
         for row in evaluation.report_rows(block[method_tag])),
        provenance,
    )

    txt_path = out / f"report_{tag}.txt"
    txt_path.write_text(
        "\n".join(provenance) + "\n" + table + "\n", encoding="utf-8"
    )
    return [csv_path, txt_path]


@cli.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--method", "method_tags", multiple=True,
              type=click.Choice(features.METHOD_TAGS),
              help="Restrict to these chains (default: config methods).")
@click.option("--grid", "use_grid", is_flag=True,
              help="Flat grid search over the config kernel grid per method.")
@_handle_errors
def evaluate(config_path, seed, out_dir, method_tags, use_grid):
    """Cross-validate every configured method chain and write reports."""
    cfg = cfgmod.load_config(config_path, seed=seed, out_dir=out_dir, methods=method_tags)
    k, counts = cfg["cv"]["k"], cfg["dataset"]["per_class_counts"]
    if k > min(counts):
        raise ConfigError(f"cv.k={k} exceeds the smallest per-class count {min(counts)}")
    fparams = cfgmod.feature_params(cfg)
    for method_tag in cfg["methods"]:
        fparams.check_sweep(method_tag, cfg["radar"]["n_freq"])
    summary = {
        "config_hash": cfgmod.config_hash(cfg),
        "seed": cfg["seed"],
        "k": cfg["cv"]["k"],
        "kernel": cfg["kernel"],
        "classifier": "svm",
        "methods": list(cfg["methods"]),
        "results": {},
    }
    kernels = cfgmod.build(cfg, "grid") if use_grid else [cfgmod.kernel_spec(cfg)]
    points = [(c, gamma) for c in cfg["grid"]["C"] for gamma in cfg["grid"]["gamma"]]
    spec, solver = cfgmod.dataset_spec(cfg), cfgmod.solver_spec(cfg)
    for snr in spec.snr_db:
        scans = radar.generate_dataset(spec, snr)
        chains, y = features.extract_chains(scans, cfg["methods"], fparams)
        outcomes = evaluation.cross_validate_chains(
            chains, y, kernels, k=spec.k, seed=spec.seed, solver=solver)
        block = {}
        for method_tag in cfg["methods"]:
            extra = {}
            if use_grid:
                report, kernel, scan = _grid_search(points, kernels, outcomes[method_tag])
                extra = {"best_kernel": {"C": kernel.c, "gamma": kernel.gamma},
                         "grid_scan": scan}
            else:
                (report,) = outcomes[method_tag]
                if isinstance(report, ConvergenceError):
                    raise report
            block[method_tag] = {**evaluation.report_payload(report), **extra}
        summary["results"][radar.snr_tag(snr)] = block

    out = Path(cfg["out_dir"])
    tables = {tag: evaluation.format_table(block, cfg["methods"])
              for tag, block in summary["results"].items()}
    written = []
    with _staged_out(out) as stage:
        for tag, block in summary["results"].items():
            written += _write_report_files(stage, tag, cfg, block, tables[tag])
        summary_path = stage / "summary.json"
        summary_path.write_text(
            json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8"
        )
        written.append(summary_path)
    for tag, table in tables.items():
        click.echo(f"[{tag}]")
        click.echo(table)
    for path in written:
        click.echo(f"wrote {out / path.name}")


@cli.command()
@click.argument("summary_path", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Re-render report files into this directory.")
@_handle_errors
def report(summary_path, out_dir):
    """Render the text table from a stored evaluation summary."""
    path = Path(summary_path)
    if not path.exists():
        raise DataError(f"summary file not found: {path}")
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        results = summary["results"]
        methods = summary.get("methods", [])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"not a valid evaluation summary: {exc}") from exc
    if not (isinstance(results, dict) and isinstance(methods, list)
            and all(isinstance(m, str) for m in methods)
            and all(isinstance(block, dict) for block in results.values())):
        raise DataError("not a valid evaluation summary: malformed results or methods")
    text = "\n\n".join(
        f"[{tag}]\n" + evaluation.format_table(block, methods)
        for tag, block in results.items()
    )
    if out_dir is not None:
        with _staged_out(out_dir) as stage:
            (stage / "report_rendered.txt").write_text(text + "\n", encoding="utf-8")
    click.echo(text)
    if out_dir is not None:
        click.echo(f"wrote {Path(out_dir) / 'report_rendered.txt'}")


def main():
    cli(prog_name="grainsort")


if __name__ == "__main__":
    main()
