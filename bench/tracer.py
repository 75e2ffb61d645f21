"""Traced in-process runner and the per-layer metrics computed from its spans.

Run as a script, it imports grainsort, then runs the passes of a plan file
through the click CLI in this one process: untraced passes first, then the
traced pass with a span around every command and around each layer's
public functions.  The spans stay in memory and are written out, with the
wall time and exit code of every command, when the passes end.

    python tracer.py PLAN.json RESULT.json

No tracing code lives in the package: the wrappers are installed from here,
in every grainsort module namespace that binds the wrapped function, so a
caller that imported a function by name is traced like one that looks it up
on its module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import click
import numpy as np

import checks

CHAINS = tuple(checks.CHAIN_DIMS)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# layer module -> {function: attributes read from its arguments and result}
TARGETS = {
    "radar": {
        "generate_dataset": lambda a, k, r: {"scans": len(r)},
        "synth_surface": None,
        "backscatter": None,
    },
    "dataset": {
        "save_dataset": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
        "load_dataset": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    },
    "transforms": {"fft": None, "dct": None, "dwt_multilevel": None, "stft": None},
    "features": {
        "extract_matrix": lambda a, k, r: {
            "method": _arg(a, k, 1, "method_tag"),
            "seeds": [int(s.seed) for s in _arg(a, k, 0, "ascans")],
        },
        "extract": lambda a, k, r: {"method": r.method_tag},
        "quantize": None,
        "glcm": None,
        "glcm_features": None,
        "glrlm": None,
        "glrlm_features": None,
    },
    "svm": {
        "train_multiclass": None,
        "train_binary": lambda a, k, r: {
            "updates": r.diagnostics.n_updates, "sv": int(r.dual_coef.size)
        },
        "kernel_matrix": lambda a, k, r: {"entries": int(r.size)},
        "predict": lambda a, k, r: {"rows": int(np.size(r))},
    },
    "evaluation": {
        "cross_validate": lambda a, k, r: {"folds": (r[0] if isinstance(r, tuple) else r).k},
    },
    "cli": {"_grid_search": lambda a, k, r: {"points": len(r[2])}},
}


class Recorder:
    """Spans as [name, start, end, parent index, attributes], kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                span[4] = describe(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder):
    """Wrap every target in each grainsort module that binds it; returns an undo list."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("grainsort")]
    undo = []
    for layer, functions in TARGETS.items():
        home = importlib.import_module(f"grainsort.{layer}")
        for fname, describe in functions.items():
            original = getattr(home, fname)
            traced = recorder.wrap(f"{layer}.{fname}", original, describe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        undo.append((module, attr, original))
    return undo


def _invoke(cli, args) -> int:
    try:
        cli.main(args=list(args), prog_name="grainsort", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def run_plan(plan: dict) -> dict:
    from grainsort.cli import cli

    recorder = Recorder()
    passes = []
    for spec in plan["passes"]:
        undo = install(recorder) if spec["traced"] else []
        commands = []
        start = perf_counter()
        try:
            for args in spec["commands"]:
                t0 = perf_counter()
                span = recorder.open(f"cli.{args[0]}") if spec["traced"] else None
                code = _invoke(cli, args)
                if span is not None:
                    recorder.close(span)
                commands.append({"exit": code, "wall_s": perf_counter() - t0})
        finally:
            for module, attr, original in undo:
                setattr(module, attr, original)
        passes.append({"wall_s": perf_counter() - start, "commands": commands})
    return {"passes": passes, "spans": recorder.spans, "cost_per_span_s": cost_per_span()}


def cost_per_span(calls: int = 50_000) -> float:
    """Seconds a wrapper adds to one call: a traced no-op against the bare one."""

    def noop():
        return None

    traced = Recorder().wrap("probe.noop", noop, None)
    elapsed = []
    for fn in (noop, traced):
        start = perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter() - start)
    return max(elapsed[1] - elapsed[0], 0.0) / calls


# --- per-layer metrics ---------------------------------------------------------------

def layer_metrics(spans, traced_wall: float, untraced_wall: float, cost_per_span: float) -> dict:
    """Totals, counts and self times per layer from one traced pass.

    Names follow BENCHMARK.json's per_layer list; a layer the workload does
    not reach reads 0.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, calls, count = (defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(int))
    chain_time, chain_rows, images, unique = defaultdict(float), defaultdict(int), defaultdict(int), set()
    for i, (name, start, end, _, attrs) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            if isinstance(value, int):
                count[f"{name}.{key}"] += value
        if name == "features.extract_matrix":
            chain_time[attrs["method"]] += end - start
            chain_rows[attrs["method"]] += len(attrs["seeds"])
            unique.update((attrs["method"], s) for s in attrs["seeds"])
        elif name == "features.extract":
            images[attrs["method"]] += 1

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    rows = sum(chain_rows.values())
    m = {
        "radar.generate_dataset_s": total["radar.generate_dataset"],
        "radar.scans": count["radar.generate_dataset.scans"],
        "radar.backscatter_ms_per_scan": ratio(total["radar.backscatter"], calls["radar.backscatter"], 1e3),
        "radar.synth_surface_ms_per_scan": ratio(total["radar.synth_surface"], calls["radar.synth_surface"], 1e3),
        "dataset.save_s": total["dataset.save_dataset"],
        "dataset.load_s": total["dataset.load_dataset"],
        "dataset.bytes_written": count["dataset.save_dataset.bytes"],
        "dataset.bytes_read": count["dataset.load_dataset.bytes"],
        "transforms.stft_s": total["transforms.stft"],
        "transforms.dwt_s": total["transforms.dwt_multilevel"],
        "transforms.calls": sum(calls[f"transforms.{f}"] for f in TARGETS["transforms"]),
        "features.extract_s": total["features.extract_matrix"],
        "features.rows": rows,
        "features.rows_per_unique_row": ratio(rows, len(unique)),
        "features.glcm_ms_per_image": ratio(
            total["features.glcm"] + total["features.glcm_features"], images["STFT+GLCM"], 1e3
        ),
        "features.glrlm_ms_per_image": ratio(
            total["features.glrlm"] + total["features.glrlm_features"], images["STFT+GLRLM"], 1e3
        ),
        "features.quantize_s": total["features.quantize"],
        "svm.train_s": total["svm.train_multiclass"],
        "svm.train_binary_calls": calls["svm.train_binary"],
        "svm.smo_updates": count["svm.train_binary.updates"],
        # the SMO loop: train_binary minus the Gram matrix it builds
        "svm.smo_us_per_update": ratio(own["svm.train_binary"], count["svm.train_binary.updates"], 1e6),
        "svm.support_vectors": count["svm.train_binary.sv"],
        "svm.kernel_matrix_s": total["svm.kernel_matrix"],
        "svm.kernel_entries": count["svm.kernel_matrix.entries"],
        "svm.predict_s": total["svm.predict"],
        "svm.predict_rows": count["svm.predict.rows"],
        "evaluation.cross_validate_s": total["evaluation.cross_validate"],
        "evaluation.folds": count["evaluation.cross_validate.folds"],
        "cli.grid_points": count["cli._grid_search.points"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(spans),
        "trace.span_cost_s": len(spans) * cost_per_span,
        "trace.unaccounted_s": traced_wall - sum(e - s for _, s, e, parent, _ in spans if parent < 0),
    }
    for chain in CHAINS:
        m[f"features.{chain.replace('+', '-')}.ms_per_row"] = ratio(chain_time[chain], chain_rows[chain], 1e3)
    for layer in list(TARGETS):
        m[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.split(".")[0] == layer)
    return m


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run_plan(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
