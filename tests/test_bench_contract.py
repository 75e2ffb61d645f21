"""The benchmark's tracer wraps grainsort functions by name from outside the
package, so a rename under src/ breaks `bench/run.py --trace 1` silently;
these tests fail on such a rename instead."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from grainsort import cli, config, dataset, evaluation, features, svm
from oracles import fit_binary

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_target_exists(tracer):
    missing = [
        f"grainsort.{layer}.{name}"
        for layer, functions in tracer.TARGETS.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"grainsort.{layer}"), name, None))
    ]
    assert missing == []


@pytest.fixture(scope="module")
def loaded_scans(tiny_config, tiny_scans, tmp_path_factory):
    """tiny_scans through a GSRD file: the read-only records that `extract`,
    and so the `ingest` workload, runs the chains on."""
    path = tmp_path_factory.mktemp("bench_contract") / "tiny.gsrd"
    dataset.save_dataset(path, config.radar_params(tiny_config), tiny_scans)
    scans = dataset.load_dataset(path)[1]
    assert not scans.flags.writeable
    return scans


def test_extract_result_carries_method_tag(tracer, tiny_scans, loaded_scans):
    describe = tracer.TARGETS["features"]["extract"]
    for scan in (tiny_scans[0], loaded_scans[0]):
        result = features.extract(scan, "DWT+FOS")
        assert describe((scan, "DWT+FOS"), {}, result) == {"method": "DWT+FOS"}


def test_extract_matrix_description(tracer, tiny_scans, loaded_scans):
    describe = tracer.TARGETS["features"]["extract_matrix"]
    for scans in (tiny_scans[:4], loaded_scans[:4]):
        expected = {"method": "FOS", "seeds": scans.seed.tolist()}
        result = features.extract_matrix(scans, "FOS")
        assert describe((scans, "FOS"), {}, result) == expected
        assert describe((), {"ascans": scans, "method_tag": "FOS"}, result) == expected


def test_cross_validate_description(tracer, tiny_scans):
    describe = tracer.TARGETS["evaluation"]["cross_validate"]
    args = (*features.extract_matrix(tiny_scans, "FOS"), "FOS", svm.KernelSpec())
    kwargs = {"k": 3, "seed": 0, "classifier": "echo"}
    report = evaluation.cross_validate(*args, **kwargs)
    assert describe(args, kwargs, report) == {"folds": 3}


def test_grid_search_description(tracer, tiny_scans):
    describe = tracer.TARGETS["cli"]["_grid_search"]
    points = [(c, gamma) for c in (1.0, 10.0) for gamma in (0.05, 0.5)]
    kernels = [svm.KernelSpec(c=c, gamma=gamma) for c, gamma in points]
    X, y = features.extract_matrix(tiny_scans, "FOS")
    outcomes = evaluation.cross_validate_chains({"FOS": X}, y, kernels, k=3, seed=0,
                                                classifier="echo")["FOS"]
    result = cli._grid_search(points, kernels, outcomes)
    assert describe((points, kernels, outcomes), {}, result) == {"points": 4}


def test_train_binary_description(tracer):
    describe = tracer.TARGETS["svm"]["train_binary"]
    X = np.array([[0.0, 0.0], [0.2, 0.1], [2.0, 2.0], [2.1, 1.8]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = fit_binary(X, y, svm.KernelSpec(kind="linear"))
    assert describe((X, y), {}, model) == {
        "updates": model.diagnostics.n_updates, "sv": int(model.dual_coef.size)
    }
    assert model.diagnostics.n_updates > 0
