"""The benchmark's tracer wraps grainsort functions by name from outside the
package, so a rename under src/ breaks `bench/run.py --trace 1` silently;
these tests fail on such a rename instead."""

import importlib
import sys
from pathlib import Path

import pytest

from grainsort import features

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


def test_extract_result_carries_method_tag(tracer, tiny_ascans):
    describe = tracer.TARGETS["features"]["extract"]
    result = features.extract(tiny_ascans[0], "DWT+FOS")
    assert describe((tiny_ascans[0], "DWT+FOS"), {}, result) == {"method": "DWT+FOS"}
