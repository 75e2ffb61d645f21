import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from grainsort import config as cfgmod
from grainsort import radar


@pytest.fixture(scope="session")
def default_params():
    return radar.RadarParams()


@pytest.fixture(scope="session")
def tiny_config():
    """Small, fast experiment config for CLI and evaluation plumbing tests."""
    cfg = cfgmod.default_config()
    cfg["seed"] = 1234
    cfg["dataset"]["per_class_counts"] = [12, 12, 12]
    cfg["scene"]["scatterers_per_scene"] = 40
    cfg["cv"]["k"] = 3
    cfg["svm"]["max_passes"] = 50
    return cfg


@pytest.fixture(scope="session")
def tiny_scans(tiny_config):
    cfg = tiny_config
    return radar.generate_dataset(cfgmod.dataset_spec(cfg), 20.0)


@pytest.fixture()
def one_cpu():
    """This process pinned to one CPU, so that every parallel.pmap runs in it."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
