import json

import numpy as np
import pytest
from click.testing import CliRunner

from grainsort.cli import cli
from grainsort.dataset import load_dataset, save_dataset
from grainsort.errors import CorruptDatasetError, DimensionMismatchError
from grainsort.radar import RadarParams, SurfaceClass
from oracles import scan_array


@pytest.fixture()
def small_set():
    params = RadarParams(n_freq=16)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    labels = [SurfaceClass.LEVELLED, SurfaceClass.PEAKED_CONE, SurfaceClass.INVERTED_CONE]
    return params, scan_array(samples, labels, [1000, 1001, 1002], [20.0, np.nan, 3.5])


def test_round_trip(tmp_path, small_set):
    params, scans = small_set
    path = tmp_path / "d.gsrd"
    save_dataset(path, params, scans)
    params2, loaded = load_dataset(path)
    assert params2.n_freq == params.n_freq
    assert params2.f_start == params.f_start and params2.f_stop == params.f_stop
    assert loaded.dtype == params.scan_dtype and len(loaded) == len(scans)
    assert np.array_equal(loaded.samples, scans.samples)
    assert np.array_equal(loaded.label, scans.label)
    assert np.array_equal(loaded.seed, scans.seed)
    assert np.array_equal(loaded.snr_db, scans.snr_db, equal_nan=True)


def test_save_refuses_records_of_another_sweep(tmp_path, small_set):
    params, scans = small_set
    with pytest.raises(DimensionMismatchError, match="17-point"):
        save_dataset(tmp_path / "d.gsrd", RadarParams(n_freq=17), scans)


def test_rewrite_is_byte_identical(tmp_path, small_set):
    params, scans = small_set
    p1, p2 = tmp_path / "a.gsrd", tmp_path / "b.gsrd"
    save_dataset(p1, params, scans)
    save_dataset(p2, params, scans)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_names_byte_offset(tmp_path, small_set):
    params, scans = small_set
    path = tmp_path / "d.gsrd"
    save_dataset(path, params, scans)
    blob = path.read_bytes()
    cut = len(blob) - 40
    path.write_bytes(blob[:cut])
    with pytest.raises(CorruptDatasetError, match=rf"byte offset {cut}"):
        load_dataset(path)


def test_bad_magic(tmp_path, small_set):
    params, scans = small_set
    path = tmp_path / "d.gsrd"
    save_dataset(path, params, scans)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptDatasetError, match="magic"):
        load_dataset(path)


def test_bad_version(tmp_path, small_set):
    params, scans = small_set
    path = tmp_path / "d.gsrd"
    save_dataset(path, params, scans)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (999).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptDatasetError, match="version"):
        load_dataset(path)


def test_csv_export(tmp_path):
    """`simulate --csv` writes one flat CSV beside each GSRD file, cell for cell."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5,
        "dataset": {"per_class_counts": [1, 1, 1], "snr_db": [3.5, None]},
        "scene": {"scatterers_per_scene": 30},
    }))
    out = tmp_path / "run"
    result = CliRunner().invoke(
        cli, ["simulate", "--config", str(config), "--out", str(out), "--csv"]
    )
    assert result.exit_code == 0, result.output
    for tag in ("snr3.5", "noiseless"):
        params, scans = load_dataset(out / f"dataset_{tag}.gsrd")
        lines = (out / f"dataset_{tag}.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "label"
        assert header[1:3] == ["re_0", "im_0"]
        assert len(header) == 1 + 2 * params.n_freq
        assert len(lines) == 1 + len(scans) == 1 + 3
        for line, scan in zip(lines[1:], scans):
            cells = line.split(",")
            assert int(cells[0]) == int(scan.label)
            assert float(cells[1]) == scan.samples[0].real
            assert float(cells[2]) == scan.samples[0].imag
