import json

import pytest
from jsonschema.validators import validator_for

from grainsort import ConfigError
from grainsort import config as cfgmod


def test_schema_is_valid_against_its_meta_schema():
    validator_for(cfgmod.CONFIG_SCHEMA).check_schema(cfgmod.CONFIG_SCHEMA)


def test_defaults_validate():
    cfg = cfgmod.default_config()
    cfgmod.validate_config(cfg)
    assert cfg["dataset"]["per_class_counts"] == [1894, 1894, 1893]
    assert sum(cfg["dataset"]["per_class_counts"]) == 5681


def test_partial_file_merges_over_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 5, "cv": {"k": 4}}))
    cfg = cfgmod.load_config(path)
    assert cfg["seed"] == 5
    assert cfg["cv"]["k"] == 4
    assert cfg["radar"]["n_freq"] == 301  # untouched default


def test_seed_is_mandatory_in_files(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"cv": {"k": 4}}))
    with pytest.raises(ConfigError, match="seed"):
        cfgmod.load_config(path)


def test_error_names_the_json_path(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "scene": {"fill_fraction": 1.5}}))
    with pytest.raises(ConfigError, match=r"scene.*fill_fraction"):
        cfgmod.load_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "scnee": {}}))
    with pytest.raises(ConfigError):
        cfgmod.load_config(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        cfgmod.load_config(path)


def test_overrides_apply_after_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 5}))
    cfg = cfgmod.load_config(path, seed=9, out_dir="elsewhere")
    assert cfg["seed"] == 9
    assert cfg["out_dir"] == "elsewhere"


def test_hash_ignores_out_dir_but_not_seed():
    a = cfgmod.default_config()
    b = cfgmod.default_config()
    b["out_dir"] = "completely/different"
    assert cfgmod.config_hash(a) == cfgmod.config_hash(b)
    b["seed"] += 1
    assert cfgmod.config_hash(a) != cfgmod.config_hash(b)


def test_builders_round_trip():
    cfg = cfgmod.default_config()
    params = cfgmod.radar_params(cfg)
    assert params.n_freq == 301 and params.bandwidth == 22e9
    scene = cfgmod.scene(cfg)
    assert scene.diameter == 0.36
    fparams = cfgmod.feature_params(cfg)
    assert fparams.gray_levels == 16 and fparams.dwt_wavelet == "db4"
    kernel = cfgmod.kernel_spec(cfg)
    assert kernel.kind == "rbf" and kernel.c == 10.0 and kernel.gamma is None
    explicit = cfgmod.kernel_spec(cfg, c=2.0, gamma=0.5)
    assert explicit.c == 2.0 and explicit.gamma == 0.5


def test_default_config_hash_is_pinned():
    # the hash every default-config artifact carries; a change to a default,
    # a key or its spelling changes it
    assert cfgmod.config_hash(cfgmod.load_config(None)) == (
        "3054bebe82ab2f1bde5ac42ceaf1690e7e6a414a0c78e8b5271e059b942a83db"
    )


def test_scene_schema_names_every_scene_default():
    schema = cfgmod.CONFIG_SCHEMA["properties"]["scene"]["properties"]
    assert set(schema) == set(cfgmod.DEFAULT_CONFIG["scene"])
    assert cfgmod.scene(cfgmod.default_config()) == cfgmod.SiloScene()
