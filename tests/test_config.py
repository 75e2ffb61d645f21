import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from grainsort import config as cfgmod
from grainsort.errors import ConfigError, InvalidParameterError
from grainsort.radar import check_fill_and_cone, max_unambiguous_range
from oracles import CONFIG_SCHEMA


def test_schema_is_valid_against_its_meta_schema():
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_defaults_validate():
    cfg = cfgmod.load_config()
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
    path.write_text(json.dumps({"seed": 1, "scene": {"ripple_crater_factor": 1.5}}))
    with pytest.raises(ConfigError, match=r"scene.*ripple_crater_factor"):
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
    a = cfgmod.load_config()
    b = cfgmod.load_config()
    b["out_dir"] = "completely/different"
    assert cfgmod.config_hash(a) == cfgmod.config_hash(b)
    b["seed"] += 1
    assert cfgmod.config_hash(a) != cfgmod.config_hash(b)


def test_builders_round_trip():
    cfg = cfgmod.load_config()
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
        "bcae9b255dfc003e784538caa3b0e4d0f5272cde9a08ede0af563ea4c4e497ef"
    )


@pytest.mark.parametrize("section, make", [
    ("radar", cfgmod.RadarParams), ("scene", cfgmod.SiloScene),
    ("features", cfgmod.FeatureParams), ("kernel", cfgmod.KernelSpec),
    ("svm", cfgmod.SolverSpec),
])
def test_default_config_builds_each_objects_own_defaults(section, make):
    # a library caller and a default CLI run get the same experiment
    assert cfgmod.build(cfgmod.load_config(), section) == make()


def test_scene_schema_names_every_scene_default():
    schema = CONFIG_SCHEMA["properties"]["scene"]["properties"]
    assert set(schema) == set(cfgmod.DEFAULT_CONFIG["scene"])
    assert cfgmod.scene(cfgmod.load_config()) == cfgmod.SiloScene()


def _bound_values(path):
    """The values at and one either side of each bound the schema puts on ``path``."""
    node = CONFIG_SCHEMA
    for key in path:
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    names = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
    return [node[name] + shift for name in names if name in node for shift in (-1, 0, 1)]


def _value_paths(node, prefix=()):
    """Every key and list item of a config document, as a path into it."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        if isinstance(child, (dict, list)):
            paths += _value_paths(child, prefix + (key,))
    return paths


BASE_DOC = dict(cfgmod.load_config(), methods=["FOS", "STFT+GLCM"])
VALUE_PATHS = _value_paths(BASE_DOC)
OTHER_VALUES = [None, True, "x", "scale", "haar", "linear", "FOS", -1, 0, 1, 2, 300, 257,
                -0.5, 0.0, 0.5, 1.0, 1.5, 1e12, [], [1], [1.0, 2.0], {}, {"a": 1}]


@st.composite
def mutated_docs(draw):
    """BASE_DOC with one to three keys dropped, added or set: to another
    value, to a multiple of the number there, to just inside or outside a
    bound of the schema, to the integer-valued float of an integer, or to
    NaN or Infinity."""
    doc = json.loads(json.dumps(BASE_DOC))
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(VALUE_PATHS))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            current = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation moved it
        bounds = _bound_values(path)
        kind = draw(st.sampled_from(["other", "scaled", "bound", "bound", "float",
                                     "non-finite", "drop", "add"]))
        if kind == "drop" and isinstance(parent, dict) and path != ("seed",):
            del parent[path[-1]]
        elif kind == "add" and isinstance(parent, dict):
            parent["extra"] = 1
        elif kind == "bound" and bounds:
            parent[path[-1]] = draw(st.sampled_from(bounds))
        elif kind == "scaled" and type(current) in (int, float):
            parent[path[-1]] = current * draw(st.sampled_from([-1, 0, 0.5, 2, 10]))
        elif kind == "float" and type(current) is int:
            parent[path[-1]] = float(current)
        elif kind == "non-finite":
            parent[path[-1]] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        else:
            parent[path[-1]] = draw(st.sampled_from(OTHER_VALUES))
    return doc


def _leaves(value, default):
    """(value, default) for every scalar of a document the schema accepts."""
    if isinstance(value, dict):
        return [pair for k, v in value.items() for pair in _leaves(v, default[k])]
    if isinstance(value, list):
        return [pair for v in value for pair in _leaves(v, default[0])]
    return [(value, default)]


def _objects_reject(doc) -> bool:
    cfg = cfgmod._deep_merge(cfgmod.DEFAULT_CONFIG, doc)
    dataset = cfg["dataset"]
    if any(low > high for low, high in (dataset["fill_fraction_range"],
                                        dataset["cone_height_range"])):
        return True
    # an SNR at which the noise power 10 ** (-snr_db / 10) is no float
    if any(snr is not None and snr <= -10 * math.log10(sys.float_info.max)
           for snr in dataset["snr_db"]):
        return True
    try:
        for build in (cfgmod.radar_params, cfgmod.scene, cfgmod.feature_params,
                      cfgmod.kernel_spec):
            build(cfg)
        # the draw rule within the sweep's window
        r_max = max_unambiguous_range(cfgmod.radar_params(cfg))
        for end in dataset["fill_fraction_range"]:
            check_fill_and_cone(cfgmod.scene(cfg), end, 0.0, r_max)
            for height in dataset["cone_height_range"]:
                check_fill_and_cone(cfgmod.scene(cfg), end, height, r_max)
        for c in cfg["grid"]["C"]:
            for gamma in cfg["grid"]["gamma"]:
                cfgmod.kernel_spec(cfg, c=c, gamma=gamma)
    except InvalidParameterError:
        return True
    return False


def _assert_rejects_as_the_schema_did(tmp_path, doc):
    """load_config rejects every document the schema rejects; whatever else it
    rejects holds an integer-valued float at an integer key, a non-finite
    number, a value a parameter object or the draw rule rejects, a reversed
    dataset range, an SNR too low for a float noise power or ranges whose
    surfaces reach beyond the sweep's unambiguous range."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    schema_accepts = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).is_valid(doc)
    try:
        cfgmod.load_config(path)
    except ConfigError:
        if schema_accepts:
            leaves = _leaves(doc, cfgmod.DEFAULT_CONFIG)
            assert (
                any(isinstance(v, float) and type(d) is int for v, d in leaves)
                or any(isinstance(v, float) and not math.isfinite(v) for v, _ in leaves)
                or _objects_reject(doc)
            ), doc
    else:
        assert schema_accepts, doc


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_docs())
def test_rejects_what_the_schema_rejected_and_little_more(tmp_path, doc):
    _assert_rejects_as_the_schema_did(tmp_path, doc)


def test_every_bound_of_the_schema_still_holds(tmp_path):
    """Each value at, just inside or just outside a bound of the schema."""
    for path in VALUE_PATHS:
        for value in _bound_values(path):
            doc = json.loads(json.dumps(BASE_DOC))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            try:
                _assert_rejects_as_the_schema_did(tmp_path, doc)
            except AssertionError:
                pytest.fail(f"{path} = {value!r}: load_config and the schema disagree")
