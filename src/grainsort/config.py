"""Experiment configuration: defaults, validation and hashing.

A config file only needs to name a ``seed``; everything else deep-merges
over the defaults below.  A key must be one of the defaults' and take the
JSON type of its default; each value's bounds are checked by building the
parameter object it becomes.  The sha256 of the canonical merged document
is embedded in every output artifact, so equal hashes imply byte-identical
reports.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError, InvalidParameterError
from .features import METHOD_TAGS, FeatureParams
from .radar import DatasetSpec, RadarParams, SiloScene
from .svm import KernelSpec, SolverSpec

# SiloScene fields whose config key carries the unit suffix "_m" (metres)
_METRE_FIELDS = {
    "diameter", "antenna_height", "rim_range", "surface_roughness_sigma",
    "ripple_amplitude", "ripple_wavelength",
}


def _scene_key(name: str) -> str:
    return name + "_m" if name in _METRE_FIELDS else name


DEFAULT_CONFIG = {
    "seed": 20260809,
    "out_dir": "runs/default",
    "radar": {"f_start_hz": 18e9, "f_stop_hz": 40e9, "n_freq": 301},
    "scene": {_scene_key(f.name): f.default for f in dataclasses.fields(SiloScene)},
    "dataset": {
        "per_class_counts": [1894, 1894, 1893],
        "snr_db": [20.0],
        "fill_fraction_range": [0.35, 0.65],
        "cone_height_range": [0.12, 0.20],
    },
    "features": {
        "gray_levels": 16,
        "stft": {"window_len": 64, "hop": 32, "fft_len": 64},
        "dwt": {"wavelet": "db4", "levels": 4},
    },
    "methods": list(METHOD_TAGS),
    "kernel": {"kind": "rbf", "C": 10.0, "gamma": "scale"},
    "grid": {"C": [0.1, 1.0, 10.0, 100.0], "gamma": [0.001, 0.01, 0.1, 1.0]},
    "svm": {"tol": 1e-3, "max_passes": 30},
    "cv": {"k": 10},
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _is_number(value) -> bool:
    """A number a float holds: not a bool, NaN, an infinity or an integer
    beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) if isinstance(value, float) else abs(value) <= sys.float_info.max


# the JSON type a default's Python type asks for: (test, description)
_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}
# what the defaults cannot type: the values of these keys, or items of these lists
_RULES = {
    ("dataset", "snr_db"): (lambda v: v is None or _is_number(v), "null or a finite number"),
    ("methods",): (lambda v: v in METHOD_TAGS, f"one of {list(METHOD_TAGS)}"),
    ("kernel", "gamma"): (lambda v: v == "scale" or _is_number(v), "'scale' or a finite number"),
}


def _invalid(path, message: str) -> ConfigError:
    at = "$" + "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in path)
    return ConfigError(f"config invalid at {at}: {message}")


def _check_shape(value, default, path=()) -> None:
    """Raise ConfigError unless every key of value is one of default's at the
    same path and holds a value of its default's JSON type."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise _invalid(path, f"{value!r} is not an object")
        for key, item in value.items():
            if key not in default:
                raise _invalid(path, f"unknown key {key!r}")
            _check_shape(item, default[key], path + (key,))
    elif isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise _invalid(path, f"{value!r} is not a list of one or more items")
        for i, item in enumerate(value):
            _check_shape(item, default[0], path + (i,))
    else:
        accepts, kind = _RULES.get(tuple(p for p in path if isinstance(p, str)),
                                   _TYPES[type(default)])
        if not accepts(value):
            raise _invalid(path, f"{value!r} is not {kind}")


def validate_config(doc: dict) -> None:
    """Raise ConfigError unless doc names a seed, has the keys and JSON types
    of DEFAULT_CONFIG and, merged over it, is a usable experiment."""
    _check_shape(doc, DEFAULT_CONFIG)
    if "seed" not in doc:
        raise _invalid((), "'seed' is a required property")
    cfg = _deep_merge(DEFAULT_CONFIG, doc)
    for section in _BUILDERS:
        build(cfg, section)


def load_config(path: Optional[Union[str, Path]] = None, seed: Optional[int] = None,
                out_dir: Optional[str] = None) -> dict:
    """Read, validate and merge a config file over the defaults.

    path None yields the default experiment.  seed/out_dir override the file
    (the CLI --seed / --out flags).
    """
    if path is None:
        doc = {}
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # malformed JSON, or an integer too long to convert
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        validate_config(doc)
    cfg = _deep_merge(DEFAULT_CONFIG, doc)
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    validate_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the experiment definition; out_dir is environmental, not hashed."""
    doc = {k: v for k, v in cfg.items() if k != "out_dir"}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def radar_params(cfg: dict) -> RadarParams:
    r = cfg["radar"]
    return RadarParams(
        f_start=r["f_start_hz"], f_stop=r["f_stop_hz"], n_freq=r["n_freq"]
    )


def scene(cfg: dict) -> SiloScene:
    s = cfg["scene"]
    return SiloScene(**{f.name: s[_scene_key(f.name)] for f in dataclasses.fields(SiloScene)})


def feature_params(cfg: dict) -> FeatureParams:
    f = cfg["features"]
    return FeatureParams(
        gray_levels=f["gray_levels"],
        stft_window_len=f["stft"]["window_len"],
        stft_hop=f["stft"]["hop"],
        stft_fft_len=f["stft"]["fft_len"],
        dwt_wavelet=f["dwt"]["wavelet"],
        dwt_levels=f["dwt"]["levels"],
    )


def kernel_spec(cfg: dict, c: Optional[float] = None, gamma=None) -> KernelSpec:
    k = cfg["kernel"]
    gamma_val = k["gamma"] if gamma is None else gamma
    if gamma_val == "scale":
        gamma_val = None
    return KernelSpec(
        kind=k["kind"], c=float(c if c is not None else k["C"]), gamma=gamma_val
    )


def solver_spec(cfg: dict) -> SolverSpec:
    return SolverSpec(tol=cfg["svm"]["tol"], max_passes=cfg["svm"]["max_passes"])


def dataset_spec(cfg: dict) -> DatasetSpec:
    d = cfg["dataset"]
    return DatasetSpec(
        radar_params(cfg), scene(cfg), d["per_class_counts"], d["fill_fraction_range"],
        d["cone_height_range"], d["snr_db"], seed=cfg["seed"], k=cfg["cv"]["k"],
    )


def _grid_specs(cfg: dict) -> list:
    grid = cfg["grid"]
    return [kernel_spec(cfg, c=c, gamma=g) for c in grid["C"] for g in grid["gamma"]]


# the builder of each section's parameter object, in the order validate_config
# builds them; "dataset" needs a valid sweep and silo
_BUILDERS = {
    "radar": radar_params, "scene": scene, "dataset": dataset_spec,
    "features": feature_params, "kernel": kernel_spec, "grid": _grid_specs,
    "svm": solver_spec,
}
# the config path of a parameter object's field, where it is not the field's
# name under the object's section
_FIELD_PATHS = {("dataset", "seed"): ("seed",), ("dataset", "k"): ("cv", "k"),
                ("dataset", "params"): ("radar",)}


def build(cfg: dict, section: str):
    """The parameter object of one config section of cfg (for "grid", the
    KernelSpec of every grid point).  A value the object rejects raises
    ConfigError at that value's config path, or at the section's where the
    object names no field."""
    try:
        return _BUILDERS[section](cfg)
    except InvalidParameterError as exc:
        path = (section, *exc.field)
        raise _invalid(_FIELD_PATHS.get(path[:2], path), str(exc)) from None
