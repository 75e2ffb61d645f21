"""Experiment configuration: defaults, JSON-schema validation and hashing.

A config file only needs to name a ``seed``; everything else deep-merges
over the defaults below.  The sha256 of the canonical merged document is
embedded in every output artifact, so equal hashes imply byte-identical
reports.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import ConfigError
from .features import MAX_GRAY_LEVELS, METHOD_TAGS, FeatureParams
from .radar import RadarParams, SiloScene
from .svm import KernelSpec

# SiloScene fields whose config key carries the unit suffix "_m" (metres)
_METRE_FIELDS = {
    "diameter", "antenna_height", "rim_range", "cone_height",
    "surface_roughness_sigma", "ripple_amplitude", "ripple_wavelength",
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

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_RANGE2 = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        "radar": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "f_start_hz": _POS_NUM,
                "f_stop_hz": _POS_NUM,
                "n_freq": {"type": "integer", "minimum": 2},
            },
        },
        "scene": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "diameter_m": _POS_NUM,
                "antenna_height_m": _POS_NUM,
                "rim_range_m": _POS_NUM,
                "fill_fraction": {
                    "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1
                },
                "cone_height_m": {"type": "number"},
                "surface_roughness_sigma_m": {"type": "number", "minimum": 0},
                "scatterers_per_scene": {"type": "integer", "minimum": 10},
                "apex_offset_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "peaked_shape_exponent": _POS_NUM,
                "inverted_shape_exponent": _POS_NUM,
                "ripple_amplitude_m": {"type": "number", "minimum": 0},
                "ripple_wavelength_m": _POS_NUM,
                "ripple_crater_factor": {"type": "number", "minimum": 0, "maximum": 1},
                "pour_roughness_factor": {"type": "number", "minimum": 0},
                "drain_roughness_factor": {"type": "number", "minimum": 0},
                "wall_clutter": {"type": "boolean"},
                "wall_clutter_scatterers": {"type": "integer", "minimum": 0},
                "wall_clutter_amplitude": {"type": "number", "minimum": 0},
                "contact_clutter_amplitude": {"type": "number", "minimum": 0},
                "dihedral_gain": {"type": "number", "minimum": 0, "maximum": 1},
                "gain_jitter_db": {"type": "number", "minimum": 0},
            },
        },
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "per_class_counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "snr_db": {
                    "type": "array",
                    "items": {"type": ["number", "null"]},
                    "minItems": 1,
                },
                "fill_fraction_range": _RANGE2,
                "cone_height_range": _RANGE2,
            },
        },
        "features": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gray_levels": {"type": "integer", "minimum": 2, "maximum": MAX_GRAY_LEVELS},
                "stft": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "window_len": {"type": "integer", "minimum": 2},
                        "hop": {"type": "integer", "minimum": 1},
                        "fft_len": {"type": "integer", "minimum": 2},
                    },
                },
                "dwt": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "wavelet": {"type": "string"},
                        "levels": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "methods": {
            "type": "array",
            "items": {"enum": list(METHOD_TAGS)},
            "minItems": 1,
        },
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["linear", "rbf"]},
                "C": _POS_NUM,
                "gamma": {
                    "anyOf": [{"enum": ["scale"]}, {"type": "number", "exclusiveMinimum": 0}]
                },
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "C": {"type": "array", "items": _POS_NUM, "minItems": 1},
                "gamma": {"type": "array", "items": _POS_NUM, "minItems": 1},
            },
        },
        "svm": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": _POS_NUM,
                "max_passes": {"type": "integer", "minimum": 1},
            },
        },
        "cv": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"k": {"type": "integer", "minimum": 2}},
        },
    },
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


# CONFIG_SCHEMA is a constant, so it is checked against the meta-schema by
# the test suite rather than on every load (that check dominated load time).
_VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def validate_config(doc: dict) -> None:
    exc = best_match(_VALIDATOR.iter_errors(doc))
    if exc is not None:
        path = "$" + "".join(
            f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in exc.absolute_path
        )
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
