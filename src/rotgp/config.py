"""Run-configuration handling for the CLI: schemas, presets, resolution.

Every command takes a JSON document, validated against a schema before any
computation, merged over built-in defaults (and a preset, when one is named).
The fully-resolved document is written back next to the outputs so a run can
be reproduced from it alone.
"""

import json
import math
from dataclasses import fields

import jsonschema
import numpy as np

from .gp import GPModel
from .kernels import Matern, SquaredExponential
from .metric import SPECS, MetricParams


class ConfigError(ValueError):
    """Invalid, inconsistent, or missing run configuration."""


_ARRAY3 = {"type": "array", "items": {"type": "number"},
           "minItems": 3, "maxItems": 3}

_PROFILE = {
    "type": "object",
    "properties": {
        "type": {"enum": ["se", "matern"]},
        "nu": {"enum": [0.5, 1.5, 2.5]},
    },
    "required": ["type"],
    "additionalProperties": False,
}

# The model names, and each model's parameter fields, come from metric.SPECS.
_MODEL = {"enum": list(SPECS)}

_MODEL_SPEC = {
    "type": "object",
    "properties": {
        "model": _MODEL,
        "profile": _PROFILE,
        **{f.name: _ARRAY3 for spec in SPECS.values() for f in fields(spec)},
        "noise_sd": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["model", "profile", "noise_sd"],
    "additionalProperties": False,
}

_PRIORS = {
    "type": "object",
    "properties": {
        "lengthscale_mean": _ARRAY3,
        "lengthscale_sd": _ARRAY3,
        "axis_angle_sd": {"type": "number", "exclusiveMinimum": 0},
        "spd_logdiag_sd": {"type": "number", "exclusiveMinimum": 0},
        "spd_offdiag_sd": {"type": "number", "exclusiveMinimum": 0},
        "log_noise_mean": {"type": "number"},
        "log_noise_sd": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

_SCALES = {
    "type": "object",
    "properties": {
        "log_lengthscale": {"type": "number", "exclusiveMinimum": 0},
        "axis_angle": {"type": "number", "exclusiveMinimum": 0},
        "spd": {"type": "number", "exclusiveMinimum": 0},
        "log_noise": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

_CHAIN = {
    "type": "object",
    "properties": {
        "n_iters": {"type": "integer", "minimum": 1},
        "burn_in": {"type": "integer", "minimum": 0},
        "thin": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "block_updates": {"type": "boolean"},
        "sample_noise": {"type": "boolean"},
        "rng": {"const": "pcg64"},
    },
    "additionalProperties": False,
}

GENERATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "generate command configuration",
    "type": "object",
    "properties": {
        "n_train": {"type": "integer", "minimum": 1},
        "n_test": {"type": "integer", "minimum": 1},
        "cube_half_width": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "generator": _MODEL_SPEC,
        "out_dir": {"type": "string"},
    },
    "required": ["n_train", "n_test", "seed", "generator", "out_dir"],
    "additionalProperties": False,
}

FIT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "fit command configuration",
    "type": "object",
    "properties": {
        "train_csv": {"type": "string"},
        "model": _MODEL,
        "profile": _PROFILE,
        "noise_sd": {"type": "number", "exclusiveMinimum": 0},
        "standardize": {"type": "boolean"},
        "priors": _PRIORS,
        "proposal_scales": _SCALES,
        "chain": _CHAIN,
        "out_dir": {"type": "string"},
    },
    "required": ["train_csv", "model", "out_dir"],
    "additionalProperties": False,
}

PREDICT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "predict command configuration",
    "type": "object",
    "properties": {
        "train_csv": {"type": "string"},
        "test_csv": {"type": "string"},
        "summary_json": {"type": "string"},
        "model_params": _MODEL_SPEC,
        "posterior_mean_of_predictions": {"type": "boolean"},
        "chain_csv": {"type": "string"},
        "out_dir": {"type": "string"},
    },
    "required": ["train_csv", "test_csv", "out_dir"],
    "additionalProperties": False,
}

EVALUATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "evaluate command configuration",
    "type": "object",
    "properties": {
        "predictions_csv": {"type": "string"},
        "label": {"type": "string"},
        "out_dir": {"type": "string"},
    },
    "required": ["predictions_csv", "out_dir"],
    "additionalProperties": False,
}

EXPERIMENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "experiment command configuration",
    "type": "object",
    "properties": {
        "scenario": {"enum": ["d1", "d2", "plane-holdout"]},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        "models": {
            "type": "array",
            "items": _MODEL,
            "minItems": 1,
            "uniqueItems": True,
        },
        "n_train": {"type": "integer", "minimum": 1},
        "n_test": {"type": "integer", "minimum": 1},
        "cube_half_width": {"type": "number", "exclusiveMinimum": 0},
        "generator": _MODEL_SPEC,
        "noise_sd": {"type": "number", "exclusiveMinimum": 0},
        "standardize": {"type": "boolean"},
        "priors": _PRIORS,
        "proposal_scales": _SCALES,
        "proposal_scales_by_model": {
            "type": "object",
            "properties": dict.fromkeys(SPECS, _SCALES),
            "additionalProperties": False,
        },
        "chain": _CHAIN,
        "grid": {
            "type": "object",
            "properties": {
                "nx": {"type": "integer", "minimum": 2},
                "ny": {"type": "integer", "minimum": 1},
                "nz": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "n_holdout_planes": {"type": "integer", "minimum": 1},
        "derived_seeds": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "holdout_planes": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["scenario", "seed", "out_dir"],
    "additionalProperties": False,
}

SCHEMAS = {
    "generate": GENERATE_SCHEMA,
    "fit": FIT_SCHEMA,
    "predict": PREDICT_SCHEMA,
    "evaluate": EVALUATE_SCHEMA,
    "experiment": EXPERIMENT_SCHEMA,
}

# Built once: ``jsonschema.validate`` checks the schema against its metaschema
# on every call, which costs far more than the document; the tests check it.
_VALIDATORS = {name: jsonschema.validators.validator_for(schema)(schema)
               for name, schema in SCHEMAS.items()}

_D1_GENERATOR = {
    "model": "rotational",
    "profile": {"type": "se"},
    "lengthscales": [0.40, 0.10, 0.80],
    "axis_angle": [0.7, -0.4, 1.0],
    "noise_sd": 0.05,
}

_D2_GENERATOR = {
    "model": "ard",
    "profile": {"type": "se"},
    "lengthscales": [1.00, 0.25, 0.37],
    "noise_sd": 0.05,
}

# Tilted generator for the synthetic plane-holdout harness: strong range
# contrast and a clearly non-axis-aligned orientation.
_PLANE_GENERATOR = {
    "model": "rotational",
    "profile": {"type": "se"},
    "lengthscales": [0.15, 0.45, 0.90],
    "axis_angle": [0.7, -0.4, 1.0],
    "noise_sd": 0.05,
}

# Full-size synthetic data sets.
_FULL_DATA = {"n_train": 1000, "n_test": 500, "cube_half_width": 1.0}

GENERATE_PRESETS = {
    "d1": {**_FULL_DATA, "seed": 1, "generator": _D1_GENERATOR},
    "d2": {**_FULL_DATA, "seed": 2, "generator": _D2_GENERATOR},
}

_DESK_CHAIN = {"n_iters": 20_000, "burn_in": 10_000, "thin": 5,
               "block_updates": False, "sample_noise": False}

# The rotational model updates six coupled coordinates per joint proposal,
# so desk-scale runs need smaller steps than the three-parameter baselines
# to land in the acceptance-rate window; tuned once and pinned here.
_SCALES_BY_MODEL = {"rotational": {"log_lengthscale": 0.025,
                                   "axis_angle": 0.03}}

# Desk-scale d1 and d2 experiments: every model on a small draw.
_DESK_EXPERIMENT = {
    "models": ["rotational", "spd", "ard"],
    "n_train": 300,
    "n_test": 150,
    "cube_half_width": 1.0,
    "standardize": False,
    "proposal_scales_by_model": _SCALES_BY_MODEL,
    "chain": _DESK_CHAIN,
}

EXPERIMENT_PRESETS = {
    "d1": {**_DESK_EXPERIMENT, "scenario": "d1", "seed": 1,
           "generator": _D1_GENERATOR},
    "d2": {**_DESK_EXPERIMENT, "scenario": "d2", "seed": 2,
           "generator": _D2_GENERATOR},
    "plane-holdout": {
        "scenario": "plane-holdout",
        "seed": 3,
        "models": ["rotational", "ard"],
        "cube_half_width": 1.0,
        "generator": _PLANE_GENERATOR,
        "standardize": False,
        "proposal_scales_by_model": _SCALES_BY_MODEL,
        "grid": {"nx": 10, "ny": 8, "nz": 6},
        "n_holdout_planes": 5,
        "chain": {**_DESK_CHAIN, "n_iters": 12_000, "burn_in": 6_000},
    },
}

FIT_DEFAULTS = {
    "profile": {"type": "se"},
    "noise_sd": 0.05,
    "standardize": False,
    "priors": {},
    "proposal_scales": {},
    "chain": {},
}


def validate(command: str, document: dict) -> None:
    """Schema-check a config document; raises ConfigError on violation."""
    exc = jsonschema.exceptions.best_match(
        _VALIDATORS[command].iter_errors(document))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"invalid {command} config at {path}: {exc.message}")


def merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, nested dicts merge key-wise."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


def load_json(path) -> dict:
    def finite(text):  # NaN, Infinity, -Infinity and overflowing literals
        if not math.isfinite(value := float(text)):
            raise ConfigError(f"config file {path} holds a non-finite number: {text}")
        return value

    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_constant=finite, parse_float=finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def profile_from_dict(doc: dict):
    if doc["type"] == "se":
        return SquaredExponential()
    if "nu" not in doc:
        raise ConfigError("matern profile requires 'nu'")
    return Matern(nu=doc["nu"])


def metric_params_from_dict(doc: dict) -> MetricParams:
    kind = doc.get("model")
    if kind not in SPECS:
        raise ConfigError(f"unknown model {kind!r}")
    try:
        return SPECS[kind].from_dict(doc)
    except KeyError as exc:
        raise ConfigError(f"{kind} model spec is missing field {exc}") from None


def gp_model_from_dict(doc: dict) -> GPModel:
    return GPModel(
        profile=profile_from_dict(doc["profile"]),
        params=metric_params_from_dict(doc),
        noise_var=float(doc["noise_sd"]) ** 2,
    )


def settings_from_dict(cls, doc: dict, what: str):
    """A settings dataclass from the keys of ``doc`` that name its fields.
    The schemas reject every other key; ``chain.rng``, which they pin, has
    no field."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in doc.items() if k in names})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def settings_to_dict(obj) -> dict:
    """Every field of a settings dataclass, arrays as lists of floats."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(obj).items()}
