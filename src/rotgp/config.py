"""Run-configuration handling for the CLI: schemas, presets, resolution.

Every command takes a JSON document, validated against a schema before any
computation, merged over built-in defaults (and a preset, when one is named).
The fully-resolved document is written back next to the outputs so a run can
be reproduced from it alone.
"""

import json
import math
from dataclasses import fields
from numbers import Number

import numpy as np

from .gp import GPModel
from .kernels import Matern, SquaredExponential
from .mcmc import (CHAIN_MINIMA, RNG_NAME, ChainConfig, Priors, ProposalScales,
                   must_be_positive)
from .metric import SPECS, MetricParams
from .table import open_text


class ConfigError(ValueError):
    """Invalid, inconsistent, or missing run configuration."""


_ARRAY3 = {"type": "array", "items": {"type": "number"},
           "minItems": 3, "maxItems": 3}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

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
        "noise_sd": _POSITIVE,
    },
    "required": ["model", "profile", "noise_sd"],
    "additionalProperties": False,
}


def _field_schema(f) -> dict:
    if f.type is np.ndarray:
        return _ARRAY3
    if f.type is bool:
        return {"type": "boolean"}
    if f.type is int:
        return {"type": "integer", "minimum": CHAIN_MINIMA[f.name]}
    return _POSITIVE if must_be_positive(f.name) else {"type": "number"}


def _settings_schema(cls, **pinned) -> dict:
    """The schema of a settings dataclass, from its fields: 3-vectors are
    arrays, flags booleans, integers at least their ``CHAIN_MINIMA`` and
    numbers positive where ``must_be_positive`` says so. ``pinned`` adds
    keys that have no field."""
    return {"type": "object",
            "properties": {**{f.name: _field_schema(f) for f in fields(cls)},
                           **pinned},
            "additionalProperties": False}


_PRIORS = _settings_schema(Priors)
_SCALES = _settings_schema(ProposalScales)
_CHAIN = _settings_schema(ChainConfig, rng={"const": RNG_NAME})

GENERATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "generate command configuration",
    "type": "object",
    "properties": {
        "n_train": {"type": "integer", "minimum": 1},
        "n_test": {"type": "integer", "minimum": 1},
        "cube_half_width": _POSITIVE,
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
        "noise_sd": _POSITIVE,
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
        "cube_half_width": _POSITIVE,
        "generator": _MODEL_SPEC,
        "noise_sd": _POSITIVE,
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

# JSON Schema (Draft 2020-12) as far as SCHEMAS use it. Each keyword maps
# to a check of (keyword value, instance, schema) that gives the message of
# a failure in jsonschema 4.26's words, or None; array and object keywords
# pass other instances, as JSON Schema's do. The keywords mapped to None
# check nothing here: ``items``, ``properties`` and a schema under
# ``additionalProperties`` are checked by descending into the instance.
# An integer is a Python int, not a bool, so 20.0 is no integer.
_IS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def _same(a, b) -> bool:
    """JSON equality: ``true`` is not ``1``, inside arrays and objects too."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _additional(w, v, s):
    extras = (sorted(v.keys() - s.get("properties", {}).keys())
              if w is False and isinstance(v, dict) else ())
    if extras:
        return "Additional properties are not allowed ({} {} unexpected)".format(
            ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
    return None


_KEYWORDS = {
    "$schema": None, "title": None, "items": None, "properties": None,
    "type": lambda w, v, s: None if _IS[w](v) else f"{v!r} is not of type {w!r}",
    "enum": lambda w, v, s: (None if any(_same(v, e) for e in w)
                             else f"{v!r} is not one of {w!r}"),
    "const": lambda w, v, s: None if _same(v, w) else f"{w!r} was expected",
    "minimum": lambda w, v, s: (
        f"{v!r} is less than the minimum of {w!r}"
        if _IS["number"](v) and v < w else None),
    "exclusiveMinimum": lambda w, v, s: (
        f"{v!r} is less than or equal to the minimum of {w!r}"
        if _IS["number"](v) and v <= w else None),
    "minItems": lambda w, v, s: (
        f"{v!r} " + ("should be non-empty" if w == 1 else "is too short")
        if isinstance(v, list) and len(v) < w else None),
    "maxItems": lambda w, v, s: (
        f"{v!r} " + ("is expected to be empty" if w == 0 else "is too long")
        if isinstance(v, list) and len(v) > w else None),
    "uniqueItems": lambda w, v, s: (
        f"{v!r} has non-unique elements"
        if w and isinstance(v, list)
        and any(_same(a, b) for i, a in enumerate(v) for b in v[:i]) else None),
    "required": lambda w, v, s: next(
        (f"{k!r} is a required property"
         for k in w if isinstance(v, dict) and k not in v), None),
    "additionalProperties": _additional,
}


def _parts(schema, value):
    """(key, schema, value) of each array item or object member that a
    subschema of ``schema`` describes."""
    if isinstance(value, list) and "items" in schema:
        yield from ((i, schema["items"], v) for i, v in enumerate(value))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        rest = schema.get("additionalProperties", True)
        for key, v in value.items():
            sub = props.get(key, rest)
            if isinstance(sub, dict):
                yield key, sub, v


def _first_error(schema, value, path=()):
    """``(path, message)`` of the error jsonschema's ``best_match`` reports,
    or None: the shallowest, then the greatest path, then the first failing
    keyword in the schema's order. An error here is shallower than any
    below, so the parts are walked only when this level holds."""
    for keyword, want in schema.items():
        check = _KEYWORDS[keyword]
        if check and (message := check(want, value, schema)) is not None:
            return path, message
    errors = filter(None, (_first_error(sub, v, (*path, key))
                           for key, sub, v in _parts(schema, value)))
    return max(errors, key=lambda e: (-len(e[0]), e[0]), default=None)


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

# The default chain; an experiment derives each model's seed from its own.
_DESK_CHAIN = {k: v for k, v in vars(ChainConfig()).items() if k != "seed"}

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
    error = _first_error(SCHEMAS[command], document)
    if error is not None:
        path = "/".join(map(str, error[0])) or "(root)"
        raise ConfigError(f"invalid {command} config at {path}: {error[1]}")


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
        with open_text(path, ConfigError) as f:
            doc = json.load(f, parse_constant=finite, parse_float=finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    return doc


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
