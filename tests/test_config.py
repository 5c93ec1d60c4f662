"""The schema walker in ``rotgp.config`` against jsonschema, its reference.

rotgp checks its configs without jsonschema, so that no rotgp process loads
it. These tests hold the walker to jsonschema's verdict and error text on
valid documents and on mutations of them.
"""

import copy
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotgp.config import (_KEYWORDS, EXPERIMENT_PRESETS, GENERATE_PRESETS,
                          SCHEMAS, ConfigError, settings_to_dict, validate)
from rotgp.mcmc import ChainConfig, Priors, ProposalScales

# The reference: Draft 2020-12, whose integers include 20.0, with
# ``integer`` redefined as rotgp reads it, a Python int that is no bool.
_DRAFT = jsonschema.Draft202012Validator
_Reference = jsonschema.validators.extend(
    _DRAFT, type_checker=_DRAFT.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))
_REFERENCES = {name: _Reference(schema) for name, schema in SCHEMAS.items()}

_MODEL = {"model": "rotational", "profile": {"type": "matern", "nu": 1.5},
          "lengthscales": [0.4, 0.1, 0.8], "axis_angle": [0.7, -0.4, 1.0],
          "noise_sd": 0.05}
_SETTINGS = {"priors": settings_to_dict(Priors()),
             "proposal_scales": settings_to_dict(ProposalScales()),
             "chain": {**settings_to_dict(ChainConfig()), "rng": "pcg64"}}

# One valid document per command, holding every property its schema names.
VALID = {
    "generate": {**GENERATE_PRESETS["d1"], "cube_half_width": 1.0,
                 "out_dir": "o"},
    "fit": {"train_csv": "t.csv", "model": "spd", "profile": _MODEL["profile"],
            "noise_sd": 0.1, "standardize": True, **_SETTINGS,
            "out_dir": "o"},
    "predict": {"train_csv": "t.csv", "test_csv": "u.csv",
                "summary_json": "s.json", "model_params": _MODEL,
                "posterior_mean_of_predictions": False,
                "chain_csv": "c.csv", "out_dir": "o"},
    "evaluate": {"predictions_csv": "p.csv", "label": "run", "out_dir": "o"},
    "experiment": {**EXPERIMENT_PRESETS["d1"], **EXPERIMENT_PRESETS[
        "plane-holdout"], "seed": 3, "n_train": 30, "n_test": 10,
        "noise_sd": 0.05, **_SETTINGS,
        "derived_seeds": {"ard": 4, "planes": 10},
        "holdout_planes": [-0.5, 0.5], "out_dir": "o"},
}

# Values put in place of others: other types, numbers at and below every
# minimum the schemas hold, integers as true and 20.0, bad enum values.
_VALUES = [True, False, None, 20.0, 1.0, 1.5, 2, 1, 0, 0.0, -1, -0.5,
           "10", "bogus", "se", "ard", "pcg64", [], [1.0, 2.0],
           ["ard", "ard"], {}, {"a": 1}]


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*path, i))


def _mutate(doc, data):
    """Change one node of ``doc`` in place: replace its value, or drop,
    add, cut or repeat one of its members."""
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    node = doc
    for key in path[:-1]:
        node = node[key]
    target = node[path[-1]] if path else doc
    kinds = ["replace"] * bool(path)
    if isinstance(target, dict):
        kinds += ["drop", "add"] if target else ["add"]
    if isinstance(target, list):
        kinds += ["cut", "repeat"] if target else []
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "replace":
        node[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_VALUES)))
    elif kind == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "add":
        target[data.draw(st.sampled_from(["a", "b", "zz"]))] = (
            data.draw(st.sampled_from([1, "x", 20.0])))
    elif kind == "cut":
        del target[data.draw(st.integers(0, len(target) - 1)):]
    else:
        target.append(copy.deepcopy(data.draw(st.sampled_from(target))))


def _reference_error(command, doc):
    best = jsonschema.exceptions.best_match(
        _REFERENCES[command].iter_errors(doc))
    if best is None:
        return None
    path = "/".join(str(p) for p in best.absolute_path) or "(root)"
    return f"invalid {command} config at {path}: {best.message}"


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_valid_documents_pass(command):
    assert _reference_error(command, VALID[command]) is None
    validate(command, VALID[command])


@pytest.mark.parametrize("command", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_walker_agrees_with_jsonschema(command, data):
    doc = copy.deepcopy(VALID[command])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(doc, data)
    expected = _reference_error(command, doc)
    if expected is None:
        validate(command, doc)
    else:
        with pytest.raises(ConfigError) as info:
            validate(command, doc)
        assert str(info.value) == expected


@pytest.mark.parametrize("command, doc, error", [
    ("generate", {**VALID["generate"], "n_train": "10"},
     "n_train: '10' is not of type 'integer'"),
    ("experiment", {**VALID["experiment"], "models": []},
     "models: [] should be non-empty"),
    ("experiment", {**VALID["experiment"], "models": ["ard", "ard"]},
     "models: ['ard', 'ard'] has non-unique elements"),
    ("experiment", {**VALID["experiment"], "models": [True, 1]},
     "models/1: 1 is not one of ['ard', 'rotational', 'spd']"),
    ("evaluate", {**VALID["evaluate"], "b": 1, "a": 2},
     "(root): Additional properties are not allowed ('a', 'b' were "
     "unexpected)"),
    ("fit", {**VALID["fit"], "chain": {"n_iters": 20.0, "thin": True}},
     "chain/thin: True is not of type 'integer'"),
    ("fit", {**VALID["fit"], "chain": {"rng": 1}},
     "chain/rng: 'pcg64' was expected"),
])
def test_error_text(command, doc, error):
    # the greatest of the shallowest paths wins; true is not 1
    with pytest.raises(ConfigError) as info:
        validate(command, doc)
    assert str(info.value) == f"invalid {command} config at {error}"
    assert str(info.value) == _reference_error(command, doc)


def _keywords(schema):
    yield from schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from _keywords(sub)
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            yield from _keywords(value)


def test_every_schema_keyword_is_checked():
    # A keyword the walker does not know would go unchecked, and one that
    # no schema uses is dead code.
    used = {k for schema in SCHEMAS.values() for k in _keywords(schema)}
    assert used == set(_KEYWORDS)


def test_cli_import_loads_no_jsonschema():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, rotgp.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True).stdout.split()
    assert not {m.split(".")[0] for m in loaded} & {"jsonschema",
                                                    "referencing"}
