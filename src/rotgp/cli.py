"""Command-line front end tying generation, fitting, prediction, evaluation,
and full experiment scenarios into reproducible runs.

Every command resolves its configuration (defaults <- preset <- config file
<- flags), schema-checks it, writes the fully-resolved document next to its
outputs, and is byte-reproducible given the same config and seed.

Exit codes: 0 success, 1 computation failure, 2 usage or config error.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import config as cfg
from .config import ConfigError
from .data import (SyntheticConfig, generate_synthetic, holdout_planes,
                   load_csv, sample_gp_outputs, save_csv, standardize)
from .fork import fork_map, usable_cpus
from .gp import Dataset, GPModel, PredictiveResult, predict
from .kernels import GramFactorizationError
from .mcmc import (RNG_NAME, ChainConfig, ChainInitError, Priors,
                   ProposalScales, load_chain_csv, prior_mean, row_params,
                   run_chain, summarize)
from .metric import SPECS, InvalidParamsError, NotSpdError
from .metrics import (FIELDS, append_ledger_row, compute_metrics,
                      write_metrics_json)
from .table import (DataFormatError, data_line, dump_json, read_table,
                    write_table)

# Stage seeds inside an experiment are derived from the base seed with fixed
# offsets (this one, and each spec's ``seed_offset`` for its fit) and recorded
# in the resolved config.
_PLANE_SEED_OFFSET = 7


def _ensure_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def _write_predictions(path, X, truth, mean, sd) -> None:
    cols = {"x": X[:, 0], "y": X[:, 1], "z": X[:, 2], "truth": truth,
            "mean": mean, "sd": sd}
    cols = {name: col for name, col in cols.items() if col is not None}
    write_table(path, list(cols),
                np.column_stack(list(cols.values())).tolist())


def _read_predictions(path) -> dict:
    header, rows = read_table(path)
    cols = dict(zip(header, rows.T))
    for required in ("x", "y", "z", "mean", "sd"):
        if required not in cols:
            raise DataFormatError(f"{path}: missing column {required!r}")
    bad = np.flatnonzero(cols["sd"] <= 0.0)
    if bad.size:
        raise DataFormatError(
            f"{path}: line {data_line(path, int(bad[0]))}: sd must be positive")
    return cols


def _load_locations(path):
    """Read test locations; the value column (truth) is optional here."""
    header, rows = read_table(path)
    if header not in (["x", "y", "z"], ["x", "y", "z", "value"]):
        raise DataFormatError(f"{path}: line 1: expected header x,y,z[,value]")
    return rows[:, :3], (rows[:, 3] if rows.shape[1] == 4 else None)


def cmd_generate(doc: dict) -> int:
    doc = dict(doc)
    doc.setdefault("cube_half_width", 1.0)
    out = doc["out_dir"]
    generator = cfg.gp_model_from_dict(doc["generator"])
    synth = SyntheticConfig(
        n_train=doc["n_train"], n_test=doc["n_test"], generator=generator,
        seed=doc["seed"], cube_half_width=doc["cube_half_width"])
    _ensure_dir(out)
    split = generate_synthetic(synth)
    save_csv(os.path.join(out, "train.csv"), split.train)
    save_csv(os.path.join(out, "test.csv"), split.test)
    provenance = dict(split.provenance)
    provenance["generator"] = doc["generator"]
    dump_json(os.path.join(out, "provenance.json"), provenance)
    dump_json(os.path.join(out, "resolved-config.json"), doc)
    print(f"wrote train.csv ({split.train.n} points), "
          f"test.csv ({split.test.n} points) to {out}")
    return 0


def _resolve_fit_doc(doc: dict):
    """The fit document over its defaults with every setting written out,
    and the priors, proposal scales and chain config it holds."""
    doc = cfg.merge(cfg.FIT_DEFAULTS, doc)
    priors = cfg.settings_from_dict(Priors, doc["priors"], "priors")
    scales = cfg.settings_from_dict(ProposalScales, doc["proposal_scales"],
                                    "proposal scales")
    chain_config = cfg.settings_from_dict(ChainConfig, doc["chain"],
                                          "chain config")
    doc["priors"] = cfg.settings_to_dict(priors)
    doc["proposal_scales"] = cfg.settings_to_dict(scales)
    doc["chain"] = {**cfg.settings_to_dict(chain_config), "rng": RNG_NAME}
    return doc, priors, scales, chain_config


def cmd_fit(doc: dict) -> int:
    doc, priors, scales, chain_config = _resolve_fit_doc(doc)
    out = doc["out_dir"]
    train = load_csv(doc["train_csv"])
    n_raw = train.n
    standardization = None
    if doc["standardize"]:
        train, mu, sd = standardize(train)
        standardization = {"mean": mu, "sd": sd}

    profile = cfg.profile_from_dict(doc["profile"])
    spec = SPECS[doc["model"]]
    template = GPModel(profile=profile,
                       params=spec.from_vector(prior_mean(spec, priors)),
                       noise_var=float(doc["noise_sd"]) ** 2)

    # before the chain, so an unwritable directory fails before the long work
    _ensure_dir(out)
    chain = run_chain(chain_config, train, template, priors, scales)
    summary = summarize(chain)
    chain.to_csv(os.path.join(out, "chain.csv"))

    summary_doc = summary.to_dict()
    summary_doc.update({
        "model": {
            "model": doc["model"],
            "profile": doc["profile"],
            "noise_sd": None if chain_config.sample_noise else doc["noise_sd"],
        },
        "standardization": standardization,
        "train_csv": doc["train_csv"],
        "n_train": n_raw,
        "seed": chain_config.seed,
        "rng": RNG_NAME,
    })
    dump_json(os.path.join(out, "summary.json"), summary_doc)
    dump_json(os.path.join(out, "resolved-config.json"), doc)
    for flag in summary.flags:
        print(f"warning: {flag}", file=sys.stderr)
    rates = ", ".join(f"{b}={r:.3f}" for b, r in summary.acceptance_rates.items())
    print(f"fit {doc['model']}: {chain.n_samples} samples, acceptance {rates}")
    return 0


def _model_from_summary(path):
    """The plug-in model a fit's summary file holds, and its standardization
    ``(mean, sd)`` or None; a file that is no fit summary is a config error."""
    try:
        with open(path, encoding="utf-8") as f:
            sdoc = json.load(f)
        model_doc, std = sdoc["model"], sdoc.get("standardization")
        noise_sd = model_doc["noise_sd"]
        model = GPModel(
            profile=cfg.profile_from_dict(model_doc["profile"]),
            params=cfg.metric_params_from_dict(sdoc["posterior_mean_params"]),
            noise_var=(float(sdoc["posterior_mean_noise_var"])
                       if noise_sd is None else float(noise_sd) ** 2))
        return model, None if std is None else (std["mean"], std["sd"])
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: not a fit summary: no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a fit summary: {exc}") from None


def _sample_predictive(spec, profile, fixed_noise_var, train, X_test, row):
    """One stored sample's predictive mean and variance, and its noise."""
    params, noise_var = row_params(spec, row, fixed_noise_var)
    res = predict(GPModel(profile, params, noise_var), train, X_test)
    return res.mean, res.var, noise_var


def _mixture_predict(chain_csv, profile, fixed_noise_var, train, X_test):
    """Average the closed-form predictive over stored posterior samples.

    The samples are predicted in up to one worker process per usable CPU and
    summed here in chain order, so the result does not depend on the number
    of workers. The variance is floored at the mean of the samples' noise
    variances, a true lower bound because each sample's predictive variance
    is at least its own noise variance; the floor absorbs round-off as in
    ``predict``.
    """
    spec, _, _, states = load_chain_csv(chain_csv)
    sample = functools.partial(_sample_predictive, spec, profile,
                               fixed_noise_var, train, X_test)
    per_sample = fork_map(sample, list(states), usable_cpus())
    mean_acc = np.zeros_like(per_sample[0][0])
    second_acc = np.zeros_like(mean_acc)
    noise_acc = 0.0
    for mean, var, noise_var in per_sample:
        mean_acc += mean
        second_acc += var + mean ** 2
        noise_acc += noise_var
    n = states.shape[0]
    mean = mean_acc / n
    var = second_acc / n - mean ** 2
    return PredictiveResult(mean=mean, var=np.maximum(var, noise_acc / n))


def cmd_predict(doc: dict) -> int:
    doc = dict(doc)
    doc.setdefault("posterior_mean_of_predictions", False)
    out = doc["out_dir"]
    train = load_csv(doc["train_csv"])
    X_test, truth = _load_locations(doc["test_csv"])

    if "summary_json" in doc:
        model, standardization = _model_from_summary(doc["summary_json"])
    elif "model_params" in doc:
        model = cfg.gp_model_from_dict(doc["model_params"])
        standardization = None
    else:
        raise ConfigError("predict needs either summary_json or model_params")

    if standardization is not None:
        mu, sd = standardization
        train = Dataset(train.X, (train.y - mu) / sd)

    if doc["posterior_mean_of_predictions"]:
        chain_csv = doc.get("chain_csv")
        if chain_csv is None and "summary_json" in doc:
            chain_csv = os.path.join(os.path.dirname(doc["summary_json"]),
                                     "chain.csv")
        if chain_csv is None:
            raise ConfigError("posterior_mean_of_predictions needs chain_csv")
        result = _mixture_predict(chain_csv, model.profile, model.noise_var,
                                  train, X_test)
    else:
        result = predict(model, train, X_test)

    mean, var = result.mean, result.var
    if standardization is not None:
        mean = mean * sd + mu
        var = var * sd ** 2
    _ensure_dir(out)
    _write_predictions(os.path.join(out, "predictions.csv"),
                       X_test, truth, mean, np.sqrt(var))
    dump_json(os.path.join(out, "resolved-config.json"), doc)
    print(f"wrote predictions.csv ({len(mean)} points) to {out}")
    return 0


def cmd_evaluate(doc: dict) -> int:
    doc = dict(doc)
    out = doc["out_dir"]
    cols = _read_predictions(doc["predictions_csv"])
    if "truth" not in cols:
        raise ConfigError(
            f"{doc['predictions_csv']}: predictions file has no truth column")
    _ensure_dir(out)
    pred = PredictiveResult(mean=cols["mean"], var=cols["sd"] ** 2)
    metrics = compute_metrics(pred, cols["truth"])
    label = doc.get("label",
                    os.path.splitext(os.path.basename(doc["predictions_csv"]))[0])
    doc["label"] = label
    write_metrics_json(os.path.join(out, "metrics.json"), metrics, label=label)
    append_ledger_row(os.path.join(out, "metrics-ledger.csv"), metrics, label)
    dump_json(os.path.join(out, "resolved-config.json"), doc)
    print(f"{label}: mae={metrics.mae:.4f} rmse={metrics.rmse:.4f} "
          f"cov95={metrics.cov95:.3f} std_z={metrics.std_z:.3f}")
    return 0


def _write_comparison(out: str, scenario: str, rows: list[dict]) -> None:
    write_table(os.path.join(out, "comparison.csv"),
                ["model"] + FIELDS,
                [[row["model"]] + [row[c] for c in FIELDS]
                 for row in rows])
    dump_json(os.path.join(out, "comparison.json"),
              {"scenario": scenario, "rows": rows})


def _grid_points(grid: dict, half_width: float) -> np.ndarray:
    xs = np.linspace(-half_width, half_width, grid["nx"])
    ys = np.linspace(-half_width, half_width, grid["ny"])
    zs = np.linspace(-half_width, half_width, grid["nz"])
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def _experiment_stage_docs(doc: dict):
    """Per-model fit docs with derived seeds, shared by both scenarios."""
    fits = {}
    by_model = doc.get("proposal_scales_by_model", {})
    for model in doc["models"]:
        scales = cfg.merge(doc.get("proposal_scales", {}),
                           by_model.get(model, {}))
        fits[model] = {
            "train_csv": os.path.join(doc["out_dir"], "train.csv"),
            "model": model,
            "profile": doc["generator"]["profile"],
            "noise_sd": doc.get("noise_sd", doc["generator"]["noise_sd"]),
            "standardize": doc.get("standardize", False),
            "priors": doc.get("priors", {}),
            "proposal_scales": scales,
            "chain": cfg.merge(doc.get("chain", {}),
                               {"seed": doc["seed"] + SPECS[model].seed_offset}),
            "out_dir": os.path.join(doc["out_dir"], model),
        }
    return fits


def _model_pipeline(out: str, scenario: str, fit_doc: dict) -> dict:
    """Fit, predict and evaluate one model; its comparison row. An error
    carries the stage that raised it as ``stage``."""
    model = fit_doc["model"]
    try:
        stage = f"fit:{model}"
        cmd_fit(fit_doc)

        stage = f"predict:{model}"
        predict_doc = {
            "train_csv": os.path.join(out, "train.csv"),
            "test_csv": os.path.join(out, "test.csv"),
            "summary_json": os.path.join(out, model, "summary.json"),
            "out_dir": os.path.join(out, model),
        }
        cfg.validate("predict", predict_doc)
        cmd_predict(predict_doc)

        stage = f"evaluate:{model}"
        eval_doc = {
            "predictions_csv": os.path.join(out, model, "predictions.csv"),
            "label": f"{scenario}-{model}",
            "out_dir": os.path.join(out, model),
        }
        cfg.validate("evaluate", eval_doc)
        cmd_evaluate(eval_doc)
        with open(os.path.join(out, model, "metrics.json"),
                  encoding="utf-8") as f:
            metrics = json.load(f)
    except Exception as exc:
        exc.stage = stage
        raise
    return {"model": model, **{k: metrics[k] for k in FIELDS}}


def cmd_experiment(doc: dict) -> int:
    """Generate, then fit -> predict -> evaluate every model in parallel
    worker processes; files and printed lines match a one-by-one run."""
    out = doc["out_dir"]
    _ensure_dir(out)
    scenario = doc["scenario"]
    stage = "setup"
    try:
        # Config errors surface here, before any output but failure.json.
        stage_docs = _experiment_stage_docs(doc)
        fit_docs = []
        for model in doc["models"]:
            stage = f"fit:{model}"
            fit_doc = _resolve_fit_doc(stage_docs[model])[0]
            cfg.validate("fit", fit_doc)
            fit_docs.append(fit_doc)

        stage = "generate"
        if scenario in ("d1", "d2"):
            gen_doc = {
                "n_train": doc["n_train"], "n_test": doc["n_test"],
                "cube_half_width": doc["cube_half_width"], "seed": doc["seed"],
                "generator": doc["generator"], "out_dir": out,
            }
            cfg.validate("generate", gen_doc)
            cmd_generate(gen_doc)
            planes = None
        else:
            planes = _generate_plane_holdout(doc)

        resolved = dict(doc)
        resolved["derived_seeds"] = {
            m: d["chain"]["seed"] for m, d in stage_docs.items()}
        if planes is not None:
            resolved["holdout_planes"] = planes
        dump_json(os.path.join(out, "resolved-config.json"), resolved)

        # One worker per model (at most three), not capped at the CPU count.
        # A worker that dies without its results leaves this stage.
        stage = f"fit:{doc['models'][-1]}"
        pipeline = functools.partial(_model_pipeline, out, scenario)
        rows = fork_map(pipeline, fit_docs, len(fit_docs))

        stage = "report"
        _write_comparison(out, scenario, rows)
        if planes is not None:
            _write_per_plane_table(doc, planes)
        print(f"experiment {scenario} complete: comparison table in {out}")
        return 0
    except Exception as exc:
        dump_json(os.path.join(out, "failure.json"),
                  {"stage": getattr(exc, "stage", stage), "error": str(exc)})
        raise


def _generate_plane_holdout(doc: dict) -> list[float]:
    """Gridded synthetic field with randomly selected held-out x-planes."""
    out = doc["out_dir"]
    grid = doc["grid"]
    half = doc["cube_half_width"]
    X = _grid_points(grid, half)
    generator = cfg.gp_model_from_dict(doc["generator"])
    rng = np.random.Generator(np.random.PCG64(doc["seed"]))
    y = sample_gp_outputs(generator, X, rng)

    xs = np.linspace(-half, half, grid["nx"])
    plane_rng = np.random.Generator(np.random.PCG64(doc["seed"] + _PLANE_SEED_OFFSET))
    chosen = np.sort(plane_rng.choice(xs, size=doc["n_holdout_planes"],
                                      replace=False))
    split = holdout_planes(Dataset(X, y), "x", chosen.tolist(), tol=1e-9)
    save_csv(os.path.join(out, "train.csv"), split.train)
    save_csv(os.path.join(out, "test.csv"), split.test)
    provenance = dict(split.provenance)
    provenance.update({"seed": doc["seed"], "rng": RNG_NAME,
                       "grid": grid, "generator": doc["generator"]})
    dump_json(os.path.join(out, "provenance.json"), provenance)
    return [float(v) for v in chosen]


def _write_per_plane_table(doc: dict, planes: list[float]) -> None:
    """Per-plane MAE comparison across models, from the prediction files."""
    out = doc["out_dir"]
    preds = {model: _read_predictions(os.path.join(out, model, "predictions.csv"))
             for model in doc["models"]}
    rows = []
    for plane in planes:
        row = {"plane": plane}
        for model, cols in preds.items():
            mask = np.abs(cols["x"] - plane) <= 1e-9
            row[model] = float(np.mean(np.abs(cols["truth"][mask]
                                              - cols["mean"][mask])))
        rows.append(row)
    write_table(os.path.join(out, "per_plane_mae.csv"),
                ["plane"] + list(doc["models"]),
                [[row["plane"]] + [row[m] for m in doc["models"]]
                 for row in rows])
    dump_json(os.path.join(out, "per_plane_mae.json"),
              {"planes": rows, "models": list(doc["models"])})


_COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
}


def _resolve(command: str, args) -> dict:
    doc = {}
    if args.preset is not None:
        presets = {"generate": cfg.GENERATE_PRESETS,
                   "experiment": cfg.EXPERIMENT_PRESETS}.get(command)
        if presets is None:
            raise ConfigError(f"--preset is not supported for {command}")
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"choose from {sorted(presets)}")
        doc = cfg.merge(doc, presets[args.preset])
    if args.config is not None:
        doc = cfg.merge(doc, cfg.load_json(args.config))
    scenario = doc.get("scenario") if command == "experiment" else None
    if isinstance(scenario, str):  # any other value fails the schema check
        if scenario not in cfg.EXPERIMENT_PRESETS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        doc = cfg.merge(cfg.EXPERIMENT_PRESETS[scenario], doc)
    if args.seed is not None:
        if command in ("generate", "experiment"):
            doc["seed"] = args.seed
        elif command == "fit":
            doc = cfg.merge(doc, {"chain": {"seed": args.seed}})
        else:
            raise ConfigError(f"--seed does not apply to {command}")
    if args.out is not None:
        doc["out_dir"] = args.out
    if command == "predict" and getattr(args, "posterior_mean_of_predictions",
                                        False):
        doc["posterior_mean_of_predictions"] = True
    cfg.validate(command, doc)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotgp",
        description="Anisotropic-metric GP regression experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration document")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the run seed")
    common.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    common.add_argument("--preset", metavar="NAME",
                        help="built-in configuration preset")
    sub.add_parser("generate", parents=[common],
                   help="draw a synthetic dataset (presets: d1, d2)")
    sub.add_parser("fit", parents=[common],
                   help="run an MCMC fit on a training CSV")
    p_predict = sub.add_parser("predict", parents=[common],
                               help="closed-form predictions at test inputs")
    p_predict.add_argument("--posterior-mean-of-predictions",
                           action="store_true",
                           help="average predictions over stored samples "
                                "instead of plugging in posterior means")
    sub.add_parser("evaluate", parents=[common],
                   help="score a predictions file against its truth column")
    sub.add_parser("experiment", parents=[common],
                   help="run a full scenario (d1, d2, plane-holdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _resolve(args.command, args)
        return _COMMANDS[args.command](doc)
    except (ConfigError, DataFormatError, FileNotFoundError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainInitError, GramFactorizationError, NotSpdError,
            InvalidParamsError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
