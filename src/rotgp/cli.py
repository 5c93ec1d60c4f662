"""Command-line front end tying generation, fitting, prediction, evaluation,
and full experiment scenarios into reproducible runs.

Every command resolves its configuration (defaults <- preset <- config file
<- flags), schema-checks it, writes the fully-resolved document next to its
outputs, and is byte-reproducible given the same config and seed.

Exit codes: 0 success, 1 computation failure, 2 usage or config error.
"""

import argparse
import contextlib
import ctypes
import functools
import io
import json
import multiprocessing
import multiprocessing.pool
import os
import signal
import sys
from typing import NamedTuple

import numpy as np

from . import config as cfg
from .config import ConfigError
from .data import (DataFormatError, SyntheticConfig, generate_synthetic,
                   holdout_planes, load_csv, sample_gp_outputs, save_csv,
                   standardize)
from .gp import Dataset, GPModel, PredictiveResult, predict
from .kernels import GramFactorizationError
from .mcmc import RNG_NAME, ChainInitError, load_chain_csv, run_chain, summarize
from .metric import SPECS, InvalidParamsError, NotSpdError, spec_for_columns
from .metrics import append_ledger_row, compute_metrics, write_metrics_json

# Stage seeds inside an experiment are derived from the base seed with these
# fixed offsets and recorded in the resolved config.
_FIT_SEED_OFFSET = {"rotational": 101, "spd": 102, "ard": 103}
_PLANE_SEED_OFFSET = 7

_PR_SET_PDEATHSIG = 1  # prctl option from <linux/prctl.h>

_METRIC_COLUMNS = ["mae", "rmse", "cov68", "cov95", "cov1sigma", "cov2sigma",
                   "std_z", "n_test"]


def _ensure_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_predictions(path, X, truth, mean, sd) -> None:
    columns = ["x", "y", "z"] + (["truth"] if truth is not None else [])
    columns += ["mean", "sd"]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        for i in range(len(mean)):
            cells = [_fmt(v) for v in X[i]]
            if truth is not None:
                cells.append(_fmt(truth[i]))
            cells += [_fmt(mean[i]), _fmt(sd[i])]
            f.write(",".join(cells) + "\n")


def _read_rows(f) -> np.ndarray:
    """The numeric CSV rows left in ``f``; empty when there are none, without
    numpy's no-data warning."""
    lines = f.read().splitlines()
    if not any(line.strip() for line in lines):
        return np.empty((0, 0))
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def _read_predictions(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = _read_rows(f)
    if rows.size == 0 or rows.shape[1] != len(header):
        raise DataFormatError(f"{path}: empty or inconsistent predictions file")
    cols = {name: rows[:, j] for j, name in enumerate(header)}
    for required in ("x", "y", "z", "mean", "sd"):
        if required not in cols:
            raise DataFormatError(f"{path}: missing column {required!r}")
    return cols


def _load_locations(path):
    """Read test locations; the value column (truth) is optional here."""
    with open(path, encoding="utf-8") as f:
        header = [c.strip() for c in f.readline().strip().split(",")]
        if header == ["x", "y", "z", "value"]:
            d = load_csv(path)
            return d.X, d.y
        if header == ["x", "y", "z"]:
            rows = _read_rows(f)
            if rows.size == 0 or rows.shape[1] != 3:
                raise DataFormatError(f"{path}: empty or malformed location file")
            return rows, None
    raise DataFormatError(f"{path}: expected header x,y,z[,value]")


def cmd_generate(doc: dict) -> int:
    doc = dict(doc)
    doc.setdefault("cube_half_width", 1.0)
    out = doc["out_dir"]
    _ensure_dir(out)
    generator = cfg.gp_model_from_dict(doc["generator"])
    synth = SyntheticConfig(
        n_train=doc["n_train"], n_test=doc["n_test"], generator=generator,
        seed=doc["seed"], cube_half_width=doc["cube_half_width"])
    split = generate_synthetic(synth)
    save_csv(os.path.join(out, "train.csv"), split.train)
    save_csv(os.path.join(out, "test.csv"), split.test)
    provenance = dict(split.provenance)
    provenance["generator"] = doc["generator"]
    cfg.dump_json(os.path.join(out, "provenance.json"), provenance)
    cfg.dump_json(os.path.join(out, "resolved-config.json"), doc)
    print(f"wrote train.csv ({split.train.n} points), "
          f"test.csv ({split.test.n} points) to {out}")
    return 0


def _resolve_fit_doc(doc: dict) -> dict:
    merged = cfg.merge(cfg.FIT_DEFAULTS, doc)
    priors = cfg.priors_from_dict(merged["priors"])
    scales = cfg.scales_from_dict(merged["proposal_scales"])
    chain_config = cfg.chain_config_from_dict(merged["chain"])
    merged["priors"] = cfg.priors_to_dict(priors)
    merged["proposal_scales"] = cfg.scales_to_dict(scales)
    merged["chain"] = chain_config.to_dict()
    return merged


def cmd_fit(doc: dict) -> int:
    doc = _resolve_fit_doc(doc)
    out = doc["out_dir"]
    _ensure_dir(out)
    train = load_csv(doc["train_csv"])
    n_raw = train.n
    standardization = None
    if doc["standardize"]:
        train, mu, sd = standardize(train)
        standardization = {"mean": mu, "sd": sd}

    profile = cfg.profile_from_dict(doc["profile"])
    priors = cfg.priors_from_dict(doc["priors"])
    scales = cfg.scales_from_dict(doc["proposal_scales"])
    chain_config = cfg.chain_config_from_dict(doc["chain"])
    spec = SPECS[doc["model"]]
    template = GPModel(profile=profile, params=spec.prior_mean(priors),
                       noise_var=float(doc["noise_sd"]) ** 2)

    chain = run_chain(chain_config, train, template, priors, scales)
    summary = summarize(chain)
    chain.to_csv(os.path.join(out, "chain.csv"))

    mean_params = spec.from_vector(
        [summary.params[name]["mean"] for name in chain.param_names])
    summary_doc = summary.to_dict()
    summary_doc.update({
        "model": {
            "model": doc["model"],
            "profile": doc["profile"],
            "noise_sd": None if chain_config.sample_noise else doc["noise_sd"],
        },
        "posterior_mean_params": mean_params.to_dict(),
        "standardization": standardization,
        "train_csv": doc["train_csv"],
        "n_train": n_raw,
        "seed": chain_config.seed,
        "rng": RNG_NAME,
    })
    cfg.dump_json(os.path.join(out, "summary.json"), summary_doc)
    cfg.dump_json(os.path.join(out, "resolved-config.json"), doc)
    for flag in summary.flags:
        print(f"warning: {flag}", file=sys.stderr)
    rates = ", ".join(f"{b}={r:.3f}" for b, r in summary.acceptance_rates.items())
    print(f"fit {doc['model']}: {chain.n_samples} samples, acceptance {rates}")
    return 0


def _model_from_summary(sdoc: dict):
    model_doc = sdoc["model"]
    params = cfg.metric_params_from_dict(sdoc["posterior_mean_params"])
    noise_sd = model_doc["noise_sd"]
    if noise_sd is not None:
        noise_var = float(noise_sd) ** 2
    else:
        noise_var = float(sdoc["posterior_mean_noise_var"])
    model = GPModel(profile=cfg.profile_from_dict(model_doc["profile"]),
                    params=params, noise_var=noise_var)
    return model, sdoc.get("standardization")


def _mixture_predict(chain_csv, profile, fixed_noise_var, train, X_test):
    """Average the closed-form predictive over stored posterior samples.

    The variance is floored at the mean of the samples' noise variances, a
    true lower bound because each sample's predictive variance is at least
    its own noise variance; the floor absorbs round-off as in ``predict``.
    """
    try:
        names, _, _, states = load_chain_csv(chain_csv)
    except ValueError as exc:
        raise DataFormatError(f"{chain_csv}: {exc}") from None
    spec = spec_for_columns(names)
    if spec is None:
        raise DataFormatError(
            f"{chain_csv}: chain columns {','.join(names)} match no model")
    mean_acc = None
    second_acc = None
    noise_acc = 0.0
    for row in states:
        params, noise_var = spec.from_row(row, fixed_noise_var)
        res = predict(GPModel(profile=profile, params=params,
                              noise_var=noise_var), train, X_test)
        if mean_acc is None:
            mean_acc = np.zeros_like(res.mean)
            second_acc = np.zeros_like(res.mean)
        mean_acc += res.mean
        second_acc += res.var + res.mean ** 2
        noise_acc += noise_var
    n = states.shape[0]
    mean = mean_acc / n
    var = second_acc / n - mean ** 2
    return PredictiveResult(mean=mean, var=np.maximum(var, noise_acc / n))


def cmd_predict(doc: dict) -> int:
    doc = dict(doc)
    doc.setdefault("posterior_mean_of_predictions", False)
    out = doc["out_dir"]
    _ensure_dir(out)
    train = load_csv(doc["train_csv"])
    X_test, truth = _load_locations(doc["test_csv"])

    if "summary_json" in doc:
        with open(doc["summary_json"], encoding="utf-8") as f:
            sdoc = json.load(f)
        model, standardization = _model_from_summary(sdoc)
    elif "model_params" in doc:
        model = cfg.gp_model_from_dict(doc["model_params"])
        standardization = None
    else:
        raise ConfigError("predict needs either summary_json or model_params")

    if standardization is not None:
        mu, sd = standardization["mean"], standardization["sd"]
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
    _write_predictions(os.path.join(out, "predictions.csv"),
                       X_test, truth, mean, np.sqrt(var))
    cfg.dump_json(os.path.join(out, "resolved-config.json"), doc)
    print(f"wrote predictions.csv ({len(mean)} points) to {out}")
    return 0


def cmd_evaluate(doc: dict) -> int:
    doc = dict(doc)
    out = doc["out_dir"]
    _ensure_dir(out)
    cols = _read_predictions(doc["predictions_csv"])
    if "truth" not in cols:
        raise ConfigError(
            f"{doc['predictions_csv']}: predictions file has no truth column")
    pred = PredictiveResult(mean=cols["mean"], var=cols["sd"] ** 2)
    metrics = compute_metrics(pred, cols["truth"])
    label = doc.get("label",
                    os.path.splitext(os.path.basename(doc["predictions_csv"]))[0])
    doc["label"] = label
    write_metrics_json(os.path.join(out, "metrics.json"), metrics, label=label)
    append_ledger_row(os.path.join(out, "metrics-ledger.csv"), metrics, label)
    cfg.dump_json(os.path.join(out, "resolved-config.json"), doc)
    print(f"{label}: mae={metrics.mae:.4f} rmse={metrics.rmse:.4f} "
          f"cov95={metrics.cov95:.3f} std_z={metrics.std_z:.3f}")
    return 0


def _write_comparison(out: str, scenario: str, rows: list[dict]) -> None:
    with open(os.path.join(out, "comparison.csv"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write(",".join(["model"] + _METRIC_COLUMNS) + "\n")
        for row in rows:
            cells = [row["model"]]
            cells += [_fmt(row[c]) if c != "n_test" else str(row[c])
                      for c in _METRIC_COLUMNS]
            f.write(",".join(cells) + "\n")
    cfg.dump_json(os.path.join(out, "comparison.json"),
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
                               {"seed": doc["seed"] + _FIT_SEED_OFFSET[model]}),
            "out_dir": os.path.join(doc["out_dir"], model),
        }
    return fits


class _PipelineResult(NamedTuple):
    """One model's experiment stages as run in a worker: the comparison row,
    the text the stages printed, and the stage that failed with its error."""

    row: dict | None
    stdout: str
    stderr: str
    stage: str
    error: Exception | None


def _model_pipeline(out: str, scenario: str, fit_doc: dict) -> _PipelineResult:
    """Fit, predict and evaluate one model, capturing what the stages print."""
    model = fit_doc["model"]
    stdout, stderr = io.StringIO(), io.StringIO()
    row, error = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
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
            row = {"model": model, **{k: metrics[k] for k in _METRIC_COLUMNS}}
        except Exception as exc:
            # pickles as exc with the worker's traceback text as its cause
            error = multiprocessing.pool.ExceptionWithTraceback(
                exc, exc.__traceback__)
    return _PipelineResult(row, stdout.getvalue(), stderr.getvalue(), stage,
                           error)


def _init_worker() -> None:
    """Workers die with their parent (Linux) and on SIGTERM, and leave
    SIGINT to the parent, whose pool exit then terminates them.

    The parent-death signal also covers a parent killed by SIGKILL. Its
    result is not checked: a worker that cannot set it still does its work.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _run_model_pipelines(out: str, scenario: str,
                         fit_docs: list[dict]) -> list[_PipelineResult]:
    """One forked worker per model (at most three), results in model order.

    Fork, not spawn: workers start without re-importing numpy and scipy
    (about 0.7 s each). The parent runs no threads of its own when it forks;
    the pool starts its handler threads after its workers.
    """
    sys.stdout.flush()  # a forked worker would otherwise repeat buffered text
    sys.stderr.flush()
    pipeline = functools.partial(_model_pipeline, out, scenario)
    context = multiprocessing.get_context("fork")
    # Python's default SIGTERM action would skip the pool's exit, which
    # terminates the workers; as SystemExit it runs.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        with context.Pool(len(fit_docs), initializer=_init_worker) as pool:
            return pool.map(pipeline, fit_docs)
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_experiment(doc: dict) -> int:
    """Generate, then fit -> predict -> evaluate every model in parallel
    worker processes; files and printed lines match a one-by-one run."""
    doc = cfg.merge(cfg.EXPERIMENT_PRESETS[doc["scenario"]], doc)
    out = doc["out_dir"]
    _ensure_dir(out)
    scenario = doc["scenario"]
    stage = "setup"
    try:
        if scenario in ("d1", "d2"):
            stage = "generate"
            gen_doc = {
                "n_train": doc["n_train"], "n_test": doc["n_test"],
                "cube_half_width": doc["cube_half_width"], "seed": doc["seed"],
                "generator": doc["generator"], "out_dir": out,
            }
            cfg.validate("generate", gen_doc)
            cmd_generate(gen_doc)
            planes = None
        else:
            stage = "generate"
            planes = _generate_plane_holdout(doc)

        stage_docs = _experiment_stage_docs(doc)
        resolved = dict(doc)
        resolved["derived_seeds"] = {
            m: d["chain"]["seed"] for m, d in stage_docs.items()}
        if planes is not None:
            resolved["holdout_planes"] = planes
        cfg.dump_json(os.path.join(out, "resolved-config.json"), resolved)

        # Config errors surface here, before any fit starts.
        fit_docs = []
        for model in doc["models"]:
            stage = f"fit:{model}"
            fit_doc = _resolve_fit_doc(stage_docs[model])
            cfg.validate("fit", fit_doc)
            fit_docs.append(fit_doc)

        rows = []
        for result in _run_model_pipelines(out, scenario, fit_docs):
            sys.stderr.write(result.stderr)
            sys.stdout.write(result.stdout)
            if result.error is not None:
                stage = result.stage
                raise result.error
            rows.append(result.row)

        stage = "report"
        _write_comparison(out, scenario, rows)
        if planes is not None:
            _write_per_plane_table(doc, planes)
        print(f"experiment {scenario} complete: comparison table in {out}")
        return 0
    except Exception as exc:
        cfg.dump_json(os.path.join(out, "failure.json"),
                      {"stage": stage, "error": str(exc)})
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
    cfg.dump_json(os.path.join(out, "provenance.json"), provenance)
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
    with open(os.path.join(out, "per_plane_mae.csv"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write(",".join(["plane"] + list(doc["models"])) + "\n")
        for row in rows:
            f.write(",".join([_fmt(row["plane"])]
                             + [_fmt(row[m]) for m in doc["models"]]) + "\n")
    cfg.dump_json(os.path.join(out, "per_plane_mae.json"),
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
    if command == "experiment" and "scenario" in doc:
        scenario = doc["scenario"]
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
    if command == "fit":
        doc = cfg.merge(cfg.FIT_DEFAULTS, doc)
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
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainInitError, GramFactorizationError, NotSpdError,
            InvalidParamsError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
