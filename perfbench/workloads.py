"""The benchmark workloads: inputs, timed command sequences, checks.

Each workload builds its inputs from the seed (untimed), then names the
``rotgp`` command sequence whose wall time is measured, at full size and cut
to its minimum (``setup_s``), and checks the outputs against the independent
numerics in ``reference.py``. Repetition ``r`` of the d1-desk experiment runs
with seed ``100 * seed + r``, so the median over repetitions averages over
chains as well as over machine noise.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

# Spread of the stored samples the mixture workload writes around the d1
# truth: log length-scale and axis-angle standard deviations.
MIXTURE_SPREAD = 0.03

# Relative tolerances of the output checks, and how much they look at:
# stored chain rows per fit, test points of the mixture.
LML_RTOL = 1e-10
MIXTURE_RTOL = 1e-9
CHECK_ROWS = 3
CHECK_POINTS = 4

MINIMAL_CHAIN = {"n_iters": 2, "burn_in": 1, "thin": 1}

# Text columns of the CLI's CSV outputs (comparison table, metrics ledger).
LABEL_COLUMNS = {"model", "label"}


@dataclass(frozen=True)
class Sizes:
    desk_train: int
    desk_test: int
    desk_iters: int
    full_train: int
    full_test: int
    mixture_samples: int


FULL = Sizes(desk_train=300, desk_test=150, desk_iters=500,
             full_train=1000, full_test=500, mixture_samples=80)
TOY = Sizes(desk_train=24, desk_test=8, desk_iters=20,
            full_train=30, full_test=10, mixture_samples=4)


@dataclass
class Sequence:
    """rotgp argument lists run one after another, and the work they do."""

    commands: list
    iterations: int
    samples: int


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _chain(n_iters: int) -> dict:
    return {"n_iters": n_iters, "burn_in": n_iters // 2, "thin": 1}


def _write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    return path


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1.0)


def read_table(path) -> tuple[list, np.ndarray]:
    """Header and rows of a numeric CSV; raises ValueError unless every
    value is finite."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    if rows.shape[0] == 0 or rows.shape[1] != len(header):
        raise ValueError(f"{path}: empty or ragged")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{path}: non-finite value")
    return header, rows


def _finite_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f, parse_constant=lambda c: float(c))

    def walk(node):
        if isinstance(node, dict):
            return all(walk(v) for v in node.values())
        if isinstance(node, list):
            return all(walk(v) for v in node)
        if isinstance(node, float):
            return math.isfinite(node)
        return True

    if not walk(doc):
        raise ValueError(f"{path}: non-finite value")
    return doc


def _guard(name: str, fn) -> Check:
    """Run one check; a missing or malformed file fails it."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, bool(ok), detail)


def _finite_csv(path) -> dict:
    """Columns of a CSV whose cells, outside label columns, are finite numbers."""
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = list(csv.reader(f))
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: empty or ragged")
    cols = {}
    for j, name in enumerate(header):
        if name in LABEL_COLUMNS:
            continue
        cols[name] = np.array([float(r[j]) for r in rows])
        if not np.all(np.isfinite(cols[name])):
            raise ValueError(f"{path}: non-finite value in {name}")
    return cols


def parse_outputs(out_dir: str) -> Check:
    """Every CSV and JSON under out_dir parses with finite values, and every
    predictions file has sd > 0."""
    def run():
        seen = 0
        for dirpath, _, files in os.walk(out_dir):
            for fname in sorted(files):
                path = os.path.join(dirpath, fname)
                if fname.endswith(".json"):
                    _finite_json(path)
                elif fname.endswith(".csv"):
                    cols = _finite_csv(path)
                    if "sd" in cols and np.any(cols["sd"] <= 0.0):
                        return False, f"{path}: sd <= 0"
                else:
                    continue
                seen += 1
        return seen > 0, f"{seen} files"
    return _guard(f"parse {os.path.basename(out_dir)}", run)


def lml_matches_reference(train_csv: str) -> Check:
    """rotgp's log marginal likelihood at the d1 truth against the reference."""
    def run():
        from rotgp.gp import Dataset, GPModel, log_marginal_likelihood
        from rotgp.kernels import SquaredExponential
        from rotgp.metric import Rotational
        _, rows = read_table(train_csv)
        X, y = rows[:, :3], rows[:, 3]
        model = GPModel(SquaredExponential(),
                        Rotational(ref.D1_LENGTHSCALES, ref.D1_AXIS_ANGLE),
                        ref.D1_NOISE_SD ** 2)
        got = log_marginal_likelihood(model, Dataset(X, y))
        want = ref.log_likelihood(
            ref.metric("rotational", ref.D1_LENGTHSCALES + ref.D1_AXIS_ANGLE),
            X, y, ref.D1_NOISE_SD ** 2)
        err = _rel_err(got, want)
        return err <= LML_RTOL, f"n={len(y)} rel err {err:.1e}"
    return _guard(f"lml reference {os.path.basename(os.path.dirname(train_csv))}",
                  run)


def fit_settings(fit_dir: str) -> dict:
    """Chain, priors and noise_sd of the fit written to fit_dir, from its
    resolved-config.json, or from the experiment's one directory up (later
    stages of an experiment overwrite the fit's own)."""
    with open(os.path.join(fit_dir, "resolved-config.json"),
              encoding="utf-8") as f:
        doc = json.load(f)
    if "chain" in doc:
        return doc
    with open(os.path.join(os.path.dirname(fit_dir), "resolved-config.json"),
              encoding="utf-8") as f:
        exp = json.load(f)
    return {"chain": exp["chain"],
            "priors": dict(ref.DEFAULT_PRIORS, **exp.get("priors", {})),
            "noise_sd": exp.get("noise_sd", exp["generator"]["noise_sd"])}


def log_post_matches_reference(fit_dir: str, train_csv: str) -> Check:
    """A few stored chain rows: log_post equals the reference likelihood plus
    the log prior of the resolved configuration."""
    def run():
        doc = fit_settings(fit_dir)
        names, rows = read_table(os.path.join(fit_dir, "chain.csv"))
        _, train = read_table(train_csv)
        kind = ref.kind_of(names)
        noise_var = float(doc["noise_sd"]) ** 2
        picks = sorted({round(i * (len(rows) - 1) / (CHECK_ROWS - 1))
                        for i in range(CHECK_ROWS)})
        worst = 0.0
        for i in picks:
            core = rows[i, 2:2 + ref.N_CORE[kind]]
            want = (ref.log_likelihood(ref.metric(kind, core), train[:, :3],
                                       train[:, 3], noise_var)
                    + ref.log_prior(kind, core, doc["priors"]))
            worst = max(worst, _rel_err(rows[i, 1], want))
        return worst <= LML_RTOL, f"{len(picks)} rows, rel err {worst:.1e}"
    return _guard(f"log_post {os.path.basename(fit_dir)}", run)


def chain_ess(fit_dirs) -> float | None:
    """Smallest metric-entry ESS over the chains in fit_dirs."""
    values = []
    for fit_dir in fit_dirs:
        names, rows = read_table(os.path.join(fit_dir, "chain.csv"))
        value = ref.min_metric_ess(ref.kind_of(names), rows[:, 2:])
        if value is None:
            return None
        values.append(value)
    return min(values)


class Workload:
    name = ""

    def __init__(self, root: str, seed: int, sizes: Sizes):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.inputs = os.path.join(root, "inputs")
        os.makedirs(self.inputs, exist_ok=True)

    def prepare(self) -> list:
        """Untimed rotgp commands that build the inputs."""
        return []

    def after_prepare(self) -> None:
        """Input files the benchmark writes itself, once prepare has run."""

    def sequence(self, out_dir: str, minimal: bool, rep: int) -> Sequence:
        raise NotImplementedError

    def checks(self, out_dir: str) -> list:
        raise NotImplementedError

    def ess(self, out_dir: str) -> float | None:
        raise NotImplementedError


class DeskExperiment(Workload):
    """The user's whole d1 pipeline at desk size: three fits, predict, evaluate."""

    name = "d1-desk"
    models = ("rotational", "spd", "ard")

    def rep_seed(self, rep: int) -> int:
        return 100 * self.seed + rep

    def sequence(self, out_dir, minimal, rep):
        s = self.sizes
        chain = MINIMAL_CHAIN if minimal else _chain(s.desk_iters)
        config = _write_json(out_dir + ".config.json", {
            "n_train": s.desk_train, "n_test": s.desk_test, "chain": chain})
        kept = (chain["n_iters"] - chain["burn_in"]) // chain["thin"]
        return Sequence(
            [["experiment", "--preset", "d1", "--seed", str(self.rep_seed(rep)),
              "--config", config, "--out", out_dir]],
            iterations=len(self.models) * chain["n_iters"],
            samples=len(self.models) * kept)

    def checks(self, out_dir):
        train = os.path.join(out_dir, "train.csv")
        return ([parse_outputs(out_dir), lml_matches_reference(train)]
                + [log_post_matches_reference(os.path.join(out_dir, m), train)
                   for m in self.models])

    def ess(self, out_dir):
        return chain_ess([os.path.join(out_dir, m) for m in self.models])


class FullMixture(Workload):
    """Posterior-mean-of-predictions over stored samples on d1 data at full
    size (n = 1000 train, 500 test) from the generate preset; the stored
    chain is written by the benchmark, so no MCMC runs.

    Only ``predict`` is timed: a second interpreter start for ``evaluate``
    doubled the start-up noise that ``iter_ms`` subtracts, and ``evaluate``
    is timed inside d1-desk.
    """

    name = "d1-full-mixture"

    _lml_checked = False

    def prepare(self):
        s = self.sizes
        config = _write_json(os.path.join(self.inputs, "generate.json"),
                             {"n_train": s.full_train, "n_test": s.full_test})
        return [["generate", "--preset", "d1", "--seed", str(self.seed),
                 "--config", config, "--out", self.inputs]]

    @property
    def train_csv(self):
        return os.path.join(self.inputs, "train.csv")

    @property
    def test_csv(self):
        return os.path.join(self.inputs, "test.csv")

    def chain_csv(self, minimal: bool) -> str:
        return os.path.join(self.inputs,
                            "chain-1.csv" if minimal else "chain.csv")

    def after_prepare(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        n = self.sizes.mixture_samples
        ls = np.asarray(ref.D1_LENGTHSCALES) * np.exp(
            MIXTURE_SPREAD * rng.standard_normal((n, 3)))
        aa = np.asarray(ref.D1_AXIS_ANGLE) + (
            MIXTURE_SPREAD * rng.standard_normal((n, 3)))
        self.states = np.hstack([ls, aa])
        header = "iter,log_post,l_x,l_y,l_z,a_1,a_2,a_3\n"
        for path, rows in ((self.chain_csv(False), self.states),
                           (self.chain_csv(True), self.states[:1])):
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(header)
                for i, row in enumerate(rows, start=1):
                    # predict reads only the parameter columns
                    f.write(",".join([str(i), "0.0"]
                                     + [repr(float(v)) for v in row]) + "\n")
        # every repetition predicts from the same inputs, so the reference
        # mixture at a few test points is computed once, before timing
        _, train = read_table(self.train_csv)
        _, test = read_table(self.test_csv)
        self.picks = np.linspace(0, len(test) - 1, CHECK_POINTS).astype(int)
        self.check_X = test[self.picks, :3]
        self.reference = ref.mixture_predict(
            "rotational", self.states, train[:, :3], train[:, 3],
            self.check_X, ref.D1_NOISE_SD ** 2)

    def sequence(self, out_dir, minimal, rep):
        config = _write_json(out_dir + ".config.json", {
            "train_csv": self.train_csv, "test_csv": self.test_csv,
            "model_params": {
                "model": "rotational", "profile": {"type": "se"},
                "lengthscales": list(ref.D1_LENGTHSCALES),
                "axis_angle": list(ref.D1_AXIS_ANGLE),
                "noise_sd": ref.D1_NOISE_SD},
            "chain_csv": self.chain_csv(minimal), "out_dir": out_dir})
        samples = 1 if minimal else self.sizes.mixture_samples
        return Sequence(
            [["predict", "--config", config, "--posterior-mean-of-predictions"]],
            iterations=samples, samples=samples)

    def checks(self, out_dir):
        checks = [parse_outputs(out_dir),
                  _guard("mixture reference", lambda: self._mixture_ok(out_dir))]
        if not self._lml_checked:
            # every repetition reads the same training data
            self._lml_checked = True
            checks.append(lml_matches_reference(self.train_csv))
        return checks

    def _mixture_ok(self, out_dir):
        header, rows = read_table(os.path.join(out_dir, "predictions.csv"))
        picks = self.picks
        if len(rows) <= picks[-1] or not np.allclose(
                rows[picks, :3], self.check_X, rtol=MIXTURE_RTOL, atol=0.0):
            return False, "prediction points differ from test.csv"
        mean, sd = self.reference
        got_mean = rows[picks, header.index("mean")]
        got_sd = rows[picks, header.index("sd")]
        err = max(np.max(np.abs(got_mean - mean) / np.maximum(np.abs(mean), 1.0)),
                  np.max(np.abs(got_sd - sd) / sd))
        return err <= MIXTURE_RTOL, f"{len(picks)} points, rel err {err:.1e}"

    def ess(self, out_dir):
        # the stored samples are independent draws: their ESS is their number
        return float(len(self.states))


WORKLOADS = {w.name: w for w in (DeskExperiment, FullMixture)}
