"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The desk-scale experiment scenarios (and their byte-identical re-runs) are
executed once per session through the installed CLI as parallel
subprocesses; the criteria then read the emitted files. Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation
from scipy.stats import ks_2samp

from rotgp.data import SyntheticConfig, generate_synthetic
from rotgp.gp import Dataset, GPModel, log_marginal_likelihood, predict
from rotgp.kernels import SquaredExponential, cross_gram, gram
from rotgp.mcmc import (ChainConfig, Priors, ProposalScales,
                        effective_sample_size, run_chain)
from rotgp.metric import (Ard, Rotational, build_metric, eigen_summary,
                          misalignment_angles)
from rotgp.metrics import compute_metrics
from rotgp.so3 import exp_so3, geodesic_angle, skew

pytestmark = pytest.mark.acceptance

L_TRUE = (0.40, 0.10, 0.80)
A_TRUE = (0.7, -0.4, 1.0)
NOISE_SD = 0.05

SCENARIOS = ("d1", "d2", "plane-holdout")


def check(num, description, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" :: {detail}"
    print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="session")
def experiment_runs(tmp_path_factory):
    """Run every scenario twice (run + same-seed re-run) through the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    jobs = []
    for scenario in SCENARIOS:
        for tag in ("run", "rerun"):
            out = root / f"{scenario}-{tag}"
            log = open(root / f"{scenario}-{tag}.log", "w")
            proc = subprocess.Popen(
                [sys.executable, "-m", "rotgp.cli", "experiment",
                 "--preset", scenario, "--out", str(out)],
                stdout=log, stderr=subprocess.STDOUT, env=env)
            jobs.append((scenario, tag, out, log, proc))
    t0 = time.perf_counter()
    paths = {}
    for scenario, tag, out, log, proc in jobs:
        rc = proc.wait()
        log.close()
        if rc != 0:
            tail = (root / f"{scenario}-{tag}.log").read_text()[-2000:]
            raise RuntimeError(f"{scenario} {tag} failed rc={rc}:\n{tail}")
        paths[(scenario, tag)] = out
    paths["elapsed"] = time.perf_counter() - t0
    return paths


def _summary(paths, scenario, model):
    with open(paths[(scenario, "run")] / model / "summary.json") as f:
        return json.load(f)


def _comparison(paths, scenario):
    with open(paths[(scenario, "run")] / "comparison.json") as f:
        return {row["model"]: row for row in json.load(f)["rows"]}


def test_criterion_01_so3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_exp = 0.0
    worst_geo = 0.0
    for _ in range(1000):
        a = rng.standard_normal(3)
        a *= (np.pi * rng.uniform() ** (1 / 3)) / np.linalg.norm(a)
        R = exp_so3(a)
        series = np.eye(3)
        term = np.eye(3)
        U = skew(a)
        for k in range(1, 31):
            term = term @ U / k
            series += term
        worst_exp = max(worst_exp, np.abs(R - series).max())
        if np.linalg.norm(a) < np.pi * 0.9999:
            worst_geo = max(worst_geo,
                            abs(geodesic_angle(R) - np.linalg.norm(a)))
    elapsed = time.perf_counter() - t0
    check(1, "SO(3) matches 30-term series and geodesic equals the norm",
          worst_exp < 1e-12 and worst_geo < 1e-9 and elapsed < 1.0,
          f"max exp err {worst_exp:.2e}, max geodesic err {worst_geo:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_metric_ground_truth():
    t0 = time.perf_counter()
    M = build_metric(Rotational(L_TRUE, A_TRUE))
    s = eigen_summary(M)
    eig_err = np.abs(s.eigenvalues - [100.0, 6.25, 1.5625]) / np.array(
        [100.0, 6.25, 1.5625])
    rng_err = np.abs(s.ranges - [0.10, 0.40, 0.80]) / np.array(
        [0.10, 0.40, 0.80])
    elapsed = time.perf_counter() - t0
    check(2, "generating metric has the published eigenvalues and ranges",
          eig_err.max() < 1e-9 and rng_err.max() < 1e-9 and elapsed < 1.0,
          f"eig rel err {eig_err.max():.2e}, range rel err {rng_err.max():.2e}")


def test_criterion_03_gp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_ll = 0.0
    worst_pred = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 6))
        model = GPModel(SquaredExponential(),
                        Rotational(rng.uniform(0.2, 1.5, 3),
                                   rng.normal(0, 1, 3)),
                        noise_var=float(rng.uniform(0.001, 0.05)))
        data = Dataset(rng.uniform(-1, 1, (n, 3)), rng.standard_normal(n))
        X_test = rng.uniform(-1, 1, (m, 3))

        M = build_metric(model.params)
        K = cross_gram(model.profile, M, data.X, data.X)
        K += model.noise_var * np.eye(n)
        sign, logdet = np.linalg.slogdet(K)
        oracle_ll = (-0.5 * data.y @ np.linalg.inv(K) @ data.y - 0.5 * logdet
                     - 0.5 * n * np.log(2 * np.pi))
        ll = log_marginal_likelihood(model, data)
        worst_ll = max(worst_ll, abs(ll - oracle_ll) / abs(oracle_ll))

        joint = cross_gram(model.profile, M, np.vstack([data.X, X_test]),
                           np.vstack([data.X, X_test]))
        joint += model.noise_var * np.eye(n + m)
        K_inv = np.linalg.inv(joint[:n, :n])
        mean_o = joint[:n, n:].T @ K_inv @ data.y
        var_o = np.diag(joint[n:, n:] - joint[:n, n:].T @ K_inv @ joint[:n, n:])
        res = predict(model, data, X_test)
        worst_pred = max(worst_pred,
                         np.abs(res.mean - mean_o).max(),
                         np.abs(res.var - var_o).max())
    elapsed = time.perf_counter() - t0
    check(3, "likelihood and prediction match dense MVN oracles",
          worst_ll < 1e-10 and worst_pred < 1e-9 and elapsed < 5.0,
          f"loglik rel {worst_ll:.2e}, predict abs {worst_pred:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_04_symmetry_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(-1, 1, (12, 3)), rng.standard_normal(12))
    worst_ll = 0.0
    worst_gram = 0.0
    for _ in range(100):
        ls = rng.uniform(0.1, 1.5, 3)
        while np.abs(np.subtract.outer(ls, ls))[np.triu_indices(3, 1)].min() < 0.05:
            ls = rng.uniform(0.1, 1.5, 3)
        a = rng.normal(0, 1.0, 3)
        base_model = GPModel(SquaredExponential(), Rotational(ls, a), 0.01)
        base_ll = log_marginal_likelihood(base_model, data)
        R = exp_so3(a)
        for perm in itertools.permutations(range(3)):
            R_perm = np.eye(3)[list(perm)] @ R
            if np.linalg.det(R_perm) < 0:
                R_perm = np.diag([1.0, 1.0, -1.0]) @ R_perm
            a_perm = ScipyRotation.from_matrix(R_perm).as_rotvec()
            ll = log_marginal_likelihood(
                GPModel(SquaredExponential(),
                        Rotational(ls[list(perm)], a_perm), 0.01), data)
            worst_ll = max(worst_ll, abs(ll - base_ll) / max(1.0, abs(base_ll)))
        g_rot = gram(SquaredExponential(), build_metric(Rotational(ls, a)),
                     data.X, 0.01)
        g_ard = gram(SquaredExponential(), build_metric(Ard(ls)),
                     data.X @ R.T, 0.01)
        worst_gram = max(worst_gram,
                         np.abs(g_rot.matrix - g_ard.matrix).max())
    elapsed = time.perf_counter() - t0
    check(4, "likelihood invariant across the 6 equivalent states; "
             "rotated gram equals ARD on rotated inputs",
          worst_ll < 1e-10 and worst_gram < 1e-12 and elapsed < 10.0,
          f"loglik {worst_ll:.2e}, gram {worst_gram:.2e}, {elapsed:.2f}s")


def test_criterion_05_desk_scale_d1_recovery(experiment_runs):
    s = _summary(experiment_runs, "d1", "rotational")
    ranges = np.array(s["anisotropy"]["ranges"])
    rel = np.abs(ranges - [0.10, 0.40, 0.80]) / np.array([0.10, 0.40, 0.80])
    truth = eigen_summary(build_metric(Rotational(L_TRUE, A_TRUE)))
    est = eigen_summary(build_metric(Rotational(
        [s["params"][k]["mean"] for k in ("l_x", "l_y", "l_z")],
        [s["params"][k]["mean"] for k in ("a_1", "a_2", "a_3")])))
    angles = misalignment_angles(est, truth)
    check(5, "desk-scale D1 posterior recovers ranges and directions",
          rel.max() < 0.15 and angles.max() < 10.0 and not s["flags"],
          f"ranges {np.round(ranges, 4).tolist()} (rel err "
          f"{rel.max():.3f}), misalignment {np.round(angles, 2).tolist()} deg, "
          f"flags {s['flags']}, total experiment wall "
          f"{experiment_runs['elapsed']:.0f}s")


def test_criterion_06_desk_scale_d1_model_ordering(experiment_runs):
    rows = _comparison(experiment_runs, "d1")
    rot, spd, ard = (rows[m]["mae"] for m in ("rotational", "spd", "ard"))
    check(6, "D1 error ordering: rotational ~ SPD << ARD",
          rot < 0.7 * ard and abs(rot - spd) / spd < 0.15,
          f"mae rot {rot:.4f}, spd {spd:.4f}, ard {ard:.4f}")


def test_criterion_07_desk_scale_d2_null_case(experiment_runs):
    s = _summary(experiment_runs, "d2", "rotational")
    geo_median = s["geodesic_deg"]["median"]
    rows = _comparison(experiment_runs, "d2")
    maes = {m: rows[m]["mae"] for m in ("rotational", "spd", "ard")}
    pairwise = max(abs(a - b) / min(a, b)
                   for a, b in itertools.combinations(maes.values(), 2))
    cov95 = [rows[m]["cov95"] for m in ("rotational", "spd", "ard")]
    check(7, "D2 null case: tiny learnt rotation, models tie, coverage sane",
          geo_median < 10.0 and pairwise < 0.10
          and all(0.88 <= c <= 0.99 for c in cov95),
          f"geodesic median {geo_median:.2f} deg, pairwise mae diff "
          f"{pairwise:.3f}, cov95 {np.round(cov95, 3).tolist()}")


def test_criterion_08_calibration_at_true_parameters():
    gen = GPModel(SquaredExponential(), Rotational(L_TRUE, A_TRUE),
                  NOISE_SD ** 2)
    split = generate_synthetic(SyntheticConfig(
        n_train=400, n_test=500, generator=gen, seed=808))
    res = predict(gen, split.train, split.test.X)
    m = compute_metrics(res, split.test.y)
    check(8, "true-parameter predictions are calibrated on a fresh draw",
          0.85 <= m.std_z <= 1.15 and 0.90 <= m.cov95 <= 0.99,
          f"std_z {m.std_z:.3f}, cov95 {m.cov95:.3f} on {m.n_test} points")


def test_criterion_09_prior_sampling_check():
    sd_a = 0.5
    priors = Priors(axis_angle_sd=sd_a)
    cfg = ChainConfig(n_iters=60_000, burn_in=5_000, seed=909, thin=1)
    template = GPModel(SquaredExponential(),
                       Rotational((1, 1, 1), (0, 0, 0)), 0.0025)
    chain = run_chain(cfg, None, template, priors,
                      ProposalScales(log_lengthscale=0.5, axis_angle=0.6))
    a_draws = chain.states[:, 3:6]
    mean_ok = sd_ok = True
    worst_mean_se = 0.0
    for j in range(3):
        ess = effective_sample_size(a_draws[:, j])
        se = sd_a / math.sqrt(ess)
        worst_mean_se = max(worst_mean_se, abs(a_draws[:, j].mean()) / se)
        mean_ok &= abs(a_draws[:, j].mean()) < 3 * se
        sd_ok &= abs(a_draws[:, j].std(ddof=1) - sd_a) < 0.1 * sd_a
    angles = np.array([geodesic_angle(exp_so3(a)) for a in a_draws[::5]])
    norms = np.linalg.norm(
        np.random.default_rng(2024).normal(0.0, sd_a, (200_000, 3)), axis=1)
    ks = ks_2samp(angles, norms).statistic
    check(9, "prior-only chain reproduces the axis-angle prior",
          mean_ok and sd_ok and ks < 0.05,
          f"worst |mean|/SE {worst_mean_se:.2f}, KS {ks:.3f}")


def test_criterion_10_plane_holdout_property(experiment_runs):
    with open(experiment_runs[("plane-holdout", "run")]
              / "per_plane_mae.json") as f:
        doc = json.load(f)
    wins = sum(1 for row in doc["planes"] if row["rotational"] <= row["ard"])
    detail = ", ".join(f"x={row['plane']:+.2f}: rot {row['rotational']:.3f} "
                       f"vs ard {row['ard']:.3f}" for row in doc["planes"])
    check(10, "rotational beats ARD on at least 4 of 5 held-out planes",
          wins >= 4, f"{wins}/5 wins ({detail})")


def test_criterion_11_determinism(experiment_runs):
    mismatches = []
    compared = 0
    for scenario in SCENARIOS:
        run = experiment_runs[(scenario, "run")]
        rerun = experiment_runs[(scenario, "rerun")]
        for chain_file in sorted(run.glob("*/chain.csv")):
            other = rerun / chain_file.relative_to(run)
            compared += 1
            if chain_file.read_bytes() != other.read_bytes():
                mismatches.append(str(chain_file.relative_to(run)))
        for pred_file in sorted(run.glob("*/predictions.csv")):
            other = rerun / pred_file.relative_to(run)
            compared += 1
            if pred_file.read_bytes() != other.read_bytes():
                mismatches.append(str(pred_file.relative_to(run)))
        for data_file in ("train.csv", "test.csv"):
            compared += 1
            if ((run / data_file).read_bytes()
                    != (rerun / data_file).read_bytes()):
                mismatches.append(f"{scenario}/{data_file}")
    check(11, "same-seed re-runs reproduce chain and prediction files "
              "byte for byte",
          compared >= 22 and not mismatches,
          f"{compared} files compared, mismatches: {mismatches or 'none'}")
