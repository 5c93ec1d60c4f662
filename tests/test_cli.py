import json
import multiprocessing.context
import os
import signal
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

from rotgp import cli
from rotgp.cli import _load_locations, _read_predictions, main
from rotgp.config import EXPERIMENT_PRESETS, SCHEMAS, ConfigError, validate
from rotgp.data import load_csv
from rotgp.mcmc import load_chain_csv
from rotgp.metric import SPECS
from rotgp.table import dump_json

TRAIN_N, TEST_N = 40, 20


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    doc = {
        "n_train": TRAIN_N, "n_test": TEST_N, "seed": 11,
        "generator": {"model": "rotational", "profile": {"type": "se"},
                      "lengthscales": [0.4, 0.1, 0.8],
                      "axis_angle": [0.7, -0.4, 1.0], "noise_sd": 0.05},
        "out_dir": str(out),
    }
    cfg = out / "gen.json"
    cfg.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    doc = {
        "train_csv": str(dataset_dir / "train.csv"),
        "model": "rotational",
        "noise_sd": 0.05,
        "chain": {"n_iters": 600, "burn_in": 200, "thin": 4, "seed": 5},
        "out_dir": str(out),
    }
    cfg = out / "fit.json"
    cfg.write_text(json.dumps(doc))
    assert main(["fit", "--config", str(cfg)]) == 0
    return out


class TestGenerate:
    def test_outputs_exist_with_provenance(self, dataset_dir):
        train = load_csv(dataset_dir / "train.csv")
        test = load_csv(dataset_dir / "test.csv")
        assert train.n == TRAIN_N and test.n == TEST_N
        prov = json.loads((dataset_dir / "provenance.json").read_text())
        assert prov["seed"] == 11 and prov["rng"] == "pcg64"
        assert prov["generator"]["model"] == "rotational"
        resolved = json.loads((dataset_dir / "resolved-config.json").read_text())
        assert resolved["n_train"] == TRAIN_N
        assert resolved["cube_half_width"] == 1.0  # default filled in

    def test_preset_d1_is_full_scale(self):
        # Presets resolve without running: check via config validation only.
        from rotgp.config import GENERATE_PRESETS
        d1 = GENERATE_PRESETS["d1"]
        assert d1["n_train"] == 1000 and d1["n_test"] == 500
        assert d1["generator"]["lengthscales"] == [0.40, 0.10, 0.80]
        assert d1["generator"]["axis_angle"] == [0.7, -0.4, 1.0]
        assert d1["generator"]["noise_sd"] == 0.05
        d2 = GENERATE_PRESETS["d2"]
        assert d2["generator"]["model"] == "ard"
        assert d2["generator"]["lengthscales"] == [1.00, 0.25, 0.37]

    def test_same_seed_reproduces_bytes(self, tmp_path):
        doc = {"n_train": 10, "n_test": 5, "seed": 3,
               "generator": {"model": "ard", "profile": {"type": "se"},
                             "lengthscales": [1.0, 0.25, 0.37],
                             "noise_sd": 0.05}}
        outs = []
        for run in range(2):
            out = tmp_path / f"g{run}"
            cfg = write_json(tmp_path / f"g{run}.json",
                             {**doc, "out_dir": str(out)})
            assert main(["generate", "--config", cfg]) == 0
            outs.append((out / "train.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unwritable_dir_exits_2(self, tmp_path):
        # a path through an existing file cannot be created, even by root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_json(tmp_path / "g.json", {
            "n_train": 2, "n_test": 2, "seed": 0,
            "generator": {"model": "ard", "profile": {"type": "se"},
                          "lengthscales": [1, 1, 1], "noise_sd": 0.1},
            "out_dir": str(blocker / "sub")})
        assert main(["generate", "--config", cfg]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {
            "n_train": -5, "n_test": 2, "seed": 0,
            "generator": {"model": "ard", "profile": {"type": "se"},
                          "lengthscales": [1, 1, 1], "noise_sd": 0.1},
            "out_dir": str(tmp_path / "o")})
        assert main(["generate", "--config", cfg]) == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        assert main(["generate", "--preset", "nope",
                     "--out", str(tmp_path / "o")]) == 2


class TestFit:
    def test_outputs(self, fit_dir):
        assert (fit_dir / "chain.csv").exists()
        summary = json.loads((fit_dir / "summary.json").read_text())
        assert summary["kind"] == "rotational"
        assert set(summary["params"]) == {"l_x", "l_y", "l_z",
                                          "a_1", "a_2", "a_3"}
        for st in summary["params"].values():
            assert st["q05"] <= st["median"] <= st["q95"]
        assert summary["rng"] == "pcg64"
        assert len(summary["anisotropy"]["ranges"]) == 3
        assert summary["model"]["noise_sd"] == 0.05
        resolved = json.loads((fit_dir / "resolved-config.json").read_text())
        # defaults are filled: the resolved document pins every knob
        assert resolved["priors"]["lengthscale_mean"] == [0.5, 0.5, 0.5]
        assert resolved["proposal_scales"]["log_lengthscale"] == 0.05
        assert resolved["chain"]["rng"] == "pcg64"

    def test_summary_records_the_climb_to_the_start(self, fit_dir):
        start = json.loads((fit_dir / "summary.json").read_text())["start"]
        assert set(start) == {"prior_mean_log_post", "log_post",
                              "bfgs_evaluations", "full_data_gradients",
                              "kernel"}
        assert start["log_post"] >= start["prior_mean_log_post"]
        assert start["bfgs_evaluations"] >= 1
        # the Hessian's d + 1 gradients at least
        assert start["full_data_gradients"] >= 7
        assert start["kernel"] in ("laplace", "walk")

    def test_short_burn_in_records_no_start(self, dataset_dir, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--out", str(out), "--config", write_json(
            tmp_path / "f.json", {
                "train_csv": str(dataset_dir / "train.csv"), "model": "spd",
                "chain": {"n_iters": 40, "burn_in": 24, "thin": 1}})]) == 0
        assert json.loads((out / "summary.json").read_text())["start"] is None

    def test_climb_imports_no_scipy_optimize(self, dataset_dir, tmp_path):
        # every process pays for what it imports: the climb's BFGS is
        # rotgp's own
        out = tmp_path / "fit"
        cfg = write_json(tmp_path / "f.json", {
            "train_csv": str(dataset_dir / "train.csv"), "model": "spd",
            "chain": {"n_iters": 60, "burn_in": 30, "thin": 1},
            "out_dir": str(out)})
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rotgp.cli import main; "
             f"assert main(['fit', '--config', {cfg!r}]) == 0; "
             "print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, check=True).stdout.split()
        assert json.loads((out / "summary.json").read_text())["start"]
        assert "scipy.optimize" not in loaded

    def test_chain_header(self, fit_dir):
        header = (fit_dir / "chain.csv").read_text().splitlines()[0]
        assert header == "iter,log_post,l_x,l_y,l_z,a_1,a_2,a_3"

    def test_determinism_and_resolved_rerun(self, dataset_dir, tmp_path):
        doc = {"train_csv": str(dataset_dir / "train.csv"), "model": "ard",
               "noise_sd": 0.05,
               "chain": {"n_iters": 300, "burn_in": 100, "seed": 8},
               "out_dir": ""}
        runs = []
        for run in range(2):
            out = tmp_path / f"f{run}"
            cfg = write_json(tmp_path / f"f{run}.json",
                             {**doc, "out_dir": str(out)})
            assert main(["fit", "--config", cfg]) == 0
            runs.append((out / "chain.csv").read_bytes())
        assert runs[0] == runs[1]
        # re-running from the resolved config reproduces the chain bytes
        resolved = tmp_path / "f0" / "resolved-config.json"
        out3 = tmp_path / "f3"
        assert main(["fit", "--config", str(resolved),
                     "--out", str(out3)]) == 0
        assert (out3 / "chain.csv").read_bytes() == runs[0]

    def test_non_finite_train_cell_exits_2(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "train.csv").read_text().splitlines()
        lines[3] = "0.1,nan,0.2,1.0"
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines) + "\n")
        cfg = write_json(tmp_path / "f.json", {
            "train_csv": str(train), "model": "ard",
            "chain": {"n_iters": 20, "burn_in": 10},
            "out_dir": str(tmp_path / "fit")})
        assert main(["fit", "--config", cfg]) == 2
        assert "line 4: non-finite value" in capsys.readouterr().err

    def test_invalid_prior_value_exits_2_without_output(self, dataset_dir,
                                                         tmp_path, capsys):
        # The schema accepts any number in the array; Priors rejects the 0.
        out = tmp_path / "fit"
        cfg = write_json(tmp_path / "f.json", {
            "train_csv": str(dataset_dir / "train.csv"), "model": "ard",
            "priors": {"lengthscale_sd": [0.5, 0, 0.5]}, "out_dir": str(out)})
        assert main(["fit", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: invalid priors: lengthscale_sd must be positive\n")
        assert not out.exists()

    def test_resolved_settings_hold_every_default(self, dataset_dir, tmp_path):
        out = tmp_path / "fit"
        cfg = write_json(tmp_path / "f.json", {
            "train_csv": str(dataset_dir / "train.csv"), "model": "ard",
            "priors": {"axis_angle_sd": 2},
            "chain": {"n_iters": 20, "burn_in": 10}, "out_dir": str(out)})
        assert main(["fit", "--config", cfg]) == 0
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["priors"] == {
            "lengthscale_mean": [0.5, 0.5, 0.5],
            "lengthscale_sd": [0.5, 0.5, 0.5],
            "axis_angle_sd": 2, "spd_logdiag_sd": 1.5, "spd_offdiag_sd": 3.0,
            "log_noise_mean": -6.0, "log_noise_sd": 1.0}
        assert type(resolved["priors"]["axis_angle_sd"]) is int
        assert resolved["proposal_scales"] == {
            "log_lengthscale": 0.05, "axis_angle": 0.03, "spd": 0.05,
            "log_noise": 1.0}
        assert resolved["chain"] == {
            "n_iters": 20, "burn_in": 10, "seed": 0, "thin": 5,
            "sample_noise": False, "rng": "pcg64"}

    def test_sampled_noise_flows_through_predict(self, dataset_dir, tmp_path):
        fit_out = tmp_path / "fitnoise"
        cfg = write_json(tmp_path / "fn.json", {
            "train_csv": str(dataset_dir / "train.csv"), "model": "ard",
            "priors": {"log_noise_mean": -6.0, "log_noise_sd": 1.0},
            "chain": {"n_iters": 400, "burn_in": 150, "seed": 6,
                      "sample_noise": True},
            "out_dir": str(fit_out)})
        assert main(["fit", "--config", cfg]) == 0
        header = (fit_out / "chain.csv").read_text().splitlines()[0]
        assert header == "iter,log_post,l_x,l_y,l_z,noise_var"
        summary = json.loads((fit_out / "summary.json").read_text())
        assert summary["model"]["noise_sd"] is None
        assert summary["posterior_mean_noise_var"] > 0
        pred_out = tmp_path / "prednoise"
        cfg2 = write_json(tmp_path / "pn.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "summary_json": str(fit_out / "summary.json"),
            "out_dir": str(pred_out)})
        assert main(["predict", "--config", cfg2]) == 0
        rows = np.loadtxt(pred_out / "predictions.csv", delimiter=",",
                          skiprows=1)
        # predictive sd includes the posterior-mean noise level
        assert np.all(rows[:, 5] >= np.sqrt(
            summary["posterior_mean_noise_var"]) - 1e-9)


class TestPredict:
    def test_plug_in_prediction(self, dataset_dir, fit_dir, tmp_path):
        out = tmp_path / "pred"
        cfg = write_json(tmp_path / "p.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "summary_json": str(fit_dir / "summary.json"),
            "out_dir": str(out)})
        assert main(["predict", "--config", cfg]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,truth,mean,sd"
        assert len(lines) == 1 + TEST_N

    def test_training_point_with_explicit_params(self, dataset_dir, tmp_path):
        # Plugging in the generating parameters with tiny noise must
        # reproduce the training values at training locations.
        out = tmp_path / "predtrain"
        cfg = write_json(tmp_path / "pt.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "train.csv"),
            "model_params": {"model": "rotational", "profile": {"type": "se"},
                             "lengthscales": [0.4, 0.1, 0.8],
                             "axis_angle": [0.7, -0.4, 1.0],
                             "noise_sd": 1e-6},
            "out_dir": str(out)})
        assert main(["predict", "--config", cfg]) == 0
        rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1)
        truth, mean = rows[:, 3], rows[:, 4]
        assert np.abs(truth - mean).max() < 1e-3

    def test_locations_only_input(self, dataset_dir, fit_dir, tmp_path):
        bare = tmp_path / "locations.csv"
        bare.write_text("x,y,z\n0.0,0.0,0.0\n0.5,0.5,0.5\n")
        out = tmp_path / "predbare"
        cfg = write_json(tmp_path / "pb.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(bare),
            "summary_json": str(fit_dir / "summary.json"),
            "out_dir": str(out)})
        assert main(["predict", "--config", cfg]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,mean,sd"
        assert len(lines) == 3

    def test_posterior_mixture_flag(self, dataset_dir, fit_dir, tmp_path):
        out = tmp_path / "predmix"
        cfg = write_json(tmp_path / "pm.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "summary_json": str(fit_dir / "summary.json"),
            "out_dir": str(out)})
        assert main(["predict", "--config", cfg,
                     "--posterior-mean-of-predictions"]) == 0
        rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 5] > 0)  # mixture sds are positive

    def test_mixture_matches_manual_average(self, dataset_dir, tmp_path):
        # Two-sample chain: the mixture must average per-sample predictive
        # moments, var = E[var + mean^2] - (E mean)^2.
        from rotgp.cli import _mixture_predict
        from rotgp.data import load_csv as _load
        from rotgp.gp import GPModel, predict as _predict
        from rotgp.kernels import SquaredExponential
        from rotgp.metric import Ard

        train = _load(dataset_dir / "train.csv")
        X_test = train.X[:4]
        chain_csv = tmp_path / "chain.csv"
        states = [(0.5, 0.3, 0.9), (0.7, 0.4, 1.1)]
        with open(chain_csv, "w") as f:
            f.write("iter,log_post,l_x,l_y,l_z\n")
            for i, s in enumerate(states):
                f.write(f"{i+1},-1.0,{s[0]!r},{s[1]!r},{s[2]!r}\n")
        mix = _mixture_predict(chain_csv, SquaredExponential(), 0.01,
                               train, X_test)
        singles = [_predict(GPModel(SquaredExponential(), Ard(s), 0.01),
                            train, X_test) for s in states]
        mean = (singles[0].mean + singles[1].mean) / 2
        second = ((singles[0].var + singles[0].mean ** 2)
                  + (singles[1].var + singles[1].mean ** 2)) / 2
        np.testing.assert_allclose(mix.mean, mean, atol=1e-12)
        np.testing.assert_allclose(mix.var, second - mean ** 2, atol=1e-12)

    def test_mixture_variance_floored_at_noise(self, dataset_dir, tmp_path):
        # At training points with tiny noise, E[var + mean^2] - mean^2 loses
        # the variance to round-off; the mixture, like predict, must not
        # report less than the mean noise variance of its samples.
        from rotgp.cli import _mixture_predict
        from rotgp.data import load_csv as _load
        from rotgp.kernels import SquaredExponential

        train = _load(dataset_dir / "train.csv")
        noise_vars = [1e-20, 3e-20]
        chain_csv = tmp_path / "chain.csv"
        with open(chain_csv, "w") as f:
            f.write("iter,log_post,l_x,l_y,l_z,noise_var\n")
            for i, nv in enumerate(noise_vars):
                f.write(f"{i+1},-1.0,0.5,0.3,0.9,{nv!r}\n")
        mix = _mixture_predict(chain_csv, SquaredExponential(), None,
                               train, train.X)
        floor = np.mean(noise_vars)
        assert np.all(mix.var >= floor)
        assert np.any(mix.var == floor)  # round-off would have been kept

    @staticmethod
    def _run_mixture(dataset_dir, tmp_path, text, name="predbad"):
        """Exit code and output directory of a mixture predict over a chain
        file holding ``text``."""
        chain_csv = tmp_path / f"{name}.chain.csv"
        chain_csv.write_text(text)
        out = tmp_path / name
        cfg = write_json(tmp_path / f"{name}.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "model_params": {"model": "ard", "profile": {"type": "se"},
                             "lengthscales": [0.5, 0.5, 0.5], "noise_sd": 0.1},
            "chain_csv": str(chain_csv),
            "out_dir": str(out)})
        rc = main(["predict", "--config", cfg,
                   "--posterior-mean-of-predictions"])
        return rc, out

    @classmethod
    def _mixture_on_bad_chain(cls, dataset_dir, tmp_path, text):
        """Exit code of a mixture predict over a chain file holding ``text``,
        which must leave no predictions file behind."""
        rc, out = cls._run_mixture(dataset_dir, tmp_path, text)
        assert not (out / "predictions.csv").exists()
        return rc

    @pytest.mark.parametrize("columns", ["p,q,r", "p,q,r,noise_var",
                                         "l_x,l_y,l_z,a_1"])
    def test_mixture_rejects_unknown_chain_columns(self, dataset_dir, tmp_path,
                                                   columns):
        # Columns that name no model exactly must not be read as any model.
        values = ",".join(["0.5"] * len(columns.split(",")))
        assert self._mixture_on_bad_chain(
            dataset_dir, tmp_path,
            f"iter,log_post,{columns}\n1,-1.0,{values}\n") == 2

    def test_mixture_chain_matching_no_model_exits_2(self, dataset_dir,
                                                      tmp_path, capsys):
        rc, out = self._run_mixture(dataset_dir, tmp_path,
                                    "iter,log_post,l_x,l_y\n1,-1.0,0.5,0.5\n")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'predbad.chain.csv'}: "
            "chain columns l_x,l_y match no model\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "a,b,l_x,l_y,l_z\n1,-1.0,0.5,0.5,0.5\n",  # not a chain header
        "iter,log_post,l_x,l_y,l_z\n",  # header and no rows
        "iter,log_post,l_x,l_y,l_z\n1,nan,0.5,0.5,0.5\n",
    ], ids=["bad-header", "no-rows", "nan-cell"])
    def test_mixture_rejects_malformed_chain_file(self, dataset_dir, tmp_path,
                                                  text):
        # A malformed chain file is a data format error (exit 2), not a
        # computation failure (exit 1).
        assert self._mixture_on_bad_chain(dataset_dir, tmp_path, text) == 2

    @staticmethod
    def _workers_started(monkeypatch, cpus):
        """Pretend this process may run on ``cpus`` CPUs; the returned list
        collects every worker process started from then on."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        started = []
        real_start = multiprocessing.context.ForkProcess.start

        def start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
        return started

    def test_mixture_pool_matches_in_process(self, dataset_dir, tmp_path,
                                             monkeypatch):
        # The samples are summed in chain order whatever the number of
        # workers, so the bytes of predictions.csv do not depend on it.
        rows = [(0.5, 0.3, 0.9, 0.01), (0.7, 0.4, 1.1, 0.002),
                (0.3, 0.6, 0.8, 0.03), (0.9, 0.2, 0.5, 0.004),
                (0.4, 0.5, 1.3, 0.02)]
        text = "iter,log_post,l_x,l_y,l_z,noise_var\n" + "".join(
            f"{i},-1.0,{','.join(map(repr, r))}\n"
            for i, r in enumerate(rows, start=1))
        outputs = {}
        for cpus in (1, 2):
            started = self._workers_started(monkeypatch, cpus)
            rc, out = self._run_mixture(dataset_dir, tmp_path, text,
                                        f"pool{cpus}")
            assert rc == 0
            assert len(started) == (0 if cpus == 1 else 2)
            outputs[cpus] = (out / "predictions.csv").read_bytes()
        assert outputs[1] == outputs[2]

        # a one-row chain runs in this process whatever the CPU count
        started = self._workers_started(monkeypatch, 2)
        one_row = "".join(text.splitlines(keepends=True)[:2])
        rc, _ = self._run_mixture(dataset_dir, tmp_path, one_row, "onerow")
        assert rc == 0 and started == []

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="one CPU starts no worker")
    def test_mixture_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        # A rotational fit with sampled noise, predicted by two rotgp
        # processes with one BLAS thread each (OpenBLAS's own thread count
        # changes the last digits whatever rotgp does): one pinned to a
        # single CPU, so it starts no worker, and one on every CPU this test
        # may use. 300 test points make each sample's predict walk three
        # blocks: 128, 128 and 44.
        data, fit = tmp_path / "data", tmp_path / "fit"
        assert main(["generate", "--preset", "d1", "--out", str(data),
                     "--config", write_json(tmp_path / "g.json", {
                         "n_train": 200, "n_test": 300})]) == 0
        assert main(["fit", "--out", str(fit), "--config", write_json(
            tmp_path / "f.json", {
                "train_csv": str(data / "train.csv"), "model": "rotational",
                "chain": {"n_iters": 200, "burn_in": 100, "thin": 5,
                          "seed": 1, "sample_noise": True}})]) == 0
        cfg = write_json(tmp_path / "p.json", {
            "train_csv": str(data / "train.csv"),
            "test_csv": str(data / "test.csv"),
            "summary_json": str(fit / "summary.json")})
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        # the child pins itself before it imports numpy
        launcher = ("import os, sys; {} "
                    "from rotgp.cli import main; sys.exit(main(sys.argv[1:]))")
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, pin in [("one", f"os.sched_setaffinity(0, {{{one_cpu}}});"),
                          ("all", "")]:
            subprocess.run(
                [sys.executable, "-c", launcher.format(pin), "predict",
                 "--posterior-mean-of-predictions", "--config", cfg,
                 "--out", str(tmp_path / name)],
                env=env, check=True, stdout=subprocess.DEVNULL, timeout=300)
            outputs.append((tmp_path / name / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_mixture_reports_first_failing_sample(self, dataset_dir, tmp_path,
                                                  monkeypatch, capsys, cpus):
        # Row 2 has an invalid length-scale and row 3 a negative noise
        # variance: as in a one-by-one loop, row 2's error is reported.
        self._workers_started(monkeypatch, cpus)
        rc, out = self._run_mixture(
            dataset_dir, tmp_path,
            "iter,log_post,l_x,l_y,l_z,noise_var\n"
            "1,-1.0,0.5,0.3,0.9,0.01\n"
            "2,-1.0,-0.5,0.3,0.9,0.01\n"
            "3,-1.0,0.5,0.3,0.9,-1.0\n"
            "4,-1.0,0.5,0.3,0.9,0.01\n")
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ARD length-scales must be finite and positive\n")
        assert not (out / "predictions.csv").exists()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="one CPU starts no worker")
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT,
                                        signal.SIGKILL],
                             ids=["SIGTERM", "SIGINT", "SIGKILL"])
    def test_mixture_signal_leaves_no_worker_running(self, tmp_path, signum):
        data = tmp_path / "data"
        assert main(["generate", "--config", write_json(tmp_path / "g.json", {
            "n_train": 400, "n_test": 20, "seed": 3,
            "generator": {"model": "ard", "profile": {"type": "se"},
                          "lengthscales": [0.4, 0.3, 0.5], "noise_sd": 0.1},
            "out_dir": str(data)})]) == 0
        n_rows = 20_000  # far more work than the test waits for
        chain_csv = tmp_path / "chain.csv"
        chain_csv.write_text("iter,log_post,l_x,l_y,l_z\n" + "".join(
            f"{i},-1.0,0.4,0.3,0.5\n" for i in range(1, n_rows + 1)))
        out = str(tmp_path / "predsignal")
        cfg = write_json(tmp_path / "p.json", {
            "train_csv": str(data / "train.csv"),
            "test_csv": str(data / "test.csv"),
            "model_params": {"model": "ard", "profile": {"type": "se"},
                             "lengthscales": [0.4, 0.3, 0.5], "noise_sd": 0.1},
            "chain_csv": str(chain_csv)})
        processes = 1 + min(len(os.sched_getaffinity(0)), n_rows)
        _signal_then_check(
            ["predict", "--config", cfg, "--out", out,
             "--posterior-mean-of-predictions"], out, signum,
            ready=lambda: len(_pids_with_arg(out)) == processes,
            processes=processes)

    def test_standardize_round_trip(self, tmp_path):
        # Outputs far from zero mean: fit standardizes internally, predict
        # must report on the original scale.
        from rotgp.data import Dataset, save_csv
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (30, 3))
        y = 100.0 + 5.0 * rng.standard_normal(30)
        train_csv = tmp_path / "train.csv"
        save_csv(train_csv, Dataset(X, y))
        fit_out = tmp_path / "fit"
        cfg = write_json(tmp_path / "f.json", {
            "train_csv": str(train_csv), "model": "ard", "noise_sd": 0.1,
            "standardize": True,
            "chain": {"n_iters": 300, "burn_in": 100, "seed": 2},
            "out_dir": str(fit_out)})
        assert main(["fit", "--config", cfg]) == 0
        summary = json.loads((fit_out / "summary.json").read_text())
        assert summary["standardization"]["mean"] == pytest.approx(100.0, abs=5)
        pred_out = tmp_path / "pred"
        cfg2 = write_json(tmp_path / "p.json", {
            "train_csv": str(train_csv), "test_csv": str(train_csv),
            "summary_json": str(fit_out / "summary.json"),
            "out_dir": str(pred_out)})
        assert main(["predict", "--config", cfg2]) == 0
        rows = np.loadtxt(pred_out / "predictions.csv", delimiter=",",
                          skiprows=1)
        # predictions sit on the raw output scale, near the raw values
        assert abs(np.mean(rows[:, 4]) - 100.0) < 10.0
        assert np.all(rows[:, 5] < 20.0)


class TestEvaluate:
    @pytest.fixture()
    def predictions(self, dataset_dir, fit_dir, tmp_path):
        out = tmp_path / "pred"
        cfg = write_json(tmp_path / "p.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "summary_json": str(fit_dir / "summary.json"),
            "out_dir": str(out)})
        assert main(["predict", "--config", cfg]) == 0
        return out / "predictions.csv"

    def test_round_trip(self, predictions, tmp_path):
        out = tmp_path / "eval"
        cfg = write_json(tmp_path / "e.json", {
            "predictions_csv": str(predictions), "label": "demo",
            "out_dir": str(out)})
        assert main(["evaluate", "--config", cfg]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["n_test"] == TEST_N
        assert 0.0 <= doc["cov95"] <= 1.0
        ledger = (out / "metrics-ledger.csv").read_text().splitlines()
        assert ledger[0].startswith("label,mae,")
        assert ledger[1].startswith("demo,")

    def test_missing_truth_column_exits_2(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("x,y,z,mean,sd\n0.0,0.0,0.0,1.0,0.5\n")
        cfg = write_json(tmp_path / "e.json", {
            "predictions_csv": str(path), "out_dir": str(tmp_path / "o")})
        assert main(["evaluate", "--config", cfg]) == 2

    @pytest.mark.parametrize("column, cell", [
        ("mean", "abc"), ("mean", "nan"), ("sd", "0"), ("sd", "-0.5")],
        ids=["abc", "nan", "sd-zero", "sd-negative"])
    def test_malformed_cell_exits_2(self, tmp_path, capsys, column, cell):
        # a data format error (exit 2) that creates no output, whether the
        # cell fails to parse, parses to a non-finite value, or is an sd
        # that is not positive
        row = {"x": "0.1", "y": "0.0", "z": "0.0", "truth": "1.0",
               "mean": "1.1", "sd": "0.5", column: cell}
        path = tmp_path / "preds.csv"
        path.write_text("x,y,z,truth,mean,sd\n0.0,0.0,0.0,1.0,1.1,0.5\n"
                        + ",".join(row.values()) + "\n")
        out = tmp_path / "o"
        cfg = write_json(tmp_path / "e.json", {
            "predictions_csv": str(path), "out_dir": str(out)})
        assert main(["evaluate", "--config", cfg]) == 2
        assert f"{path}: line 3: " in capsys.readouterr().err
        assert not out.exists()


class TestExperiment:
    def test_tiny_d2_scenario(self, tmp_path):
        out = tmp_path / "exp"
        cfg = write_json(tmp_path / "x.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 30, "n_test": 15,
            "models": ["rotational", "spd", "ard"],
            "chain": {"n_iters": 300, "burn_in": 100, "thin": 4}})
        assert main(["experiment", "--config", cfg]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("model,mae,rmse,cov68,cov95")
        assert [l.split(",")[0] for l in lines[1:]] == ["rotational", "spd",
                                                        "ard"]
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["scenario"] == "d2" and len(doc["rows"]) == 3
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["derived_seeds"] == {"rotational": 110, "spd": 111,
                                             "ard": 112}

    def test_benchmark_sized_d1_fits_propose_from_the_laplace_fit(
            self, tmp_path):
        # d1 at n = 300 with 500-iteration chains: each fit's mode search
        # converges, so every chain runs the independence kernel, and its
        # acceptance raises no flag. The fit took the Hessian at both ends,
        # d + 1 gradients at the start and d at the end.
        out = tmp_path / "exp"
        cfg = write_json(tmp_path / "x.json", {
            "n_train": 300, "n_test": 150,
            "chain": {"n_iters": 500, "burn_in": 250, "thin": 1}})
        assert main(["experiment", "--preset", "d1", "--seed", "100",
                     "--config", cfg, "--out", str(out)]) == 0
        for model in ("rotational", "spd", "ard"):
            summary = json.loads((out / model / "summary.json").read_text())
            assert summary["start"]["kernel"] == "laplace"
            assert summary["flags"] == []
            d = len(summary["params"])
            assert summary["start"]["full_data_gradients"] >= 1 + 2 * d

    def test_tiny_plane_holdout_scenario(self, tmp_path):
        out = tmp_path / "exph"
        cfg = write_json(tmp_path / "xp.json", {
            "scenario": "plane-holdout", "seed": 4, "out_dir": str(out),
            "grid": {"nx": 6, "ny": 4, "nz": 3}, "n_holdout_planes": 2,
            "chain": {"n_iters": 200, "burn_in": 80, "thin": 4}})
        assert main(["experiment", "--config", cfg]) == 0
        per_plane = (out / "per_plane_mae.csv").read_text().splitlines()
        assert per_plane[0] == "plane,rotational,ard"
        assert len(per_plane) == 3
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert len(resolved["holdout_planes"]) == 2

    def test_failure_marker_on_bad_stage(self, tmp_path):
        out = tmp_path / "expfail"
        # a prior mean below zero makes the initial posterior invalid, which
        # is a computation failure inside the fit stage
        cfg = write_json(tmp_path / "xf.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["ard"],
            "priors": {"lengthscale_mean": [-0.5, 0.5, 0.5]},
            "chain": {"n_iters": 100, "burn_in": 50}})
        assert main(["experiment", "--config", cfg]) == 1
        marker = json.loads((out / "failure.json").read_text())
        assert marker["stage"] == "fit:ard"
        assert (out / "train.csv").exists()  # earlier outputs retained

    def test_each_model_fit_has_its_own_seed_offset(self):
        offsets = [cli._SEED_OFFSETS[kind] for kind in SPECS]
        assert all(isinstance(offset, int) for offset in offsets)
        assert len(set(offsets)) == len(offsets)

    def test_preset_chains(self):
        desk = {"n_iters": 20_000, "burn_in": 10_000, "thin": 5,
                "sample_noise": False}
        assert {name: preset["chain"]
                for name, preset in EXPERIMENT_PRESETS.items()} == {
            "d1": desk,
            "d2": desk,
            "plane-holdout": {"n_iters": 12_000, "burn_in": 6_000, "thin": 5,
                              "sample_noise": False},
        }

    def test_bad_chain_bounds_is_config_error(self, dataset_dir, tmp_path):
        # The second chain is valid on its own bounds but keeps no sample:
        # (10 - 9) // 5 == 0.
        chains = [{"n_iters": 100, "burn_in": 100},
                  {"n_iters": 10, "burn_in": 9, "thin": 5}]
        for i, chain in enumerate(chains):
            out = tmp_path / f"expcfg{i}"
            cfg = write_json(tmp_path / f"xc{i}.json", {
                "scenario": "d2", "seed": 9, "out_dir": str(out),
                "n_train": 10, "n_test": 5, "models": ["ard"],
                "chain": chain})
            assert main(["experiment", "--config", cfg]) == 2
            # the fit settings are checked before any data are generated
            assert os.listdir(out) == ["failure.json"]
            marker = json.loads((out / "failure.json").read_text())
            assert marker["stage"] == "fit:ard"

            fit_out = tmp_path / f"fit{i}"
            cfg = write_json(tmp_path / f"f{i}.json", {
                "train_csv": str(dataset_dir / "train.csv"), "model": "ard",
                "chain": chain, "out_dir": str(fit_out)})
            assert main(["fit", "--config", cfg]) == 2
            assert not fit_out.exists()


    def test_invalid_prior_value_fails_before_any_fit(self, tmp_path, capsys):
        out = tmp_path / "expprior"
        cfg = write_json(tmp_path / "xp.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["spd", "ard"],
            "priors": {"lengthscale_sd": [0.5, 0, 0.5]},
            "chain": {"n_iters": 100, "burn_in": 50}})
        assert main(["experiment", "--config", cfg]) == 2
        message = "invalid priors: lengthscale_sd must be positive"
        assert capsys.readouterr().err == f"error: {message}\n"
        marker = json.loads((out / "failure.json").read_text())
        assert marker == {"stage": "fit:spd", "error": message}
        assert os.listdir(out) == ["failure.json"]

    def test_output_in_model_order_and_reproducible(self, tmp_path, capsys):
        out = tmp_path / "exporder"
        models = ["spd", "ard", "rotational"]
        cfg = write_json(tmp_path / "xo.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 30, "n_test": 15, "models": models,
            "chain": {"n_iters": 200, "burn_in": 100, "thin": 4}})
        outputs = []
        for _ in range(2):
            assert main(["experiment", "--config", cfg]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        lines = outputs[0].out.splitlines()
        assert lines[0].startswith("wrote train.csv")
        assert lines[-1].startswith("experiment d2 complete")
        assert len(lines) == 2 + 3 * len(models)
        for i, model in enumerate(models):
            fit, wrote, scored = lines[1 + 3 * i:4 + 3 * i]
            assert fit.startswith(f"fit {model}: ")
            assert wrote == (f"wrote predictions.csv (15 points) to "
                             f"{out / model}")
            assert scored.startswith(f"d2-{model}: ")

    def test_first_failing_model_names_the_stage(self, tmp_path):
        # The ARD fit fails at its invalid start while the later SPD fit,
        # which does not use the length-scale prior, succeeds.
        out = tmp_path / "expfirst"
        cfg = write_json(tmp_path / "xff.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["ard", "spd"],
            "priors": {"lengthscale_mean": [-0.5, 0.5, 0.5]},
            "chain": {"n_iters": 100, "burn_in": 50}})
        assert main(["experiment", "--config", cfg]) == 1
        marker = json.loads((out / "failure.json").read_text())
        assert marker["stage"] == "fit:ard"
        assert (out / "spd" / "metrics.json").exists()
        assert not (out / "comparison.csv").exists()

    @pytest.mark.parametrize("killed, stage", [
        (("ard", "spd"), "fit:ard"),
        (("ard",), "fit:ard"),
        (("spd",), "fit:spd"),
    ], ids=["both", "ard-only", "spd-only"])
    def test_dead_worker_names_its_own_first_stage(self, tmp_path,
                                                   monkeypatch, killed, stage):
        # A worker that exits without results fails the first stage of its
        # own block, that model's fit, whichever worker it is; the first
        # such block in model order is reported.
        fit = cli._COMMANDS["fit"]
        monkeypatch.setitem(cli._COMMANDS, "fit", lambda doc: (
            os._exit(1) if doc["model"] in killed else fit(doc)))
        out = tmp_path / "expdead"
        cfg = write_json(tmp_path / "xd.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["ard", "spd"],
            "chain": {"n_iters": 100, "burn_in": 50}})
        assert main(["experiment", "--config", cfg]) == 1
        marker = json.loads((out / "failure.json").read_text())
        assert marker == {"stage": stage, "error":
                          "a worker process exited without its results"}

    def test_dead_worker_after_a_failing_model_names_that_model(
            self, tmp_path, monkeypatch):
        # As in the loop: the ARD fit fails at its invalid start, so the
        # SPD worker that exits without results does not hide that failure.
        fit = cli._COMMANDS["fit"]
        monkeypatch.setitem(cli._COMMANDS, "fit", lambda doc: (
            os._exit(1) if doc["model"] == "spd" else fit(doc)))
        out = tmp_path / "expdeadlater"
        cfg = write_json(tmp_path / "xdl.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["ard", "spd"],
            "priors": {"lengthscale_mean": [-0.5, 0.5, 0.5]},
            "chain": {"n_iters": 100, "burn_in": 50}})
        assert main(["experiment", "--config", cfg]) == 1
        marker = json.loads((out / "failure.json").read_text())
        assert marker["stage"] == "fit:ard"
        assert marker["error"].startswith("initial state has invalid posterior")
        assert not (out / "spd").exists()  # its worker died first

    @pytest.mark.parametrize("target, stage", [
        ("generate_synthetic", "generate"), ("predict", "predict:ard"),
        ("compute_metrics", "evaluate:ard"), ("_write_comparison", "report")])
    def test_failing_stage_is_named(self, tmp_path, monkeypatch, target,
                                    stage):
        def fail(*args, **kwargs):
            raise ValueError(f"{target} failed")

        monkeypatch.setattr(f"rotgp.cli.{target}", fail)
        out = tmp_path / "expstage"
        cfg = write_json(tmp_path / "xst.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["ard", "spd"],
            "chain": {"n_iters": 100, "burn_in": 50}})
        assert main(["experiment", "--config", cfg]) == 1
        marker = json.loads((out / "failure.json").read_text())
        assert marker == {"stage": stage, "error": f"{target} failed"}

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT,
                                        signal.SIGKILL],
                             ids=["SIGTERM", "SIGINT", "SIGKILL"])
    def test_signal_leaves_no_worker_running(self, tmp_path, signum):
        out = str(tmp_path / "expsignal")
        models = ["rotational", "spd", "ard"]
        cfg = write_json(tmp_path / "xs.json", {
            "scenario": "d2", "seed": 9, "n_train": 30, "n_test": 10,
            "models": models,
            "chain": {"n_iters": 10_000_000, "burn_in": 100}})
        _signal_then_check(
            ["experiment", "--config", cfg, "--out", out], out, signum,
            ready=lambda: all(os.path.isdir(os.path.join(out, m))
                              for m in models),
            processes=1 + len(models))


def _signal_then_check(args, out, signum, ready, processes):
    """Start ``rotgp args`` (whose ``--out`` is ``out``), wait for ``ready()``
    and for ``processes`` processes naming ``out``, then send ``signum``: no
    such process may remain 5 s later, and SIGTERM must exit 143."""
    # The launcher restores Python's SIGINT handler, which is not
    # installed when the test runner itself ignores SIGINT.
    launcher = ("import signal, sys; "
                "signal.signal(signal.SIGINT, signal.default_int_handler); "
                "from rotgp.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", launcher, *args],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not ready():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert len(_pids_with_arg(out)) == processes
        proc.send_signal(signum)
        proc.wait(timeout=10)
        if signum == signal.SIGTERM:  # an exit, so the workers' cleanup ran
            assert proc.returncode == 128 + signum
        deadline = time.monotonic() + 5.0
        while _pids_with_arg(out) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _pids_with_arg(out) == []
    finally:
        proc.kill()
        for pid in _pids_with_arg(out):
            os.kill(pid, signal.SIGKILL)


def _pids_with_arg(arg: str) -> list[int]:
    """Live processes whose command line contains ``arg``."""
    pids = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmdline = f.read().split(b"\0")
        except OSError:  # the process has exited
            continue
        if arg.encode() in cmdline:
            pids.append(int(name))
    return pids


# Run from the repository root; README gives the same command.
_REGENERATE_SCHEMAS = (
    "PYTHONPATH=src python -c \"from rotgp.config import SCHEMAS; "
    "from rotgp.table import dump_json; "
    "[dump_json(f'docs/schemas/{n}.schema.json', s) "
    "for n, s in SCHEMAS.items()]\"")


class TestSchemas:
    def test_shipped_schema_files_match_live(self, tmp_path):
        # bytes, not parsed JSON: text that parses the same, such as 0
        # against 0.0, is a difference too
        root = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")
        for name, schema in SCHEMAS.items():
            live = tmp_path / f"{name}.schema.json"
            dump_json(live, schema)
            with open(os.path.join(root, live.name), "rb") as f:
                assert f.read() == live.read_bytes(), (
                    f"{live.name} differs from the live schema; regenerate "
                    f"docs/schemas/ with: {_REGENERATE_SCHEMAS}")

    def test_schemas_are_valid(self):
        root = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")
        shipped = []
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), encoding="utf-8") as f:
                shipped.append(json.load(f))
        for schema in list(SCHEMAS.values()) + shipped:
            validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("command, doc", [
        ("generate", {}),
        ("generate", {"n_train": "10", "n_test": 5, "seed": 1,
                      "out_dir": "o"}),
        ("generate", {"n_train": 10, "n_test": 5, "seed": 1, "out_dir": "o",
                      "generator": {"model": "ard", "lengthscales": [1, 1],
                                    "noise_sd": 0.1}}),
        ("fit", {"train_csv": "t.csv", "model": "iso", "out_dir": "o"}),
        ("fit", {"train_csv": "t.csv", "model": "ard", "out_dir": "o",
                 "chain": {"n_iters": -1, "thin": 0}}),
        ("fit", {"train_csv": "t.csv", "model": "ard", "out_dir": "o",
                 "priors": {"lengthscale_mean": [0.5, 0.5]}, "extra": 1}),
        ("predict", {"train_csv": "t.csv", "out_dir": "o"}),
        ("predict", {"train_csv": "t.csv", "test_csv": "t.csv",
                     "out_dir": "o", "model_params": {"model": "spd"}}),
        ("predict", {"train_csv": 3, "test_csv": "t.csv", "out_dir": "o",
                     "posterior_mean_of_predictions": "yes"}),
        ("evaluate", {"out_dir": "o"}),
        ("evaluate", {"predictions_csv": "p.csv", "out_dir": "o",
                      "label": 7}),
        ("experiment", {"scenario": "d3", "seed": 1, "out_dir": "o"}),
        ("experiment", {"scenario": "d1", "seed": 1.5, "out_dir": "o",
                        "models": ["ard", "ard2"]}),
        ("experiment", {"scenario": "d1", "seed": 1, "out_dir": "o",
                        "proposal_scales": {"iso": 0.1}}),
    ])
    def test_error_text_matches_jsonschema_validate(self, command, doc):
        # rotgp's own schema walker must give the message that
        # jsonschema.validate, which re-checks the schema on every call, gives.
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, SCHEMAS[command])
        path = "/".join(str(p) for p in ref.value.absolute_path) or "(root)"
        with pytest.raises(ConfigError) as info:
            validate(command, doc)
        assert str(info.value) == (f"invalid {command} config at {path}: "
                                   f"{ref.value.message}")

    @pytest.mark.parametrize("command", ["fit", "predict", "experiment"])
    def test_zero_noise_sd_rejected(self, dataset_dir, tmp_path, command):
        # A noiseless model predicts sd = 0 at training points, which no
        # metric can score.
        short = {"n_iters": 20, "burn_in": 10}
        doc = {
            "fit": {"train_csv": str(dataset_dir / "train.csv"),
                    "model": "ard", "noise_sd": 0, "chain": short},
            "predict": {"train_csv": str(dataset_dir / "train.csv"),
                        "test_csv": str(dataset_dir / "train.csv"),
                        "model_params": {"model": "ard",
                                         "profile": {"type": "se"},
                                         "lengthscales": [0.5, 0.5, 0.5],
                                         "noise_sd": 0}},
            "experiment": {"scenario": "d2", "seed": 1, "n_train": 20,
                           "n_test": 10, "noise_sd": 0, "chain": short},
        }[command]
        out = tmp_path / "o"
        cfg = write_json(tmp_path / "c.json", {**doc, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field, text", [
        ("noise_sd", "NaN"),
        ("noise_sd", "Infinity"),
        ("noise_sd", "1e999"),
        ("proposal_scales", '{"log_lengthscale": Infinity}'),
        ("priors", '{"log_noise_mean": -Infinity}'),
    ])
    def test_non_finite_number_rejected(self, dataset_dir, tmp_path, capsys,
                                        field, text):
        # JSON has no NaN or infinity; Python's parser reads them, and NaN
        # passes exclusiveMinimum, so they are refused as the file is read.
        out = tmp_path / "o"
        doc = json.dumps({"train_csv": str(dataset_dir / "train.csv"),
                          "model": "ard", "chain": {"n_iters": 20, "burn_in": 10},
                          "out_dir": str(out), field: None})
        cfg = tmp_path / "c.json"
        cfg.write_text(doc.replace("null", text))
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "experiment"])
    def test_unsupported_rng_rejected(self, dataset_dir, tmp_path, capsys,
                                      command):
        chain = {"n_iters": 20, "burn_in": 10, "rng": "mt19937"}
        doc = {
            "fit": {"train_csv": str(dataset_dir / "train.csv"),
                    "model": "ard", "chain": chain},
            "experiment": {"scenario": "d2", "seed": 1, "n_train": 20,
                           "n_test": 10, "chain": chain},
        }[command]
        out = tmp_path / "o"
        cfg = write_json(tmp_path / "c.json", {**doc, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid {command} config at chain/rng: "
            f"'pcg64' was expected\n")
        assert not out.exists()

    def test_seed_flag_applies_where_meaningful(self, tmp_path):
        assert main(["evaluate", "--config", "x.json",
                     "--seed", "3"]) == 2  # seed not applicable => config error


_MATERN_WITHOUT_NU = {"model": "ard", "profile": {"type": "matern"},
                      "lengthscales": [0.4, 0.3, 0.5], "noise_sd": 0.1}


@pytest.mark.parametrize("case", [
    "generate-matern", "generate-float-seed", "fit-missing-train",
    "fit-matern", "fit-float-n-iters", "predict-missing-summary",
    "predict-summary-not-json", "predict-summary-without-params",
    "predict-matern", "predict-no-model-source", "experiment-float-n-train",
    "config-list", "config-number", "config-null", "experiment-scenario-list",
    "experiment-scenario-object", "generate-stray-field", "generate-se-nu",
    "fit-se-nu", "predict-stray-field", "experiment-generator-stray-field",
    "experiment-generator-se-nu", "experiment-scales-by-model",
    "fit-block-updates", "experiment-block-updates"])
def test_config_error_creates_no_output_dir(dataset_dir, tmp_path, capsys,
                                            case):
    # Every input is read and every setting built before the output
    # directory is made.
    train = str(dataset_dir / "train.csv")
    test = str(dataset_dir / "test.csv")
    missing = str(tmp_path / "missing")
    no_file = f"[Errno 2] No such file or directory: '{missing}'"
    no_nu = "matern profile requires 'nu'"
    not_json = tmp_path / "not-json.json"
    not_json.write_text("not json\n")
    without_params = write_json(tmp_path / "without-params.json", {
        "model": {"model": "ard", "profile": {"type": "se"}, "noise_sd": 0.1}})
    # JSON Schema counts 20.0 as an integer; the code needs a Python int
    not_int = "{} config at {}: {} is not of type 'integer'"
    cfg = tmp_path / "c.json"
    not_object = f"config file {cfg} does not hold a JSON object"
    # a scenario that is no preset name is left to the schema
    no_scenario = ("invalid experiment config at scenario: {} is not one of "
                   "['d1', 'd2', 'plane-holdout']")
    # a model document may hold only its own spec's fields, and se no nu
    stray = {**_MATERN_WITHOUT_NU, "profile": {"type": "se"},
             "axis_angle": [1, 0, 0], "diag": [1, 1, 1]}
    no_stray = "ard model spec has no field 'axis_angle'"
    se_nu = {**_MATERN_WITHOUT_NU, "profile": {"type": "se", "nu": 2.5}}
    no_se_nu = "se profile takes no 'nu'"
    small_chain = {"n_iters": 100, "burn_in": 50}
    block_updates = ("invalid {} config at chain: Additional properties are "
                     "not allowed ('block_updates' was unexpected)")
    command, doc, error = {
        "generate-matern": ("generate", {
            "n_train": 5, "n_test": 5, "seed": 0,
            "generator": _MATERN_WITHOUT_NU}, no_nu),
        "generate-float-seed": ("generate", {
            "n_train": 5, "n_test": 5, "seed": 1.0,
            "generator": {**_MATERN_WITHOUT_NU, "profile": {"type": "se"}}},
            "invalid " + not_int.format("generate", "seed", 1.0)),
        "fit-missing-train": ("fit", {
            "train_csv": missing, "model": "ard"}, no_file),
        "fit-matern": ("fit", {
            "train_csv": train, "model": "ard",
            "profile": {"type": "matern"}}, no_nu),
        "fit-float-n-iters": ("fit", {
            "train_csv": train, "model": "ard", "chain": {"n_iters": 20.0}},
            "invalid " + not_int.format("fit", "chain/n_iters", 20.0)),
        "predict-missing-summary": ("predict", {
            "train_csv": train, "test_csv": test,
            "summary_json": missing}, no_file),
        "predict-summary-not-json": ("predict", {
            "train_csv": train, "test_csv": test,
            "summary_json": str(not_json)},
            f"{not_json}: not a fit summary: "
            "Expecting value: line 1 column 1 (char 0)"),
        "predict-summary-without-params": ("predict", {
            "train_csv": train, "test_csv": test,
            "summary_json": without_params},
            f"{without_params}: not a fit summary: "
            "no 'posterior_mean_params' entry"),
        "predict-matern": ("predict", {
            "train_csv": train, "test_csv": test,
            "model_params": _MATERN_WITHOUT_NU}, no_nu),
        "predict-no-model-source": ("predict", {
            "train_csv": train, "test_csv": test},
            "predict needs either summary_json or model_params"),
        "experiment-float-n-train": ("experiment", {
            "scenario": "d2", "seed": 1, "n_train": 30.0, "n_test": 10},
            "invalid " + not_int.format("experiment", "n_train", 30.0)),
        # a config file's top level must be a JSON object
        "config-list": ("fit", "[]", not_object),
        "config-number": ("fit", "1", not_object),
        "config-null": ("fit", "null", not_object),
        "experiment-scenario-list": ("experiment", {
            "scenario": [], "seed": 1}, no_scenario.format([])),
        "experiment-scenario-object": ("experiment", {
            "scenario": {}, "seed": 1}, no_scenario.format({})),
        "generate-stray-field": ("generate", {
            "n_train": 5, "n_test": 5, "seed": 0, "generator": stray},
            no_stray),
        "generate-se-nu": ("generate", {
            "n_train": 5, "n_test": 5, "seed": 0, "generator": se_nu},
            no_se_nu),
        "fit-se-nu": ("fit", {
            "train_csv": train, "model": "ard",
            "profile": {"type": "se", "nu": 2.5}}, no_se_nu),
        "predict-stray-field": ("predict", {
            "train_csv": train, "test_csv": test, "model_params": stray},
            no_stray),
        "experiment-generator-stray-field": ("experiment", {
            "scenario": "d2", "seed": 1, "n_train": 10, "n_test": 5,
            "generator": stray, "chain": small_chain}, no_stray),
        "experiment-generator-se-nu": ("experiment", {
            "scenario": "plane-holdout", "seed": 1,
            "grid": {"nx": 4, "ny": 3, "nz": 3}, "n_holdout_planes": 1,
            "generator": se_nu, "chain": small_chain}, no_se_nu),
        # burn-in adapts every model's steps, so no per-model steps remain
        "experiment-scales-by-model": ("experiment", {
            "scenario": "d1", "seed": 1,
            "proposal_scales_by_model": {"rotational": {"axis_angle": 0.03}}},
            "invalid experiment config at (root): Additional properties are "
            "not allowed ('proposal_scales_by_model' was unexpected)"),
        # every chain walks its whole state at once
        "fit-block-updates": ("fit", {
            "train_csv": train, "model": "ard",
            "chain": {**small_chain, "block_updates": True}},
            block_updates.format("fit")),
        "experiment-block-updates": ("experiment", {
            "scenario": "d1", "seed": 1,
            "chain": {**small_chain, "block_updates": True}},
            block_updates.format("experiment")),
    }[case]
    out = tmp_path / "out"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    if case.startswith("experiment-generator"):
        # an experiment leaves only its failure.json
        assert os.listdir(out) == ["failure.json"]
        assert json.loads((out / "failure.json").read_text()) == {
            "stage": "generate", "error": error}
    else:
        assert not out.exists()


@pytest.mark.parametrize("bad", ["directory", "not-utf8", "below-a-file"])
@pytest.mark.parametrize("command, field", [
    ("fit", "--config"), ("fit", "train_csv"), ("predict", "test_csv"),
    ("predict", "summary_json"), ("evaluate", "predictions_csv")])
def test_unreadable_input_exits_2(dataset_dir, tmp_path, capsys, command,
                                  field, bad):
    # A path that names a directory, a file that is not UTF-8 and a path
    # through a file are config errors that name the path, not tracebacks.
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
        error = f"{path}: is a directory"
    elif bad == "not-utf8":
        path.write_bytes(b"\xffx,y,z,value\n1,2,3,4\n")
        error = f"{path}: not UTF-8 text"
        if field == "summary_json":  # read as a summary that is not one
            error = (f"{path}: not a fit summary: 'utf-8' codec can't decode "
                     "byte 0xff in position 0: invalid start byte")
    else:
        path.write_text("x,y,z,value\n1,2,3,4\n")
        path = path / "x"
        error = f"[Errno 20] Not a directory: '{path}'"
    train = str(dataset_dir / "train.csv")
    doc = {"fit": {"train_csv": train, "model": "ard",
                   "chain": {"n_iters": 20, "burn_in": 10}},
           "predict": {"train_csv": train,
                       "test_csv": str(dataset_dir / "test.csv"),
                       "model_params": {**_MATERN_WITHOUT_NU,
                                        "profile": {"type": "se"}}},
           "evaluate": {}}[command]
    out = tmp_path / "out"
    if field == "--config":
        cfg = str(path)
    else:
        cfg = write_json(tmp_path / "c.json",
                         {**doc, field: str(path), "out_dir": str(out)})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader, header", [
    (load_chain_csv, "iter,log_post,l_x,l_y,l_z"),
    (_read_predictions, "x,y,z,truth,mean,sd"),
    (_load_locations, "x,y,z"),
], ids=["chain", "predictions", "locations"])
def test_header_only_file_rejected_without_warning(tmp_path, reader, header):
    path = tmp_path / "empty.csv"
    for body in ("", "\n", "\n  \n"):
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError):
            reader(str(path))
