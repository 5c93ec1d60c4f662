import json
import os

import numpy as np
import pytest

from rotgp.cli import main
from rotgp.data import load_csv

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

    def test_missing_train_csv_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "f.json", {
            "train_csv": str(tmp_path / "missing.csv"), "model": "ard",
            "out_dir": str(tmp_path / "o")})
        assert main(["fit", "--config", cfg]) == 2

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

    @pytest.mark.parametrize("columns", ["p,q,r", "p,q,r,noise_var",
                                         "l_x,l_y,l_z,a_1"])
    def test_mixture_rejects_unknown_chain_columns(self, dataset_dir, tmp_path,
                                                   columns):
        # Columns that name no model exactly must not be read as any model.
        chain_csv = tmp_path / "chain.csv"
        values = ",".join(["0.5"] * len(columns.split(",")))
        chain_csv.write_text(f"iter,log_post,{columns}\n1,-1.0,{values}\n")
        out = tmp_path / "predbad"
        cfg = write_json(tmp_path / "pb.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "model_params": {"model": "ard", "profile": {"type": "se"},
                             "lengthscales": [0.5, 0.5, 0.5], "noise_sd": 0.1},
            "chain_csv": str(chain_csv),
            "out_dir": str(out)})
        assert main(["predict", "--config", cfg,
                     "--posterior-mean-of-predictions"]) == 2
        assert not (out / "predictions.csv").exists()

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

    def test_missing_model_source_exits_2(self, dataset_dir, tmp_path):
        cfg = write_json(tmp_path / "p.json", {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
            "out_dir": str(tmp_path / "o")})
        assert main(["predict", "--config", cfg]) == 2


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


class TestExperiment:
    def test_tiny_d2_scenario(self, tmp_path):
        out = tmp_path / "exp"
        cfg = write_json(tmp_path / "x.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 30, "n_test": 15,
            "models": ["rotational", "ard"],
            "chain": {"n_iters": 300, "burn_in": 100, "thin": 4}})
        assert main(["experiment", "--config", cfg]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("model,mae,rmse,cov68,cov95")
        assert [l.split(",")[0] for l in lines[1:]] == ["rotational", "ard"]
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["scenario"] == "d2" and len(doc["rows"]) == 2
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["derived_seeds"] == {"rotational": 110, "ard": 112}

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

    def test_bad_chain_bounds_is_config_error(self, tmp_path):
        out = tmp_path / "expcfg"
        cfg = write_json(tmp_path / "xc.json", {
            "scenario": "d2", "seed": 9, "out_dir": str(out),
            "n_train": 10, "n_test": 5, "models": ["ard"],
            "chain": {"n_iters": 100, "burn_in": 100}})
        assert main(["experiment", "--config", cfg]) == 2


class TestSchemas:
    def test_shipped_schema_files_match_live(self):
        from rotgp.config import SCHEMAS
        root = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")
        for name, schema in SCHEMAS.items():
            path = os.path.join(root, f"{name}.schema.json")
            with open(path, encoding="utf-8") as f:
                assert json.load(f) == schema

    def test_seed_flag_applies_where_meaningful(self, tmp_path):
        assert main(["evaluate", "--config", "x.json",
                     "--seed", "3"]) == 2  # seed not applicable => config error
