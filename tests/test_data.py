import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotgp.data import (DataFormatError, SyntheticConfig, generate_synthetic,
                        holdout_planes, load_csv, sample_gp_outputs, save_csv,
                        standardize)
from rotgp.gp import Dataset, GPModel
from rotgp.kernels import SquaredExponential, cross_gram
from rotgp.metric import Ard, Rotational, build_metric

D1_MODEL = GPModel(SquaredExponential(),
                   Rotational((0.40, 0.10, 0.80), (0.7, -0.4, 1.0)),
                   0.05 ** 2)
D2_MODEL = GPModel(SquaredExponential(), Ard((1.00, 0.25, 0.37)), 0.05 ** 2)


def d1_config(n_train=40, n_test=20, seed=0):
    return SyntheticConfig(n_train=n_train, n_test=n_test, generator=D1_MODEL,
                           seed=seed)


class TestGenerateSynthetic:
    def test_shapes_and_cube_support(self):
        split = generate_synthetic(d1_config())
        assert split.train.n == 40 and split.test.n == 20
        for d in (split.train, split.test):
            assert np.all(np.abs(d.X) <= 1.0)

    def test_deterministic_given_seed(self):
        a = generate_synthetic(d1_config(seed=5))
        b = generate_synthetic(d1_config(seed=5))
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.train.y, b.train.y)
        assert np.array_equal(a.test.y, b.test.y)

    def test_different_seeds_give_different_splits(self):
        a = generate_synthetic(d1_config(seed=1))
        b = generate_synthetic(d1_config(seed=2))
        assert not np.array_equal(a.train.X, b.train.X)

    def test_d2_config_runs(self):
        cfg = SyntheticConfig(n_train=30, n_test=10, generator=D2_MODEL, seed=3)
        split = generate_synthetic(cfg)
        assert split.train.n == 30
        assert split.provenance["n_test"] == 10

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_train=0, n_test=5, generator=D1_MODEL, seed=0)

    def test_two_point_covariance_oracle(self):
        # Held-fixed pair of nearby points: the sample covariance over many
        # output draws must reproduce the exact 2x2 MVN covariance.
        X = np.array([[0.0, 0.0, 0.0], [0.05, 0.02, -0.03]])
        M = build_metric(D1_MODEL.params)
        target = cross_gram(D1_MODEL.profile, M, X, X) + D1_MODEL.noise_var * np.eye(2)
        rng = np.random.default_rng(77)
        draws = sample_gp_outputs(D1_MODEL, X, rng, n_draws=100_000)
        sample_cov = np.cov(draws)
        assert np.abs((sample_cov - target) / target).max() < 0.02

    def test_ten_point_covariance_within_mc_error(self):
        rng_x = np.random.default_rng(5)
        X = rng_x.uniform(-1, 1, (10, 3))
        M = build_metric(D1_MODEL.params)
        target = cross_gram(D1_MODEL.profile, M, X, X) + D1_MODEL.noise_var * np.eye(10)
        n_draws = 10_000
        draws = sample_gp_outputs(D1_MODEL, X, np.random.default_rng(6),
                                  n_draws=n_draws)
        sample_cov = np.cov(draws)
        # MC standard error of a covariance entry from Gaussian draws
        var_i = np.diag(target)
        se = np.sqrt((np.outer(var_i, var_i) + target ** 2) / n_draws)
        assert np.abs(sample_cov - target).max() < 5 * se.max()


class TestCsvRoundTrip:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,z,value\n0.1,0.2,0.3,1.5\n-0.4,0.0,0.9,-2.25\n")
        d = load_csv(path)
        assert d.n == 2
        np.testing.assert_allclose(d.y, [1.5, -2.25])

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(8)
        d = Dataset(rng.uniform(-1, 1, (25, 3)), rng.standard_normal(25))
        path = tmp_path / "d.csv"
        save_csv(path, d)
        d2 = load_csv(path)
        assert np.array_equal(d.X, d2.X)
        assert np.array_equal(d.y, d2.y)

    def test_non_numeric_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z,value\n0.0,0.0,0.0,1.0\n0.05,a,0.1,1.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z,value\n0.0,0.0,1.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(path)
        path.write_text("x,y,z,value\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_row_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,z,value\n0.0,0.0,0.0,1.0\n0.1,{cell},0.2,1.0\n")
        with pytest.raises(DataFormatError, match="line 3: non-finite"):
            load_csv(path)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(path, Dataset(np.zeros((2, 3)), [1.0, 2.0]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"x,y,z,value\n")


# Property tests of the CSV reader: exact round trips, and the line number of
# the first malformed row.
_property = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_BAD_ROWS = {
    "ragged": st.sampled_from(["1.0", "1.0,2.0", "1.0,2.0,3.0",
                               "1.0,2.0,3.0,4.0,5.0", "1,2,3,4,5,6"]),
    "non-numeric": st.sampled_from(["a,0,0,0", "0,1.0.0,0,0", "0,0,,0",
                                    "0,0,0,0x10", "--1,0,0,0", "0,0,0,1e"]),
    "non-finite": st.sampled_from(["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0",
                                   "0,0,0,NaN", "1e999,0,0,0", "0,Infinity,0,0"]),
}


class TestLoadCsvProperties:
    @_property
    @given(st.integers(1, 20).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, 3), elements=_finite),
        arrays(np.float64, n, elements=_finite))))
    def test_save_load_round_trip_is_exact(self, data):
        X, y = data
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            save_csv(path, Dataset(X, y))
            back = load_csv(path)
        assert np.array_equal(back.X, X) and np.array_equal(back.y, y)

    @_property
    @given(st.lists(arrays(np.float64, 4, elements=_finite), max_size=8),
           st.data(), st.sampled_from(sorted(_BAD_ROWS)))
    def test_malformed_row_reports_its_line(self, good, data, kind):
        k = data.draw(st.integers(0, len(good)), label="bad row index")
        rows = [",".join(repr(float(v)) for v in row) for row in good]
        rows.insert(k, data.draw(_BAD_ROWS[kind], label="bad row"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write("x,y,z,value\n" + "\n".join(rows) + "\n")
            with pytest.raises(DataFormatError, match=f": line {k + 2}: "):
                load_csv(path)


def grid_dataset():
    xs = np.round(np.linspace(-1.0, 1.0, 11), 10)
    ys = np.linspace(-1.0, 1.0, 4)
    zs = np.linspace(-1.0, 1.0, 3)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    X = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return Dataset(X, np.arange(X.shape[0], dtype=float))


class TestHoldoutPlanes:
    def test_single_plane_geometry(self):
        d = grid_dataset()
        split = holdout_planes(d, "x", [0.8], tol=1e-9)
        assert split.test.n == 12
        assert np.all(np.abs(split.test.X[:, 0] - 0.8) <= 1e-9)
        assert split.train.n == d.n - 12

    def test_gap_geometry_with_excluded_planes(self):
        d = grid_dataset()
        split = holdout_planes(d, "x", [-0.4], exclude_values=[-0.2, -0.6],
                               tol=1e-9)
        assert split.test.n == 12
        assert split.train.n == d.n - 3 * 12
        assert split.provenance["n_excluded"] == 24
        for v in (-0.2, -0.6):
            assert not np.any(np.abs(split.train.X[:, 0] - v) <= 1e-9)
            assert not np.any(np.abs(split.test.X[:, 0] - v) <= 1e-9)

    def test_partition_invariant(self):
        d = grid_dataset()
        split = holdout_planes(d, "x", [0.0, 1.0], exclude_values=[-1.0])
        n_excluded = split.provenance["n_excluded"]
        assert split.train.n + split.test.n + n_excluded == d.n

    def test_empty_test_set_errors(self):
        d = grid_dataset()
        with pytest.raises(ValueError, match="empty test"):
            holdout_planes(d, "x", [], tol=1e-9)
        with pytest.raises(ValueError, match="empty test"):
            holdout_planes(d, "x", [5.0], tol=1e-9)

    def test_empty_train_set_errors(self):
        d = grid_dataset()
        xs = sorted(set(np.round(d.X[:, 0], 10)))
        with pytest.raises(ValueError, match="empty train"):
            holdout_planes(d, "x", xs, tol=1e-9)

    def test_other_axes(self):
        d = grid_dataset()
        split = holdout_planes(d, "z", [0.0], tol=1e-9)
        assert split.test.n == 11 * 4

    def test_fine_grid_task_geometries(self):
        # 0.05-spaced x levels: hold-out of the x=0.9 plane, and the gapped
        # variant holding out x=-0.35 while also dropping the two
        # neighbouring planes from training.
        xs = -1.0 + 0.05 * np.arange(41)
        ys = np.linspace(-1, 1, 7)
        zs = np.linspace(0.0, 0.3, 7)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        d = Dataset(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]),
                    np.zeros(41 * 49))
        near = holdout_planes(d, "x", [0.9], tol=1e-9)
        assert near.test.n == 49
        assert near.train.n == 40 * 49
        gapped = holdout_planes(d, "x", [-0.35], exclude_values=[-0.30, -0.40],
                                tol=1e-9)
        assert gapped.test.n == 49
        assert gapped.provenance["n_excluded"] == 2 * 49
        assert gapped.train.n == 38 * 49
        gap = np.abs(gapped.train.X[:, 0] - (-0.35)).min()
        assert gap > 0.095  # nearest training plane is two levels away

    def test_bad_arguments(self):
        d = grid_dataset()
        with pytest.raises(ValueError):
            holdout_planes(d, "w", [0.0])
        with pytest.raises(ValueError):
            holdout_planes(d, "x", [0.0], tol=0.0)


class TestStandardize:
    def test_two_point_example(self):
        d, mean, sd = standardize(Dataset(np.zeros((2, 3)), [1.0, 3.0]))
        assert mean == 2.0
        assert sd == pytest.approx(np.sqrt(2.0), rel=1e-15)
        np.testing.assert_allclose(d.y, [-1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   rtol=1e-15)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.uniform(-1, 1, (50, 3)), rng.standard_normal(50))
        d1, _, _ = standardize(d)
        d2, mean2, sd2 = standardize(d1)
        assert abs(mean2) < 1e-12 and abs(sd2 - 1.0) < 1e-12
        np.testing.assert_allclose(d2.y, d1.y, atol=1e-12)

    def test_constant_outputs_error(self):
        with pytest.raises(ValueError, match="zero variance"):
            standardize(Dataset(np.zeros((3, 3)), [2.0, 2.0, 2.0]))

    def test_single_point_error(self):
        with pytest.raises(ValueError):
            standardize(Dataset(np.zeros((1, 3)), [2.0]))
