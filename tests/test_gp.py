import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from rotgp.gp import Dataset, GPModel, log_marginal_likelihood, predict
from rotgp.kernels import Matern, SquaredExponential, cross_gram, radial_profile
from rotgp.metric import Ard, Rotational, build_metric
from rotgp.so3 import exp_so3


def random_model(rng, kind="rotational", noise_var=0.0025):
    ls = rng.uniform(0.2, 1.5, 3)
    if kind == "ard":
        params = Ard(ls)
    else:
        params = Rotational(ls, rng.normal(0, 1, 3))
    return GPModel(SquaredExponential(), params, noise_var)


def random_dataset(rng, n):
    return Dataset(rng.uniform(-1, 1, (n, 3)), rng.standard_normal(n))


def dense_loglik(model, data):
    """Oracle: explicit inverse and determinant of the noisy kernel matrix."""
    M = build_metric(model.params)
    K = cross_gram(model.profile, M, data.X, data.X)
    K = K + model.noise_var * np.eye(data.n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    quad = data.y @ np.linalg.inv(K) @ data.y
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * np.log(2 * np.pi)


def naive_loglik(model, data):
    """Reference independent of the package's distance and Cholesky path:
    the quadratic form (x - x')^T M (x - x') formed directly, an LU solve and
    slogdet."""
    M = build_metric(model.params)
    D = data.X[:, None, :] - data.X[None, :, :]
    psi = np.maximum(np.einsum("ijk,kl,ijl->ij", D, M, D), 0.0)
    K = radial_profile(model.profile, psi) + model.noise_var * np.eye(data.n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    quad = data.y @ np.linalg.solve(K, data.y)
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * np.log(2 * np.pi)


def mvn_conditional(model, train, X_test):
    """Oracle: condition the joint train/test Gaussian by brute force."""
    M = build_metric(model.params)
    n, m = train.n, len(X_test)
    joint = cross_gram(model.profile, M, np.vstack([train.X, X_test]),
                       np.vstack([train.X, X_test]))
    joint = joint + model.noise_var * np.eye(n + m)
    K_tt = joint[:n, :n]
    K_ts = joint[:n, n:]
    K_ss = joint[n:, n:]
    K_inv = np.linalg.inv(K_tt)
    mean = K_ts.T @ K_inv @ train.y
    cov = K_ss - K_ts.T @ K_inv @ K_ts
    return mean, np.diag(cov)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        for noise_var in (0.0, 0.0025, 0.5):
            data = Dataset(np.zeros((1, 3)), [0.0])
            model = GPModel(SquaredExponential(), Ard((1.0, 1.0, 1.0)),
                            noise_var)
            expected = -0.5 * np.log(1 + noise_var) - 0.5 * np.log(2 * np.pi)
            assert log_marginal_likelihood(model, data) == pytest.approx(
                expected, rel=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            model = random_model(rng)
            data = random_dataset(rng, n)
            ours = log_marginal_likelihood(model, data)
            assert ours == pytest.approx(dense_loglik(model, data), rel=1e-10)

    @pytest.mark.parametrize("profile", [SquaredExponential(), Matern(0.5),
                                         Matern(1.5), Matern(2.5)],
                             ids=["se", "matern12", "matern32", "matern52"])
    def test_matches_naive_reference_at_n300(self, profile):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 300)
        model = GPModel(profile, Rotational((0.40, 0.10, 0.80),
                                            (0.7, -0.4, 1.0)), 0.0025)
        ours = log_marginal_likelihood(model, data)
        assert ours == pytest.approx(naive_loglik(model, data), rel=1e-10)

    def test_invariant_under_parameter_symmetry(self):
        # States that induce the same metric give identical likelihoods.
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 15)
        ls = np.array([0.3, 0.7, 1.1])
        a = np.array([0.4, -0.2, 0.9])
        base = log_marginal_likelihood(
            GPModel(SquaredExponential(), Rotational(ls, a), 0.01), data)
        R = exp_so3(a)
        perm = [2, 0, 1]
        R_perm = np.eye(3)[perm] @ R
        if np.linalg.det(R_perm) < 0:
            R_perm = np.diag([1.0, 1.0, -1.0]) @ R_perm
        a_perm = ScipyRotation.from_matrix(R_perm).as_rotvec()
        other = log_marginal_likelihood(
            GPModel(SquaredExponential(), Rotational(ls[perm], a_perm), 0.01),
            data)
        assert other == pytest.approx(base, rel=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        data = random_dataset(rng, 20)
        shifted = Dataset(data.X + np.array([3.0, -2.0, 0.5]), data.y)
        assert log_marginal_likelihood(model, shifted) == pytest.approx(
            log_marginal_likelihood(model, data), rel=1e-10)


class TestPredict:
    def test_interpolates_training_point_without_noise(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 12)
        model = random_model(rng, noise_var=0.0)
        res = predict(model, data, data.X[:3])
        np.testing.assert_allclose(res.mean, data.y[:3], atol=1e-6)
        assert np.all(res.var <= 1e-6)

    def test_reverts_to_prior_far_away(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 10)
        model = GPModel(SquaredExponential(), Ard((0.2, 0.2, 0.2)), 0.0025)
        far = np.array([[50.0, 50.0, 50.0]])
        res = predict(model, data, far)
        assert abs(res.mean[0]) < 1e-10
        assert res.var[0] == pytest.approx(1.0 + 0.0025, abs=1e-10)

    def test_matches_mvn_conditioning_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 6))
            model = random_model(rng)
            train = random_dataset(rng, n)
            X_test = rng.uniform(-1, 1, (m, 3))
            res = predict(model, train, X_test)
            mean, var = mvn_conditional(model, train, X_test)
            np.testing.assert_allclose(res.mean, mean, atol=1e-9)
            np.testing.assert_allclose(res.var, var, atol=1e-9)

    def test_variance_bounds(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, noise_var=0.04)
        train = random_dataset(rng, 40)
        res = predict(model, train, rng.uniform(-1.5, 1.5, (60, 3)))
        assert np.all(res.var >= 0.04 - 1e-12)
        assert np.all(res.var <= 1.0 + 0.04 + 1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(19)
        model = random_model(rng)
        train = random_dataset(rng, 25)
        X_test = rng.uniform(-1, 1, (8, 3))
        shift = np.array([-1.5, 4.0, 2.5])
        res = predict(model, train, X_test)
        res_shift = predict(model, Dataset(train.X + shift, train.y),
                            X_test + shift)
        np.testing.assert_allclose(res_shift.mean, res.mean, atol=1e-10)
        np.testing.assert_allclose(res_shift.var, res.var, atol=1e-10)

    def test_joint_rotation_equivariance(self):
        # Rotating all inputs by Q while conjugating the metric to Q M Q^T
        # leaves the likelihood unchanged.
        rng = np.random.default_rng(20)
        data = random_dataset(rng, 20)
        ls = np.array([0.3, 0.8, 1.2])
        a = np.array([0.5, 0.1, -0.7])
        model = GPModel(SquaredExponential(), Rotational(ls, a), 0.01)
        base = log_marginal_likelihood(model, data)
        for _ in range(10):
            Q = ScipyRotation.random(rng=rng).as_matrix()
            # M' = Q M Q^T comes from R' = R Q^T with unchanged scales.
            R_new = exp_so3(a) @ Q.T
            a_new = ScipyRotation.from_matrix(R_new).as_rotvec()
            model_rot = GPModel(SquaredExponential(), Rotational(ls, a_new),
                                0.01)
            rotated = Dataset(data.X @ Q.T, data.y)
            assert log_marginal_likelihood(model_rot, rotated) == pytest.approx(
                base, rel=1e-9)

    def test_duplicate_training_point_is_harmless(self):
        # A repeated consistent observation carries no new information in the
        # small-noise limit; predictions elsewhere must stay put.
        rng = np.random.default_rng(21)
        train = random_dataset(rng, 20)
        model = random_model(rng, noise_var=1e-7)
        X_test = rng.uniform(-1, 1, (10, 3))
        base = predict(model, train, X_test)
        dup = Dataset(np.vstack([train.X, train.X[:1]]),
                      np.append(train.y, train.y[0]))
        res = predict(model, dup, X_test)
        assert np.abs(res.mean - base.mean).max() < 1e-6

    def test_rejects_mismatched_dataset(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(np.full((3, 3), np.nan), np.zeros(3))
