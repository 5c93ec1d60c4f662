import numpy as np
import pytest
from scipy.special import gamma, kv

from rotgp.kernels import (GramFactorizationError, Matern, SquaredExponential,
                           cross_gram, gram, radial_profile)
from rotgp.metric import Ard, Rotational, build_metric
from rotgp.so3 import exp_so3

M_TRUE = build_metric(Rotational((0.40, 0.10, 0.80), (0.7, -0.4, 1.0)))


def sq_rotated_distance(M, x, x2) -> float:
    """Oracle: squared distance between two points under the metric M."""
    d = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    return max(float(d @ (np.asarray(M, dtype=float) @ d)), 0.0)


def matern_bessel(nu, psi):
    """Independent oracle: the Bessel-function form of the Matern profile."""
    r = np.sqrt(2.0 * nu * psi)
    return 2.0 ** (1.0 - nu) / gamma(nu) * r ** nu * kv(nu, r)


class TestSqRotatedDistance:
    def test_zero_for_identical_points(self):
        x = np.array([0.3, -0.2, 0.9])
        assert sq_rotated_distance(np.eye(3), x, x) == 0.0

    def test_euclidean_special_case(self):
        assert sq_rotated_distance(np.eye(3), (1.0, 2.0, 2.0),
                                   (0.0, 0.0, 0.0)) == pytest.approx(9.0)

    def test_transform_then_norm_oracle(self):
        # psi must equal the squared norm of the whitened-rotated difference.
        rng = np.random.default_rng(0)
        R = exp_so3((0.7, -0.4, 1.0))
        A = np.diag([1 / 0.40, 1 / 0.10, 1 / 0.80]) @ R
        for _ in range(100):
            x, x2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            expected = float(np.sum((A @ (x - x2)) ** 2))
            assert sq_rotated_distance(M_TRUE, x, x2) == pytest.approx(
                expected, rel=1e-12)

    def test_positive_for_distinct_points(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-1, 1, 3)
            assert sq_rotated_distance(M_TRUE, x, x + 1e-8) > 0.0


class TestRadialProfile:
    def test_se_values(self):
        assert radial_profile(SquaredExponential(), 0.0) == 1.0
        assert radial_profile(SquaredExponential(), 2.0) == pytest.approx(
            np.exp(-1.0), rel=1e-15)

    def test_all_profiles_are_one_at_zero(self):
        for profile in (SquaredExponential(), Matern(0.5), Matern(1.5),
                        Matern(2.5)):
            assert radial_profile(profile, 0.0) == 1.0

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_matches_bessel_oracle(self, nu):
        psi = np.concatenate([np.logspace(-6, 1.5, 40), [1.0, 2.0, 5.0]])
        ours = radial_profile(Matern(nu), psi)
        np.testing.assert_allclose(ours, matern_bessel(nu, psi), rtol=1e-10)

    def test_matern_half_at_unit_distance(self):
        # nu=1/2 closed form is exp(-sqrt(psi)): e^-1 at psi=1, and the
        # Bessel-form evaluation agrees.
        value = radial_profile(Matern(0.5), 1.0)
        assert value == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert value == pytest.approx(matern_bessel(0.5, 1.0), rel=1e-10)

    def test_monotone_non_increasing(self):
        psi = np.linspace(0.0, 40.0, 400)
        for profile in (SquaredExponential(), Matern(0.5), Matern(1.5),
                        Matern(2.5)):
            values = radial_profile(profile, psi)
            assert np.all(np.diff(values) <= 1e-15)
            assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_matern52_and_se_agree_at_limits(self):
        assert radial_profile(Matern(2.5), 0.0) == radial_profile(
            SquaredExponential(), 0.0) == 1.0
        assert radial_profile(Matern(2.5), 1e4) < 1e-12
        assert radial_profile(SquaredExponential(), 1e4) < 1e-12

    def test_matern_rejects_general_nu(self):
        with pytest.raises(ValueError):
            Matern(1.0)


class TestGram:
    def test_single_point(self):
        gm = gram(SquaredExponential(), np.eye(3), np.zeros((1, 3)), 0.04)
        np.testing.assert_allclose(gm.matrix, [[1.04]], atol=1e-15)
        assert gm.jitter == 0.0

    def test_duplicate_points_need_jitter(self):
        X = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
        gm = gram(SquaredExponential(), np.eye(3), X, 0.0)
        assert gm.jitter > 0.0
        assert gm.matrix[0, 1] == 1.0
        np.testing.assert_allclose(gm.chol_lower @ gm.chol_lower.T, gm.matrix,
                                   atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (8, 3))
        noise = 0.0025
        for profile in (SquaredExponential(), Matern(1.5)):
            gm = gram(profile, M_TRUE, X, noise)
            expected = np.empty((8, 8))
            for i in range(8):
                for j in range(8):
                    expected[i, j] = radial_profile(
                        profile, sq_rotated_distance(M_TRUE, X[i], X[j]))
            expected[np.diag_indices(8)] += noise + gm.jitter
            assert np.abs(gm.matrix - expected).max() <= 1e-14

    def test_diagonal_value_invariant(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (30, 3))
        gm = gram(SquaredExponential(), M_TRUE, X, 0.0025)
        np.testing.assert_allclose(np.diag(gm.matrix),
                                   1.0 + 0.0025 + gm.jitter, atol=1e-15)

    def test_pre_noise_matrix_is_psd(self):
        rng = np.random.default_rng(6)
        for profile in (SquaredExponential(), Matern(0.5), Matern(2.5)):
            for _ in range(10):
                n = int(rng.integers(2, 51))
                X = rng.uniform(-1, 1, (n, 3))
                ls = rng.uniform(0.1, 1.5, 3)
                a = rng.normal(0, 1, 3)
                M = build_metric(Rotational(ls, a))
                K = cross_gram(profile, M, X, X)
                assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-10

    def test_rotational_invariance_chain(self):
        # Kernel under the rotated metric equals the ARD kernel on inputs
        # rotated into the principal frame.
        rng = np.random.default_rng(7)
        for _ in range(20):
            ls = rng.uniform(0.1, 1.5, 3)
            a = rng.normal(0, 1, 3)
            X = rng.uniform(-1, 1, (25, 3))
            R = exp_so3(a)
            g_rot = gram(SquaredExponential(),
                         build_metric(Rotational(ls, a)), X, 0.01)
            g_ard = gram(SquaredExponential(),
                         build_metric(Ard(ls)), X @ R.T, 0.01)
            assert np.abs(g_rot.matrix - g_ard.matrix).max() <= 1e-12

    def test_jitter_cap_failure(self, monkeypatch):
        # Valid inputs essentially never exhaust the ladder (any positive
        # jitter makes a PSD matrix factorizable), so force failures to check
        # the escalation and the cap.
        from scipy.linalg import LinAlgError
        attempts = []

        def always_fail(A, **kwargs):
            attempts.append(A[0, 0])
            raise LinAlgError("forced")

        monkeypatch.setattr("rotgp.kernels.cholesky", always_fail)
        with pytest.raises(GramFactorizationError):
            gram(SquaredExponential(), np.eye(3), np.zeros((1, 3)), 0.0)
        # one no-jitter attempt, then 1e-12 * mean(diag) rising tenfold to 1e-4
        assert len(attempts) == 10
        np.testing.assert_allclose(attempts[1:],
                                   1.0 + 10.0 ** np.arange(-12.0, -3.0),
                                   rtol=1e-12)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(ValueError):
            gram(SquaredExponential(), np.eye(3),
                 np.array([[np.nan, 0.0, 0.0]]), 0.0)


class TestCrossGram:
    def test_self_cross_is_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (10, 3))
        K = cross_gram(SquaredExponential(), np.eye(3), X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)

    def test_far_pair_decays(self):
        K = cross_gram(SquaredExponential(), np.eye(3),
                       np.array([[0.0, 0.0, 0.0]]),
                       np.array([[10.0, 0.0, 0.0]]))
        assert K[0, 0] < 1e-10

    def test_block_consistency_with_gram(self):
        rng = np.random.default_rng(9)
        X_train = rng.uniform(-1, 1, (12, 3))
        X_test = rng.uniform(-1, 1, (5, 3))
        stacked = np.vstack([X_test, X_train])
        full = gram(SquaredExponential(), M_TRUE, stacked, 0.0)
        block = cross_gram(SquaredExponential(), M_TRUE, X_test, X_train)
        np.testing.assert_allclose(block, full.matrix[:5, 5:], atol=1e-14)
