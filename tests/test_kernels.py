import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import LinAlgError, cholesky
from scipy.special import gamma, kv

from rotgp.data import sample_gp_outputs
from rotgp.gp import GPModel
from rotgp.kernels import (JITTER_CAP, GramFactorizationError, Matern,
                           SquaredExponential, _pairwise_sq_dist, cross_gram,
                           gram, radial_profile)
from rotgp.metric import Ard, CholeskySpd, Rotational, build_metric
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

    def test_se_floor_keeps_products_normal(self):
        # exp(-psi / 2) below, and the floor exp(-353) past psi = 706, where
        # exp's results and the Gram's products would be subnormal or 0
        psi = np.array([0.0, 2.0, 700.0, 706.0, 706.5, 1416.0, 1500.0, 1e6])
        got = radial_profile(SquaredExponential(), psi)
        assert np.array_equal(got, np.maximum(np.exp(-0.5 * psi),
                                              np.exp(-353.0)))
        assert np.all(got * got >= np.finfo(float).tiny)

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
        C = np.tril(gm.chol_lower)
        np.testing.assert_allclose(C @ C.T, gm.matrix, atol=1e-12)

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


# Property tests of the distance kernel over random inputs, all three metric
# parameterisations and rotations with |a| near pi.
PROFILES = (SquaredExponential(), Matern(0.5), Matern(1.5), Matern(2.5))
_lengthscales = arrays(np.float64, 3, elements=st.floats(0.2, 1.5))
_angle = st.one_of(st.floats(0.0, np.pi),
                   st.floats(np.pi - 1e-6, np.pi + 1e-6))
_axis = arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda u: np.linalg.norm(u) > 1e-3)
_metric_params = st.one_of(
    st.builds(Ard, _lengthscales),
    st.builds(lambda ls, u, t: Rotational(ls, t * u / np.linalg.norm(u)),
              _lengthscales, _axis, _angle),
    st.builds(CholeskySpd,
              arrays(np.float64, 3, elements=st.floats(0.7, 3.0)),
              arrays(np.float64, 3, elements=st.floats(-1.5, 1.5))),
)


@st.composite
def _inputs_with_duplicates(draw):
    """(X, dup): random points, with rows ``dup[:, 1]`` copied from
    ``dup[:, 0]``."""
    n = draw(st.integers(1, 12))
    X = draw(arrays(np.float64, (n, 3), elements=st.floats(-2.0, 2.0)))
    src = draw(st.lists(st.integers(0, n - 1), max_size=4))
    dup = np.array([(i, n + k) for k, i in enumerate(src)],
                   dtype=int).reshape(-1, 2)
    return np.vstack([X, X[dup[:, 0]]]), dup


_property = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


class TestDistanceProperties:
    @_property
    @given(_inputs_with_duplicates(), _metric_params)
    def test_psi_nonnegative_and_zero_on_duplicates(self, inputs, params):
        X, dup = inputs
        psi = _pairwise_sq_dist(build_metric(params), X, X)
        assert np.all(psi >= 0.0)
        assert np.all(np.diag(psi) == 0.0)
        assert np.all(psi[dup[:, 0], dup[:, 1]] == 0.0)
        assert np.all(psi[dup[:, 1], dup[:, 0]] == 0.0)

    @_property
    @given(_inputs_with_duplicates(), _metric_params,
           st.sampled_from(PROFILES), st.sampled_from([0.0, 0.0025, 0.5]))
    def test_gram_symmetric_and_consistent_with_cross_gram(
            self, inputs, params, profile, noise_var):
        X, _ = inputs
        M = build_metric(params)
        gm = gram(profile, M, X, noise_var)
        assert np.array_equal(gm.matrix, gm.matrix.T)
        K = cross_gram(profile, M, X, X)
        off = ~np.eye(len(X), dtype=bool)
        assert np.array_equal(gm.matrix[off], K[off])
        assert np.all(np.diag(K) == 1.0)
        assert np.all(np.diag(gm.matrix) == (1.0 + noise_var) + gm.jitter)

    @_property
    @given(_inputs_with_duplicates(), _metric_params,
           st.sampled_from(PROFILES))
    def test_gram_and_cross_gram_match_double_loop_oracle(
            self, inputs, params, profile):
        X, _ = inputs
        n, h = len(X), len(X) // 2
        M = build_metric(params)
        oracle = np.array([[radial_profile(
            profile, sq_rotated_distance(M, X[i], X[j])) for j in range(n)]
            for i in range(n)])
        assert np.abs(cross_gram(profile, M, X, X) - oracle).max() <= 1e-14
        assert np.abs(cross_gram(profile, M, X[:h], X[h:])
                      - oracle[:h, h:]).max(initial=0.0) <= 1e-14
        gm = gram(profile, M, X, 0.0025)
        oracle[np.diag_indices(n)] += 0.0025 + gm.jitter
        assert np.abs(gm.matrix - oracle).max() <= 1e-14


def loop_sq_dist(M, A, B):
    """Reference distance: the whitened coordinates' squared differences
    summed one coordinate at a time with ``subtract.outer``. The Gram's bytes
    are defined by this loop."""
    L = np.linalg.cholesky(M)
    Wa = A @ L
    Wb = Wa if B is A else B @ L
    psi = np.subtract.outer(Wa[:, 0], Wb[:, 0])
    np.multiply(psi, psi, out=psi)
    d = np.empty_like(psi)
    for k in (1, 2):
        np.subtract.outer(Wa[:, k], Wb[:, k], out=d)
        np.multiply(d, d, out=d)
        psi += d
    return psi


def reference_gram(profile, M, X, noise_var):
    """Reference (Gram, jitter, factor): the loop distance, the jitter ladder
    and scipy's copying Cholesky with a zeroed upper triangle."""
    K = radial_profile(profile, loop_sq_dist(M, X, X))
    clean = np.diag(K) + noise_var
    base = 1e-12 * float(np.mean(clean))
    jitter = 0.0
    while True:
        K[np.diag_indices_from(K)] = clean + jitter
        try:
            return K, jitter, cholesky(K, lower=True, check_finite=False)
        except LinAlgError:
            jitter = base if jitter == 0.0 else 10.0 * jitter
            assert jitter <= JITTER_CAP


def assert_same_bytes_as_reference(profile, params, X, noise_var):
    M = build_metric(params)
    K, jitter, C = reference_gram(profile, M, X, noise_var)
    gm = gram(profile, M, X, noise_var)
    assert gm.jitter == jitter
    assert np.array_equal(gm.matrix, K)
    assert np.array_equal(np.tril(gm.chol_lower), C)
    h = len(X) // 2
    assert np.array_equal(
        cross_gram(profile, M, X[:h], X[h:]),
        radial_profile(profile, loop_sq_dist(M, X[:h], X[h:])))
    y = sample_gp_outputs(GPModel(profile, params, noise_var), X,
                          np.random.default_rng(11))
    z = np.random.default_rng(11).standard_normal((len(X), 1))
    assert np.array_equal(y, (C @ z)[:, 0])
    return jitter


class TestSameBytesAsReference:
    """The Gram, its jitter and factor, the cross-Gram and the synthetic draws
    are bit-identical to the reference loop distance and scipy's Cholesky;
    duplicate rows at zero noise take the jitter retry path."""

    @_property
    @given(_inputs_with_duplicates(), _metric_params,
           st.sampled_from([SquaredExponential(), Matern(2.5)]),
           st.sampled_from([0.0, 0.0025]))
    def test_small(self, inputs, params, profile, noise_var):
        assert_same_bytes_as_reference(profile, params, inputs[0], noise_var)

    @pytest.mark.parametrize("profile", [SquaredExponential(), Matern(2.5)])
    @pytest.mark.parametrize("noise_var", [0.0, 0.0025])
    def test_blocked_factor_at_n300(self, profile, noise_var):
        # n=300 runs LAPACK's blocked factorization, and its retry after a
        # failure part-way through
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 1.0, (290, 3))
        X = np.vstack([X, X[:10]])
        params = Rotational((0.40, 0.10, 0.80), (0.7, -0.4, 1.0))
        jitter = assert_same_bytes_as_reference(profile, params, X, noise_var)
        assert (jitter > 0.0) == (noise_var == 0.0)
