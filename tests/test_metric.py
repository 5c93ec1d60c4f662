import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation as ScipyRotation

from rotgp.config import SCHEMAS, ConfigError, metric_params_from_dict
from rotgp.gp import GPModel
from rotgp.kernels import SquaredExponential
from rotgp.mcmc import (ChainConfig, Priors, ProposalScales, layout, prior_mean,
                        row_params, run_chain, spec_for_columns)
from rotgp.metric import (SPECS, Ard, CholeskySpd, InvalidParamsError,
                          NotSpdError, Rotational, build_metric, eigen_summary,
                          misalignment_angles)
from rotgp.so3 import exp_so3

L_TRUE = (0.40, 0.10, 0.80)
A_TRUE = (0.7, -0.4, 1.0)


def random_params(kind, rng):
    if kind == "ard":
        return Ard(rng.uniform(0.05, 2.0, 3))
    if kind == "rotational":
        return Rotational(rng.uniform(0.05, 2.0, 3), rng.normal(0, 1.0, 3))
    return CholeskySpd(rng.uniform(0.1, 3.0, 3), rng.normal(0, 2.0, 3))


class TestBuildMetric:
    def test_unit_ard_is_identity(self):
        assert np.array_equal(build_metric(Ard((1.0, 1.0, 1.0))), np.eye(3))

    def test_zero_rotation_reduces_to_ard(self):
        M = build_metric(Rotational((0.4, 0.1, 0.8), (0.0, 0.0, 0.0)))
        np.testing.assert_allclose(M, np.diag([6.25, 100.0, 1.5625]),
                                   atol=1e-15)

    def test_zero_rotation_matches_ard_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ls = rng.uniform(0.05, 2.0, 3)
            M_rot = build_metric(Rotational(ls, np.zeros(3)))
            M_ard = build_metric(Ard(ls))
            assert np.abs(M_rot - M_ard).max() <= 1e-15

    def test_true_metric_eigenvalues(self):
        # Generating metric of the rotated synthetic dataset: eigenvalues are
        # the inverse squared length-scales regardless of orientation.
        M = build_metric(Rotational(L_TRUE, A_TRUE))
        w = np.linalg.eigvalsh(M)[::-1]
        np.testing.assert_allclose(w, [100.0, 6.25, 1.5625], rtol=1e-9)

    def test_cholesky_build(self):
        d, o = (1.0, 2.0, 3.0), (0.5, -0.25, 1.5)
        L = np.array([[1.0, 0.0, 0.0], [0.5, 2.0, 0.0], [-0.25, 1.5, 3.0]])
        np.testing.assert_allclose(build_metric(CholeskySpd(d, o)), L @ L.T,
                                   atol=1e-15)

    @pytest.mark.parametrize("kind", ["ard", "rotational", "spd"])
    def test_always_spd_on_random_states(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            M = build_metric(random_params(kind, rng))
            assert np.abs(M - M.T).max() <= 1e-12
            assert np.linalg.eigvalsh(M).min() > 0.0

    @pytest.mark.parametrize("bad", [
        Ard((0.0, 1.0, 1.0)),
        Ard((-0.1, 1.0, 1.0)),
        Ard((np.nan, 1.0, 1.0)),
        Rotational((1.0, 1.0, np.inf), (0.0, 0.0, 0.0)),
        Rotational((1.0, 1.0, 1.0), (np.nan, 0.0, 0.0)),
        CholeskySpd((1.0, -1.0, 1.0), (0.0, 0.0, 0.0)),
        CholeskySpd((1.0, 1.0, 1.0), (np.inf, 0.0, 0.0)),
    ])
    def test_rejects_invalid_states(self, bad):
        with pytest.raises(InvalidParamsError):
            build_metric(bad)


class TestEigenSummary:
    def test_true_metric_ranges(self):
        s = eigen_summary(build_metric(Rotational(L_TRUE, A_TRUE)))
        np.testing.assert_allclose(s.ranges, [0.10, 0.40, 0.80], rtol=1e-9)
        np.testing.assert_allclose(s.eigenvalues, [100.0, 6.25, 1.5625],
                                   rtol=1e-9)

    def test_diagonal_metric_directions_are_axes(self):
        s = eigen_summary(np.diag([6.25, 100.0, 1.5625]))
        np.testing.assert_allclose(s.ranges, [0.1, 0.4, 0.8], rtol=1e-12)
        expected = np.column_stack([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        np.testing.assert_allclose(s.directions, expected, atol=1e-14)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = build_metric(random_params("spd", rng))
            s = eigen_summary(M)
            recon = (s.directions * s.eigenvalues) @ s.directions.T
            assert np.abs(recon - M).max() <= 1e-10

    def test_idempotent_under_conventions(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = eigen_summary(build_metric(random_params("rotational", rng)))
            s2 = eigen_summary((s.directions * s.eigenvalues) @ s.directions.T)
            np.testing.assert_allclose(s2.ranges, s.ranges, rtol=1e-9)
            np.testing.assert_allclose(s2.directions, s.directions, atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = eigen_summary(build_metric(random_params("rotational", rng)))
            for i in range(3):
                col = s.directions[:, i]
                assert col[np.argmax(np.abs(col))] >= 0.0
            G = s.directions.T @ s.directions
            assert np.abs(G - np.eye(3)).max() <= 1e-10

    def test_near_degenerate_ranges_stay_orthonormal(self):
        ls = np.array([0.5, 0.5 * (1 + 1e-6), 0.9])
        s = eigen_summary(build_metric(Rotational(ls, A_TRUE)))
        G = s.directions.T @ s.directions
        assert np.abs(G - np.eye(3)).max() <= 1e-10

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpdError):
            eigen_summary(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(NotSpdError):
            eigen_summary(np.zeros((3, 3)))


class TestPermutationSymmetry:
    def test_equivalent_states_summarize_identically(self):
        # Permuting the length-scales together with the matching rows of the
        # rotation leaves the induced metric unchanged; a row sign flip
        # restores det=+1 for odd permutations.
        rng = np.random.default_rng(21)
        for _ in range(100):
            ls = rng.uniform(0.1, 2.0, 3)
            while np.abs(np.subtract.outer(ls, ls))[np.triu_indices(3, 1)].min() < 0.05:
                ls = rng.uniform(0.1, 2.0, 3)
            a = rng.normal(0, 1.0, 3)
            M_ref = build_metric(Rotational(ls, a))
            s_ref = eigen_summary(M_ref)
            R = exp_so3(a)
            for perm in itertools.permutations(range(3)):
                P = np.eye(3)[list(perm)]
                R_perm = P @ R
                if np.linalg.det(R_perm) < 0:
                    R_perm = np.diag([1.0, 1.0, -1.0]) @ R_perm
                a_perm = ScipyRotation.from_matrix(R_perm).as_rotvec()
                M_perm = build_metric(Rotational(ls[list(perm)], a_perm))
                assert np.abs(M_perm - M_ref).max() <= 1e-10
                s_perm = eigen_summary(M_perm)
                np.testing.assert_allclose(s_perm.ranges, s_ref.ranges,
                                           rtol=1e-9)
                np.testing.assert_allclose(s_perm.directions, s_ref.directions,
                                           atol=1e-7)


# Property tests of eigen_summary over metrics of all three
# parameterisations, and over the 24 equivalent states of a rotational one.
_lengthscales = arrays(np.float64, 3, elements=st.floats(0.1, 2.0))
_axis_angle = arrays(np.float64, 3, elements=st.floats(-3.0, 3.0))
_metric_params = st.one_of(
    st.builds(Ard, _lengthscales),
    st.builds(Rotational, _lengthscales, _axis_angle),
    st.builds(CholeskySpd, arrays(np.float64, 3, elements=st.floats(0.3, 3.0)),
              arrays(np.float64, 3, elements=st.floats(-2.0, 2.0))),
)
# Signed permutation matrices with det +1: P diag(l) P^T permutes l, so the
# state (l[perm], P R) gives the same metric as (l, R).
_PROPER_SIGNED_PERMUTATIONS = [
    (list(perm), np.diag(signs) @ np.eye(3)[list(perm)])
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    if np.linalg.det(np.diag(signs) @ np.eye(3)[list(perm)]) > 0.0]
_property = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


class TestEigenSummaryProperties:
    @_property
    @given(_metric_params)
    def test_eigenpairs_ranges_and_signs(self, params):
        M = build_metric(params)
        s = eigen_summary(M)
        assert np.all(s.eigenvalues > 0.0)
        assert np.all(np.diff(s.eigenvalues) <= 0.0)
        assert np.array_equal(s.ranges, s.eigenvalues ** -0.5)
        V = s.directions
        assert np.abs(V.T @ V - np.eye(3)).max() <= 1e-12
        recon = (V * s.eigenvalues) @ V.T
        assert np.abs(recon - M).max() <= 1e-12 * np.abs(M).max()
        for i in range(3):
            assert V[np.argmax(np.abs(V[:, i])), i] >= 0.0
        assert 0.0 <= s.geodesic_deg <= 180.0

    @_property
    @given(_lengthscales, _axis_angle)
    def test_invariant_under_equivalent_rotational_states(self, ls, a):
        # Well-separated eigenvalues and no near-tie for the largest
        # component of an eigenvector keep the directions well defined.
        w = np.sort(ls ** -2.0)
        assume(np.all(np.diff(w) > 0.05 * w[1:]))
        ref = eigen_summary(build_metric(Rotational(ls, a)))
        top2 = np.sort(np.abs(ref.directions), axis=0)[-2:]
        assume(np.all(top2[1] - top2[0] > 1e-3))
        R = exp_so3(a)
        assert len(_PROPER_SIGNED_PERMUTATIONS) == 24
        for perm, P in _PROPER_SIGNED_PERMUTATIONS:
            a_eq = ScipyRotation.from_matrix(P @ R).as_rotvec()
            s = eigen_summary(build_metric(Rotational(ls[perm], a_eq)))
            np.testing.assert_allclose(s.eigenvalues, ref.eigenvalues,
                                       rtol=1e-12)
            np.testing.assert_allclose(s.directions, ref.directions, atol=1e-9)
            assert s.geodesic_deg == pytest.approx(ref.geodesic_deg, abs=1e-6)


class TestMisalignmentAngles:
    def test_identical_summaries_give_zero(self):
        # arccos amplifies round-off near cos=1, so "zero" means microdegrees.
        s = eigen_summary(build_metric(Rotational(L_TRUE, A_TRUE)))
        np.testing.assert_allclose(misalignment_angles(s, s), [0.0, 0.0, 0.0],
                                   atol=1e-5)

    def test_quarter_turned_axes(self):
        truth = eigen_summary(np.diag([4.0, 1.0, 0.25]))
        Q = exp_so3((0.0, 0.0, np.pi / 2))
        rotated = eigen_summary(Q @ np.diag([4.0, 1.0, 0.25]) @ Q.T)
        np.testing.assert_allclose(misalignment_angles(rotated, truth),
                                   [90.0, 90.0, 0.0], atol=1e-6)

    def test_learnt_fit_matches_reported_angles(self):
        # Learnt rotational hyperparameters for the rotated synthetic
        # dataset; axis-wise misalignment against the generating metric is
        # (0.44, 2.39, 2.38) degrees.
        truth = eigen_summary(build_metric(Rotational(L_TRUE, A_TRUE)))
        learnt = eigen_summary(build_metric(Rotational(
            (0.4057, 0.0997, 0.8009), (0.6827, -0.4403, 1.0093))))
        angles = misalignment_angles(learnt, truth)
        np.testing.assert_allclose(angles, [0.44, 2.39, 2.38], atol=0.01)

    def test_angles_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s1 = eigen_summary(build_metric(random_params("rotational", rng)))
            s2 = eigen_summary(build_metric(random_params("rotational", rng)))
            angles = misalignment_angles(s1, s2)
            assert np.all(angles >= 0.0) and np.all(angles <= 90.0)


@pytest.mark.parametrize("spec", list(SPECS.values()), ids=list(SPECS))
def test_spec_layout_and_io(spec):
    start = spec.from_vector(prior_mean(spec, Priors()))
    assert len(spec.names) == start.to_vector().size
    # the sampler's layout covers a chain row, noise last, in order
    parts = [part for part, _ in layout(spec, True)]
    assert [i for p in parts for i in range(p.start, p.stop)] == list(
        range(len(spec.names) + 1))
    # one table row per dataclass field; the blocks the sampler derives from
    # them are the acceptance-rate keys of summary.json and fit's output
    assert list(spec.table) == [f.name for f in fields(spec)]
    chain = run_chain(ChainConfig(n_iters=1, burn_in=0, thin=1,
                                  block_updates=True, sample_noise=True),
                      None, GPModel(SquaredExponential(), start, 0.01),
                      Priors(), ProposalScales())
    assert tuple(chain.accept_counts) == {
        "ard": ("lengthscales", "noise"),
        "rotational": ("lengthscales", "axis_angle", "noise"),
        "spd": ("cholesky", "noise"),
    }[spec.kind]

    vec = np.random.default_rng(41).uniform(0.1, 1.0, len(spec.names))
    params = spec.from_vector(vec)
    assert type(params) is spec
    assert np.array_equal(params.to_vector(), vec)
    from_row, row_noise = row_params(spec, np.append(vec, 0.3), None)
    assert np.array_equal(from_row.to_vector(), vec) and row_noise == 0.3
    assert row_params(spec, vec, 0.01)[1] == 0.01

    doc = params.to_dict()
    assert doc["model"] == spec.kind
    back = metric_params_from_dict(doc)
    assert type(back) is spec
    assert np.array_equal(back.to_vector(), vec)
    for field in set(doc) - {"model"}:
        with pytest.raises(ConfigError, match=field):
            metric_params_from_dict({k: v for k, v in doc.items() if k != field})

    assert spec_for_columns(list(spec.names)) is spec
    assert spec_for_columns(list(spec.names) + ["noise_var"]) is spec
    assert spec_for_columns(list(spec.names)[:-1]) is None


def test_registry_keys_equal_schema_model_enum():
    enum = SCHEMAS["fit"]["properties"]["model"]["enum"]
    assert list(SPECS) == enum
    assert SCHEMAS["generate"]["properties"]["generator"]["properties"][
        "model"]["enum"] == enum
    assert SCHEMAS["experiment"]["properties"]["models"]["items"]["enum"] == enum
    with pytest.raises(ConfigError, match="unknown model"):
        metric_params_from_dict({"model": "diag", "lengthscales": [1, 1, 1]})
