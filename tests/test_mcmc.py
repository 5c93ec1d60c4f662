import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import ks_2samp, multivariate_t

from rotgp import gp, mcmc
from rotgp.data import SyntheticConfig, generate_synthetic
from rotgp.gp import Dataset, GPModel
from rotgp.kernels import GramFactorizationError, Matern, SquaredExponential
from rotgp.mcmc import (ACCEPT_RATE_WINDOW, CHAIN_MINIMA, Chain,
                        ChainConfig, ChainInitError, Priors, ProposalScales,
                        SamplerState, _score, effective_sample_size,
                        initial_state, load_chain_csv, log_prior, mh_step,
                        must_be_positive, prior_mean, row_params, run_chain,
                        summarize)
from rotgp.metric import SPECS, Ard, CholeskySpd, Rotational
from rotgp.so3 import exp_so3, geodesic_angle


def gaussian_logpdf(x, mean, sd):
    return -0.5 * ((x - mean) / sd) ** 2 - math.log(sd) - 0.5 * math.log(2 * math.pi)


def template(kind):
    params = SPECS[kind].from_vector([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    return GPModel(SquaredExponential(), params, 0.0025)


@pytest.fixture(scope="module")
def d1_desk_train():
    """Training half of the d1 generator at desk size (n=300)."""
    generator = GPModel(SquaredExponential(),
                        Rotational((0.40, 0.10, 0.80), (0.7, -0.4, 1.0)),
                        0.05 ** 2)
    return generate_synthetic(SyntheticConfig(
        n_train=300, n_test=150, generator=generator, seed=1)).train


def score_row(x, model, priors, data):
    """The sampler's state at the chain row ``x``."""
    return _score(mcmc._to_walk(x, type(model.params)), model, priors, data, x)


def tiny_data(rng=None, n=12):
    rng = rng or np.random.default_rng(99)
    return Dataset(rng.uniform(-1, 1, (n, 3)), rng.standard_normal(n))


# Priors away from every default, the noise's mean among them.
_PRIORS = Priors(lengthscale_mean=(0.3, 0.6, 0.9),
                 lengthscale_sd=(0.2, 0.4, 0.6), axis_angle_sd=0.7,
                 spd_logdiag_sd=1.1, spd_offdiag_sd=2.5, log_noise_mean=-4.3,
                 log_noise_sd=1.7)



@pytest.fixture
def walk_kernel(monkeypatch):
    """Chains with data walk: the climb's mode fit reports no convergence,
    as on a posterior its Laplace fit does not reach."""
    fit = mcmc._fit_mode
    monkeypatch.setattr(mcmc, "_fit_mode", lambda *args: (*fit(*args)[:2],
                                                          None))


def each_spec_and_noise(test):
    """Run ``test`` for every spec, with the noise fixed and sampled."""
    return pytest.mark.parametrize("kind", list(SPECS))(
        pytest.mark.parametrize("sample_noise", [False, True],
                                ids=["fixed", "sampled"])(test))


class TestLogPrior:
    def test_axis_angle_mode_density(self):
        priors = Priors(axis_angle_sd=0.7)
        at_mode = log_prior(np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.0]),
                            Rotational, priors)
        off_mode = log_prior(np.array([0.5, 0.5, 0.5, 0.3, 0.0, 0.0]),
                             Rotational, priors)
        expected_gap = gaussian_logpdf(0.0, 0.0, 0.7) - gaussian_logpdf(0.3, 0.0, 0.7)
        assert at_mode - off_mode == pytest.approx(expected_gap, rel=1e-12)

    def test_mode_value_decomposes_per_block(self):
        priors = Priors(lengthscale_mean=(0.4, 0.5, 0.6),
                        lengthscale_sd=(0.3, 0.3, 0.3), axis_angle_sd=1.0)
        value = log_prior(np.array([0.4, 0.5, 0.6, 0.0, 0.0, 0.0]),
                          Rotational, priors)
        expected = (3 * gaussian_logpdf(0.0, 0.0, 0.3)
                    + 3 * gaussian_logpdf(0.0, 0.0, 1.0))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_negative_lengthscale_is_invalid(self):
        assert log_prior(np.array([-0.1, 0.5, 0.5]), Ard, Priors()) == -np.inf
        assert log_prior(np.array([0.0, 0.5, 0.5]), Ard, Priors()) == -np.inf

    def test_spd_prior_in_log_diag_coordinates(self):
        priors = Priors(spd_logdiag_sd=1.5, spd_offdiag_sd=2.0)
        value = log_prior(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                          CholeskySpd, priors)
        expected = (3 * gaussian_logpdf(0.0, 0.0, 1.5)
                    + 3 * gaussian_logpdf(0.0, 0.0, 2.0))
        assert value == pytest.approx(expected, rel=1e-12)
        assert log_prior(np.array([-1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                         CholeskySpd, priors) == -np.inf

    def test_noise_block_when_sampled(self):
        priors = Priors(log_noise_mean=-6.0, log_noise_sd=1.0)
        base = log_prior(np.array([0.5, 0.5, 0.5]), Ard, priors)
        with_noise = log_prior(np.array([0.5, 0.5, 0.5, math.exp(-6.0)]), Ard,
                               priors)
        assert with_noise - base == pytest.approx(
            gaussian_logpdf(0.0, 0.0, 1.0), rel=1e-12)

    @each_spec_and_noise
    def test_equals_scalar_sum_over_parts(self, kind, sample_noise):
        # each entry's density on its prior's coordinate, one at a time:
        # length-scales and rotations raw, the Cholesky diagonal and the
        # noise variance in logs
        spec = SPECS[kind]
        x = np.random.default_rng(3).uniform(0.1, 1.0,
                                             len(spec.names) + sample_noise)
        scalar = {
            "lengthscales": lambda i: gaussian_logpdf(
                x[i], (0.3, 0.6, 0.9)[i], (0.2, 0.4, 0.6)[i]),
            "axis_angle": lambda i: gaussian_logpdf(x[i], 0.0, 0.7),
            "diag": lambda i: gaussian_logpdf(math.log(x[i]), 0.0, 1.1),
            "offdiag": lambda i: gaussian_logpdf(x[i], 0.0, 2.5),
        }
        terms = [scalar[name](3 * k + j)
                 for k, name in enumerate(spec.table) for j in range(3)]
        if sample_noise:
            terms.append(gaussian_logpdf(math.log(x[-1]), -4.3, 1.7))
        assert log_prior(x, spec, _PRIORS) == pytest.approx(math.fsum(terms),
                                                            rel=1e-12)

    @pytest.mark.parametrize("kind", list(SPECS))
    @pytest.mark.parametrize("noise", [math.nan, 0.0, -0.01, math.inf])
    def test_bad_noise_gets_no_likelihood(self, monkeypatch, kind, noise):
        def likelihood(*args):
            raise AssertionError("likelihood of a state outside the prior")

        monkeypatch.setattr(mcmc, "log_marginal_likelihood", likelihood)
        spec, model, data = SPECS[kind], template(kind), tiny_data()
        x = np.append(prior_mean(spec, _PRIORS), noise)
        assert log_prior(x, spec, _PRIORS) == -np.inf
        state = score_row(x, model, _PRIORS, data)
        assert state.log_prior == state.log_lik == -np.inf
        # a valid noise does reach the likelihood
        x[-1] = 0.01
        with pytest.raises(AssertionError, match="outside the prior"):
            score_row(x, model, _PRIORS, data)

    @pytest.mark.parametrize("kind", ["ard", "rotational"])
    def test_overflowing_lengthscale_gets_no_likelihood(self, kind):
        # 1e-160 ** -2 overflows: the metric is invalid, not inf
        x = prior_mean(SPECS[kind], Priors())
        x[0] = 1e-160
        state = score_row(x, template(kind), Priors(), tiny_data())
        assert state.log_prior > -np.inf and state.log_lik == -np.inf


class TestStart:
    @each_spec_and_noise
    def test_each_part_at_its_prior_mean(self, kind, sample_noise):
        # the identity rotation, the unit Cholesky diagonal, and exactly
        # exp(log_noise_mean)
        x = prior_mean(SPECS[kind], _PRIORS, sample_noise)
        expected = {"ard": [0.3, 0.6, 0.9],
                    "rotational": [0.3, 0.6, 0.9, 0.0, 0.0, 0.0],
                    "spd": [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]}[kind]
        assert x.tolist() == expected + [math.exp(-4.3)] * sample_noise
        state = initial_state(template(kind), _PRIORS, None, sample_noise)
        assert state.x.tolist() == x.tolist()
        assert state.log_prior == log_prior(x, SPECS[kind], _PRIORS) > -np.inf


class _StubRng:
    """Deterministic stand-in: fixed normals, then fixed uniforms; a
    chi-square draw is its degrees of freedom, so a t draw is its normals."""

    def __init__(self, normals, uniforms):
        self._normals = list(normals)
        self._uniforms = list(uniforms)

    def normal(self, loc, scale, size):
        return loc + scale * np.array([self._normals.pop(0)
                                       for _ in range(size)])

    def standard_normal(self, size):
        return self.normal(0.0, 1.0, size)

    def chisquare(self, df):
        return float(df)

    def uniform(self):
        return self._uniforms.pop(0)


# Each kernel on a rotational state: the walk at its starting steps, with an
# axis-angle step of 0.08, and an independence kernel whose wide fit
# (H = 4 I) is centred on the prior's mode.
_KERNELS = {
    "walk": lambda: mcmc._Walk(mcmc.layout(Rotational, False),
                               ProposalScales(axis_angle=0.08), 0),
    "laplace": lambda: mcmc._Laplace(
        np.append(np.log(np.full(3, 0.5)), np.zeros(3)), 4.0 * np.eye(6)),
}


class TestMhStep:
    """Each test runs for a walk proposal and an independence proposal."""

    def test_uphill_proposal_always_accepted(self):
        # Prior-only target, current rotation away from the prior mode, and
        # a proposal that lands exactly on the mode with the length-scales
        # unmoved (zero Jacobian): the walk steps there, and the
        # independence kernel draws its fit's centre, whose log q ratio
        # (-0.043) costs less than the prior gains (0.125). Strictly uphill,
        # so it must be accepted even for the most unlucky uniform draw.
        priors, model = Priors(), template("rotational")
        x = Rotational((0.5, 0.5, 0.5), (0.5, 0.0, 0.0)).to_vector()
        state = score_row(x, model, priors, None)
        for kernel, normals in [
                ("walk", [0.0, 0.0, 0.0, -0.5 / 0.08, 0.0, 0.0]),
                ("laplace", [0.0] * 6)]:
            rng = _StubRng(normals=normals, uniforms=[1.0 - 1e-12])
            u, log_q_ratio = _KERNELS[kernel]().propose(state, rng)
            new_state, accepted = mh_step(state, u, log_q_ratio, None, model,
                                          priors, rng)
            assert accepted and new_state.u is u, kernel
            np.testing.assert_allclose(new_state.x[3:6], 0.0, atol=1e-15)
            assert new_state.u[:3].tolist() == state.u[:3].tolist()
            assert new_state.log_target - state.log_target + log_q_ratio > 0

    def test_invalid_proposal_rejected_without_uniform(self):
        # a length-scale step of 1e6 sds overflows exp(u) to inf: -inf prior
        priors, model = Priors(), template("rotational")
        state = initial_state(model, priors, None)
        for kernel in _KERNELS:
            rng = _StubRng(normals=[1e6, 0.0, 0.0, 0.0, 0.0, 0.0],
                           uniforms=[])
            u, log_q_ratio = _KERNELS[kernel]().propose(state, rng)
            new_state, accepted = mh_step(state, u, log_q_ratio, None, model,
                                          priors, rng)
            assert not accepted and new_state is state, kernel

    def test_accepted_state_carries_recomputable_posterior(self):
        from rotgp.gp import log_marginal_likelihood
        priors, data, model = Priors(), tiny_data(), template("ard")
        start = initial_state(model, priors, data)
        for proposer in [mcmc._Walk(mcmc.layout(Ard, False), ProposalScales(),
                                    0),
                         mcmc._Laplace(start.u, 0.3 ** 2 * np.eye(3))]:
            state, accepted_any = start, False
            rng = np.random.Generator(np.random.PCG64(5))
            for _ in range(50):
                state, accepted = mh_step(state, *proposer.propose(state, rng),
                                          data, model, priors, rng)
                accepted_any = accepted_any or accepted
            assert accepted_any
            params, noise_var = row_params(Ard, state.x, model.noise_var)
            model_now = GPModel(model.profile, params, noise_var)
            assert state.log_lik == pytest.approx(
                log_marginal_likelihood(model_now, data), abs=1e-10)
            assert state.log_prior == pytest.approx(
                log_prior(params.to_vector(), Ard, priors), abs=1e-12)
            assert state.x.tolist() == np.exp(state.u).tolist()
            assert state.log_jacobian == pytest.approx(
                float(np.sum(np.log(state.x))), abs=1e-12)


class TestSettings:
    @pytest.mark.parametrize("name, least", CHAIN_MINIMA.items())
    def test_chain_setting_below_its_minimum_rejected(self, name, least):
        with pytest.raises(ValueError,
                           match=f"^{name} must be at least {least}$"):
            ChainConfig(**{name: least - 1})

    @pytest.mark.parametrize("cls, name", [
        (cls, f.name) for cls in (Priors, ProposalScales)
        for f in fields(cls) if must_be_positive(f.name)])
    def test_scale_setting_must_be_positive(self, cls, name):
        # zero in the default's shape: 0.0, or an array of zeros
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            cls(**{name: getattr(cls(), name) * 0.0})


class TestRunChain:
    def test_same_seed_is_bit_identical(self, tmp_path):
        cfg = ChainConfig(n_iters=400, burn_in=100, seed=7, thin=3)
        data = tiny_data()
        results = []
        for run in range(2):
            chain = run_chain(cfg, data, template("rotational"), Priors(),
                              ProposalScales())
            path = tmp_path / f"chain{run}.csv"
            chain.to_csv(path)
            results.append(path.read_bytes())
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        data = tiny_data()
        chains = [run_chain(ChainConfig(n_iters=300, burn_in=50, seed=s),
                            data, template("ard"), Priors(), ProposalScales())
                  for s in (1, 2)]
        assert not np.array_equal(chains[0].states, chains[1].states)

    def test_sample_count_and_iteration_grid(self):
        cfg = ChainConfig(n_iters=403, burn_in=100, seed=1, thin=7)
        chain = run_chain(cfg, None, template("ard"), Priors(),
                          ProposalScales())
        assert chain.n_samples == (403 - 100) // 7
        assert chain.iters[0] == 107
        assert chain.iters[-1] <= 403
        assert np.all(np.diff(chain.iters) == 7)

    def test_stored_log_posts_recompute(self, request, d1_desk_train):
        # the stored log_post is the log posterior at the stored row: the
        # likelihood plus log_prior, without the log Jacobian sum(log l) of
        # the walk coordinates that both kernels' target carries; for the
        # independence kernel, with the noise fixed and sampled, then for
        # the walk, forced
        from rotgp.gp import log_marginal_likelihood
        data, model = d1_desk_train, template("rotational")
        for kernel, sample_noise in [("laplace", False), ("laplace", True),
                                     ("walk", False)]:
            if kernel == "walk":
                request.getfixturevalue("walk_kernel")  # to the test's end
            cfg = ChainConfig(n_iters=200, burn_in=100, seed=1, thin=10,
                              sample_noise=sample_noise)
            chain = run_chain(cfg, data, model, Priors(), ProposalScales())
            assert chain.kernel == kernel
            assert np.all(np.isfinite(chain.log_posts))
            for row, log_post in zip(chain.states, chain.log_posts):
                params, noise = row_params(Rotational, row,
                                           chain.fixed_noise_var)
                lp = (log_marginal_likelihood(
                    GPModel(model.profile, params, noise), data)
                    + log_prior(row, Rotational, Priors()))
                assert log_post == pytest.approx(lp, abs=1e-10)
                assert abs(float(np.sum(np.log(row[:3])))) > 1e-3

    def test_init_failure_is_fatal(self):
        bad_priors = Priors(lengthscale_mean=(-0.5, 0.5, 0.5))
        with pytest.raises(ChainInitError):
            run_chain(ChainConfig(n_iters=10, burn_in=0, seed=0), tiny_data(),
                      template("ard"), bad_priors, ProposalScales())

    def test_sampled_noise_column(self):
        cfg = ChainConfig(n_iters=300, burn_in=100, seed=4, sample_noise=True)
        chain = run_chain(cfg, tiny_data(), template("ard"), Priors(),
                          ProposalScales())
        assert chain.param_names == ["l_x", "l_y", "l_z", "noise_var"]
        assert np.all(chain.states[:, -1] > 0)
        assert chain.fixed_noise_var is None

    def test_huge_noise_step_is_rejected_by_the_prior(self):
        # exp(u + eps) with |eps| ~ 1000 overflows to inf or underflows to
        # 0; both are outside the prior's support, and the walk must not
        # warn (the suite turns RuntimeWarning into an error).
        cfg = ChainConfig(n_iters=60, burn_in=10, thin=1, seed=4,
                          sample_noise=True)
        chain = run_chain(cfg, tiny_data(), template("ard"), Priors(),
                          ProposalScales(log_noise=1000.0))
        noise = chain.states[:, -1]
        assert np.all(np.isfinite(noise)) and np.all(noise > 0)
        assert np.all(np.isfinite(chain.log_posts))

    def test_default_axis_angle_proposal_in_acceptance_window(
            self, d1_desk_train, walk_kernel):
        # A standalone rotational fit that walks, as where its mode fit
        # fails, must mix with the default steps on the narrow d1 posterior
        # at n=300 (joint acceptance 0.33): at an axis-angle step of 0.08
        # the rate falls under the window (0.037).
        chain = run_chain(ChainConfig(n_iters=3000, burn_in=1000, thin=5,
                                      seed=1),
                          d1_desk_train,
                          GPModel(SquaredExponential(),
                                  template("rotational").params, 0.0025),
                          Priors(), ProposalScales())
        lo, hi = ACCEPT_RATE_WINDOW
        assert lo < chain.acceptance_rates()["joint"] < hi

    def test_csv_round_trip(self, tmp_path):
        cfg = ChainConfig(n_iters=200, burn_in=50, seed=9, thin=2)
        chain = run_chain(cfg, tiny_data(), template("spd"), Priors(),
                          ProposalScales())
        path = tmp_path / "chain.csv"
        chain.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,log_post,d_1,d_2,d_3,o_1,o_2,o_3"
        spec, iters, log_posts, states = load_chain_csv(path)
        assert spec is CholeskySpd
        assert np.array_equal(iters, chain.iters)
        assert np.array_equal(log_posts, chain.log_posts)
        assert np.array_equal(states, chain.states)


class TestPriorSampling:
    """With no data the chain must reproduce the prior exactly."""

    def test_lengthscale_marginal_matches_gaussian_prior(self):
        # Narrow prior far from zero, so truncation at l<=0 is negligible and
        # the target marginal is N(mean, sd^2). A missing log-proposal
        # Jacobian would shift the mean by about sd^2/mean = 0.02, well
        # beyond the allowed three standard errors.
        priors = Priors(lengthscale_mean=(0.5, 0.5, 0.5),
                        lengthscale_sd=(0.1, 0.1, 0.1))
        cfg = ChainConfig(n_iters=60_000, burn_in=5_000, seed=11, thin=1)
        chain = run_chain(cfg, None, template("ard"), priors,
                          ProposalScales(log_lengthscale=0.4))
        for j in range(3):
            draws = chain.states[:, j]
            ess = effective_sample_size(draws)
            se = 0.1 / math.sqrt(ess)
            assert abs(draws.mean() - 0.5) < 3 * se
            assert abs(draws.std(ddof=1) - 0.1) < 0.1 * 0.1

    def test_axis_angle_marginal_and_geodesic_distribution(self):
        sd_a = 0.5
        priors = Priors(axis_angle_sd=sd_a)
        cfg = ChainConfig(n_iters=60_000, burn_in=5_000, seed=12, thin=1)
        chain = run_chain(cfg, None, template("rotational"), priors,
                          ProposalScales(log_lengthscale=0.5, axis_angle=0.6))
        a_draws = chain.states[:, 3:6]
        for j in range(3):
            ess = effective_sample_size(a_draws[:, j])
            se = sd_a / math.sqrt(ess)
            assert abs(a_draws[:, j].mean()) < 3 * se
            assert abs(a_draws[:, j].std(ddof=1) - sd_a) < 0.1 * sd_a
        angles = np.array([geodesic_angle(exp_so3(a)) for a in a_draws[::5]])
        rng = np.random.default_rng(2024)
        norms = np.linalg.norm(rng.normal(0.0, sd_a, (200_000, 3)), axis=1)
        ks = ks_2samp(angles, norms).statistic
        assert ks < 0.05

    def test_spd_and_log_noise_marginals_match_gaussian_priors(self):
        # The moves no other test covers: the spd diagonal and the sampled
        # noise walk on the log scale with their priors on log x (the
        # ``scale`` move, no Jacobian), the off-diagonal additively. Each
        # marginal, on the scale its prior is declared on, must be that
        # Gaussian; a Jacobian on the diagonal would shift the mean of log d
        # by 1.5^2, about eighty standard errors.
        priors = Priors()
        cfg = ChainConfig(n_iters=40_000, burn_in=2_000, seed=14, thin=1,
                          sample_noise=True)
        chain = run_chain(cfg, None, template("spd"), priors,
                          ProposalScales(spd=1.6, log_noise=2.5))
        s = chain.states
        marginals = ([(np.log(s[:, j]), 0.0, priors.spd_logdiag_sd)
                      for j in range(3)]
                     + [(s[:, j], 0.0, priors.spd_offdiag_sd)
                        for j in range(3, 6)]
                     + [(np.log(s[:, 6]), priors.log_noise_mean,
                         priors.log_noise_sd)])
        for draws, mean, sd in marginals:
            se = sd / math.sqrt(effective_sample_size(draws))
            assert abs(draws.mean() - mean) < 3 * se
            assert abs(draws.std(ddof=1) - sd) < 0.1 * sd

    def test_toy_normal_mean_and_sd(self):
        # Detailed-balance smoke test on an effectively 1-parameter normal
        # target (each coordinate is independent under the prior).
        priors = Priors(lengthscale_mean=(1.0, 1.0, 1.0),
                        lengthscale_sd=(0.05, 0.05, 0.05))
        cfg = ChainConfig(n_iters=40_000, burn_in=4_000, seed=13, thin=1)
        chain = run_chain(cfg, None, template("ard"), priors,
                          ProposalScales(log_lengthscale=0.12))
        draws = chain.states[:, 0]
        ess = effective_sample_size(draws)
        se_mean = 0.05 / math.sqrt(ess)
        se_sd = 0.05 / math.sqrt(2 * ess)
        assert abs(draws.mean() - 1.0) < 3 * se_mean
        assert abs(draws.std(ddof=1) - 0.05) < 3 * se_sd

    @pytest.mark.parametrize("kind", list(SPECS))
    @pytest.mark.parametrize("sample_noise", [False, True],
                             ids=["joint", "joint-noise"])
    def test_adapted_chain_reproduces_the_prior(self, kind, sample_noise):
        # Burn-in adapts the walk from the default steps, which are far too
        # small for these priors; the frozen walk after it must still be a
        # valid MH kernel for the prior: each part's marginal, on the
        # coordinate its prior is declared on, is that Gaussian. The
        # length-scale prior is narrow and away from zero, so its truncation
        # at zero is negligible.
        priors = Priors(lengthscale_mean=(0.5, 0.5, 0.5),
                        lengthscale_sd=(0.1, 0.1, 0.1), axis_angle_sd=0.5)
        cfg = ChainConfig(n_iters=30_000, burn_in=5_000, seed=31, thin=1,
                          sample_noise=sample_noise)
        chain = run_chain(cfg, None, template(kind), priors, ProposalScales())
        s = chain.states
        if kind == "spd":
            marginals = ([(np.log(s[:, j]), 0.0, priors.spd_logdiag_sd)
                          for j in range(3)]
                         + [(s[:, j], 0.0, priors.spd_offdiag_sd)
                            for j in range(3, 6)])
        else:
            marginals = [(s[:, j], 0.5, 0.1) for j in range(3)]
        if kind == "rotational":
            marginals += [(s[:, j], 0.0, 0.5) for j in range(3, 6)]
        if sample_noise:
            marginals.append((np.log(s[:, -1]), priors.log_noise_mean,
                              priors.log_noise_sd))
        for draws, mean, sd in marginals:
            ess = effective_sample_size(draws)
            assert abs(draws.mean() - mean) < 4 * sd / math.sqrt(ess)
            assert abs(draws.std(ddof=1) - sd) < 0.1 * sd


class TestAdaptation:
    def test_rejecting_burn_in_falls_back_to_the_diagonal(self, monkeypatch,
                                                          walk_kernel):
        # Axis-angle steps this large land where the prior is nil, so
        # burn-in accepts nothing: every window holds one state, the walk
        # keeps the starting diagonal, and the chain runs to its end.
        fallbacks = []
        original = mcmc._Walk._estimate

        def estimate(self, window):
            factor = original(self, window)
            fallbacks.append(np.array_equal(factor, np.diag(self.steps)))
            return factor

        monkeypatch.setattr(mcmc._Walk, "_estimate", estimate)
        cfg = ChainConfig(n_iters=200, burn_in=100, seed=5, thin=1)
        chain = run_chain(cfg, tiny_data(), template("rotational"), Priors(),
                          ProposalScales(log_lengthscale=30.0, axis_angle=1e3))
        assert chain.accepted == 0
        assert len(fallbacks) == 4 and all(fallbacks)
        assert np.all(chain.states == chain.states[0])

    def test_window_without_enough_distinct_states_gives_the_diagonal(self):
        parts = mcmc.layout(Rotational, False)
        walk = mcmc._Walk(parts, ProposalScales(), 100)
        rng = np.random.default_rng(0)
        # eleven distinct states, each held three times; d = 6 needs twelve
        few = np.repeat(rng.standard_normal((11, 6)), 3, axis=0)
        assert np.array_equal(walk._estimate(few), np.diag(walk.steps))
        # twelve distinct states on a line: singular, but the ridge keeps
        # the factor real
        line = np.outer(np.arange(12.0), np.ones(6))
        factor = walk._estimate(line)
        assert np.all(np.isfinite(factor))
        assert not np.array_equal(factor, np.diag(walk.steps))

    def test_minimal_chain_does_not_adapt(self, monkeypatch):
        # The benchmark's set-up chain: two iterations, one of burn-in. Its
        # second step must use the starting diagonal, as a walk that adapts
        # nothing does, and no covariance is estimated.
        monkeypatch.setattr(mcmc._Walk, "_estimate", None)
        cfg = ChainConfig(n_iters=2, burn_in=1, seed=8, thin=1)
        data, model = tiny_data(), template("spd")
        chain = run_chain(cfg, data, model, Priors(), ProposalScales())
        rng = np.random.Generator(np.random.PCG64(8))
        state = initial_state(model, Priors(), data)
        walk = mcmc._Walk(mcmc.layout(CholeskySpd, False), ProposalScales(),
                          0)
        for _ in range(2):
            state, _ = mh_step(state, *walk.propose(state, rng), data, model,
                               Priors(), rng)
        assert chain.states.tolist() == [state.x.tolist()]

    @pytest.mark.parametrize("sample_noise", [False, True],
                             ids=["joint", "joint-noise"])
    def test_adaptation_costs_no_likelihood(self, monkeypatch, sample_noise,
                                            walk_kernel):
        # the walk: one likelihood at the start and one per iteration; the
        # climb to the start before the first step is counted apart
        calls, climbed = [], []
        lml = mcmc.log_marginal_likelihood
        monkeypatch.setattr(mcmc, "log_marginal_likelihood",
                            lambda *args: calls.append(1) or lml(*args))
        climb = mcmc._climb

        def counted_climb(*args):
            before = len(calls)
            result = climb(*args)
            climbed.append(len(calls) - before)
            return result

        monkeypatch.setattr(mcmc, "_climb", counted_climb)
        cfg = ChainConfig(n_iters=200, burn_in=100, seed=6, thin=1,
                          sample_noise=sample_noise)
        run_chain(cfg, tiny_data(), template("rotational"), Priors(),
                  ProposalScales())
        assert len(climbed) == 1 and climbed[0] > 0
        assert len(calls) - climbed[0] == 200 + 1

    def test_ard_lengthscales_accept_inside_the_window(self, d1_desk_train,
                                                       walk_kernel):
        # With the noise sampled, the frozen walk after burn-in must move
        # the ARD length-scales on d1 at n=300 at a rate inside the window,
        # counted from the stored rows: 0.32 of them moved, at a joint
        # acceptance of 0.345.
        cfg = ChainConfig(n_iters=400, burn_in=200, thin=1, seed=1,
                          sample_noise=True)
        chain = run_chain(cfg, d1_desk_train,
                          GPModel(SquaredExponential(),
                                  template("ard").params, 0.0025),
                          Priors(), ProposalScales())
        ls = chain.states[:, :3]
        rate = np.mean(np.any(ls[1:] != ls[:-1], axis=1))
        lo, hi = ACCEPT_RATE_WINDOW
        assert lo < rate < hi


_PROFILES = {"se": SquaredExponential(), "matern12": Matern(0.5),
             "matern32": Matern(1.5), "matern52": Matern(2.5)}


def climb_state(kind, sample_noise, rng):
    """A state away from the prior mean: a rotation of angle pi - 1e-6 for
    the rotational spec, and a noise variance of 0.01 when it is sampled."""
    x = rng.uniform(0.4, 1.2, len(SPECS[kind].names))
    if kind == "rotational":
        axis = rng.standard_normal(3)
        x[3:] = (math.pi - 1e-6) * axis / np.linalg.norm(axis)
    elif kind == "spd":
        x[3:] = rng.normal(0.0, 0.5, 3)
    return np.append(x, [0.01] * sample_noise)


def climb_target(kind, profile, data):
    """The climb's objective for ``kind`` as a function of walk
    coordinates, and the map from a state to its walk coordinates."""
    model = GPModel(profile, template(kind).params, 0.0025)
    return (lambda u: mcmc._log_target(u, model, _PRIORS, data),
            lambda x: mcmc._to_walk(x, SPECS[kind]))


def central_differences(target, u, h=1e-5):
    """The gradient of ``target``'s value at ``u`` by central differences."""
    return np.array([(target(u + h * e)[0] - target(u - h * e)[0]) / (2 * h)
                     for e in np.eye(u.size)])


class TestClimb:
    @each_spec_and_noise
    @pytest.mark.parametrize("profile", list(_PROFILES))
    def test_gradient_matches_central_differences(self, kind, sample_noise,
                                                  profile):
        rng = np.random.default_rng(23)
        data = tiny_data(rng, n=20)
        x = climb_state(kind, sample_noise, rng)
        target, to_walk = climb_target(kind, _PROFILES[profile], data)
        u = to_walk(x)
        value, grad = target(u)
        # the log posterior, plus log x of the rows that walk on log x with
        # their prior on x
        model = GPModel(_PROFILES[profile], template(kind).params, 0.0025)
        log_jacobian = float(np.sum(np.log(x[:3]))) if kind != "spd" else 0.0
        assert value == pytest.approx(
            score_row(x, model, _PRIORS, data).log_post + log_jacobian,
            rel=1e-12)
        fd = central_differences(target, u)
        np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                   atol=1e-6 * np.linalg.norm(fd))

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_duplicate_inputs_under_matern_half(self, kind):
        # Matern 1/2's slope is infinite at psi = 0; coincident points must
        # still give a finite gradient, the one the differences give
        rng = np.random.default_rng(4)
        base = tiny_data(rng, n=10)
        data = Dataset(np.vstack([base.X, base.X[:3]]),
                       np.append(base.y, rng.standard_normal(3)))
        target, to_walk = climb_target(kind, Matern(0.5), data)
        u = to_walk(climb_state(kind, True, rng))
        _, grad = target(u)
        assert np.all(np.isfinite(grad))
        fd = central_differences(target, u)
        np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                   atol=1e-6 * np.linalg.norm(fd))

    @each_spec_and_noise
    def test_start_never_scores_below_the_prior_mean(self, kind,
                                                     sample_noise):
        data = tiny_data(np.random.default_rng(8), n=30)
        model = template(kind)
        start = initial_state(model, Priors(), data, sample_noise)
        state, record, _ = mcmc._climb(start, model, Priors(), data)
        assert state.log_post >= start.log_post
        assert state.log_post == score_row(state.x, model, Priors(),
                                           data).log_post
        assert record["prior_mean_log_post"] == start.log_post
        assert record["log_post"] == state.log_post
        assert 1 <= record["bfgs_evaluations"] <= mcmc.CLIMB_EVALS

    def test_climb_leaves_the_spd_start_on_d1(self, d1_desk_train):
        # L = I is tens of thousands of nats below the mode on d1 at n=300
        model = template("spd")
        start = initial_state(model, Priors(), d1_desk_train)
        state, _, _ = mcmc._climb(start, model, Priors(), d1_desk_train)
        assert start.log_post < -10_000
        assert state.log_post > -1_000

    def test_every_trial_failing_keeps_the_prior_mean_start(self,
                                                            monkeypatch):
        data, model = tiny_data(), template("rotational")
        start = initial_state(model, Priors(), data)

        def gram(*args):
            raise GramFactorizationError("every trial fails")

        monkeypatch.setattr(gp, "gram", gram)
        state, record, _ = mcmc._climb(start, model, Priors(), data)
        assert state is start
        assert record["log_post"] == record["prior_mean_log_post"]

    @pytest.mark.parametrize("data, burn_in", [(None, 100), (tiny_data(), 1),
                                               (tiny_data(), 24)],
                             ids=["prior-only", "burn-in-1", "burn-in-24"])
    def test_prior_only_and_short_burn_in_start_at_the_prior_mean(
            self, monkeypatch, data, burn_in):
        def climb(*args):
            raise AssertionError("climbed")

        monkeypatch.setattr(mcmc, "_climb", climb)
        cfg = ChainConfig(n_iters=burn_in + 20, burn_in=burn_in, seed=3,
                          thin=1)
        chain = run_chain(cfg, data, template("spd"), Priors(),
                          ProposalScales())
        assert chain.start is None and summarize(chain).start is None

    def test_same_seed_climbs_to_the_same_start(self, tmp_path):
        cfg = ChainConfig(n_iters=60, burn_in=30, seed=2, thin=1,
                          sample_noise=True)
        chains = [run_chain(cfg, tiny_data(), template("spd"), Priors(),
                            ProposalScales()) for _ in range(2)]
        for i, chain in enumerate(chains):
            chain.to_csv(tmp_path / f"chain{i}.csv")
        assert chains[0].start == chains[1].start
        assert chains[0].start["log_post"] > chains[0].start[
            "prior_mean_log_post"]
        assert ((tmp_path / "chain0.csv").read_bytes()
                == (tmp_path / "chain1.csv").read_bytes())


class TestFitMode:
    """``_fit_mode`` on f(u) = sum_i k_i cosh(v_i), v = A (u - m): smooth,
    convex, least at m, with Hessian A^T diag(k cosh v) A, whose curvature
    at OFFSET is 1.3-1.6 times that at m along each v_i."""

    A = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, -0.4], [0.0, 0.5, 1.0]])
    K = np.array([2.0, 5.0, 1.0])
    MODE = np.array([0.1, -0.2, 0.3])
    OFFSET = MODE + np.linalg.solve(A, [0.8, -0.9, 1.0])

    @classmethod
    def objective(cls, u):
        v = cls.A @ (u - cls.MODE)
        return float(cls.K @ np.cosh(v)), cls.A.T @ (cls.K * np.sinh(v))

    @classmethod
    def inverse_hessian(cls, u):
        v = cls.A @ (u - cls.MODE)
        return np.linalg.inv(cls.A.T @ np.diag(cls.K * np.cosh(v)) @ cls.A)

    @pytest.mark.parametrize("start", ["offset", "mode"])
    def test_fit_is_the_inverse_hessian_at_the_end_point(self, start):
        # from the offset BFGS steps, and the end takes d more gradients;
        # from the mode it converges at once, and the start's rows serve
        u0 = self.OFFSET if start == "offset" else self.MODE
        u, evals, H = mcmc._fit_mode(self.objective, u0)
        expected = self.inverse_hessian(u)
        # forward differences of step 1e-4 are good to about 1e-4
        np.testing.assert_allclose(H, expected, rtol=1e-3,
                                   atol=1e-3 * np.abs(expected).max())
        if start == "mode":
            assert evals == 1 + u.size and u is u0
        else:
            assert evals > 1 + 2 * u.size
            assert np.abs(self.inverse_hessian(u0) - expected).max() > (
                0.2 * np.abs(expected).max())

    def test_end_hessian_not_positive_definite_walks(self, monkeypatch):
        # the end's forward difference, negated: no fit, and a chain walks
        fd_hessian, hessians = mcmc._fd_hessian, []

        def negated_at_the_end(*args):
            hessians.append(fd_hessian(*args))
            return hessians[-1] if len(hessians) == 1 else -hessians[-1]

        monkeypatch.setattr(mcmc, "_fd_hessian", negated_at_the_end)
        _, evals, H = mcmc._fit_mode(self.objective, self.OFFSET)
        assert H is None and len(hessians) == 2 and evals > 1 + 2 * 3
        hessians.clear()
        steps, propose = [], mcmc._Walk.propose
        monkeypatch.setattr(mcmc._Walk, "propose",
                            lambda *args: steps.append(1) or propose(*args))
        cfg = ChainConfig(n_iters=100, burn_in=50, seed=7, thin=1)
        chain = run_chain(cfg, tiny_data(), template("spd"), Priors(),
                          ProposalScales())
        assert len(hessians) == 2
        assert chain.start["full_data_gradients"] > 1 + 2 * 6
        assert chain.kernel == "walk" and len(steps) == 100

    def test_failed_end_gradient_gives_no_fit(self):
        _, evals, _ = mcmc._fit_mode(self.objective, self.OFFSET)
        calls = []

        def last_fails(u):
            calls.append(1)
            return ((math.inf, None) if len(calls) == evals
                    else self.objective(u))

        assert mcmc._fit_mode(last_fails, self.OFFSET)[1:] == (evals, None)


class TestLaplace:
    @staticmethod
    def prior_draws(seed, n_steps=20_000):
        """Draws of the rotational prior (axis-angle sd 0.5, narrow
        length-scales) by the independence kernel, from a proposal offset
        from the prior's centre and wider than it."""
        priors = Priors(lengthscale_mean=(0.5, 0.5, 0.5),
                        lengthscale_sd=(0.1, 0.1, 0.1), axis_angle_sd=0.5)
        mode = np.array([math.log(0.6)] * 3 + [0.2, -0.1, 0.15])
        kernel = mcmc._Laplace(mode, np.diag([0.25 ** 2] * 3 + [0.6 ** 2] * 3))
        model = template("rotational")
        state = initial_state(model, priors, None)
        rng = np.random.Generator(np.random.PCG64(seed))
        draws, accepted = np.empty((n_steps, 6)), 0
        for i in range(n_steps):
            state, moved = mh_step(state, *kernel.propose(state, rng), None,
                                   model, priors, rng)
            draws[i], accepted = state.x, accepted + moved
        return draws, accepted / n_steps

    def test_independence_kernel_reproduces_the_prior(self):
        # criterion 9's checks on a chain a third as long, plus the
        # length-scales' moments: the narrow prior makes its truncation at
        # zero negligible, and a missing log-proposal Jacobian would shift
        # their mean by about sd^2 / mean = 0.02
        draws, rate = self.prior_draws(41)
        assert rate > 0.1
        for j in range(3):
            ls, a = draws[:, j], draws[:, 3 + j]
            ess = effective_sample_size(ls)
            assert abs(ls.mean() - 0.5) < 3 * 0.1 / math.sqrt(ess)
            assert abs(ls.std(ddof=1) - 0.1) < 0.1 * 0.1
            ess = effective_sample_size(a)
            assert abs(a.mean()) < 3 * 0.5 / math.sqrt(ess)
            assert abs(a.std(ddof=1) - 0.5) < 0.1 * 0.5
        angles = np.array([geodesic_angle(exp_so3(a))
                           for a in draws[::5, 3:]])
        norms = np.linalg.norm(np.random.default_rng(2024).normal(
            0.0, 0.5, (200_000, 3)), axis=1)
        assert ks_2samp(angles, norms).statistic < 0.05

    def test_log_q_ratio_matches_the_multivariate_t(self):
        # the proposal density against scipy's, from a state the kernel did
        # not propose (solved for), then from its own proposals, accepted on
        # every other step (their log q kept from the draw)
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 6))
        H, mode = A @ A.T / 6.0 + 0.1 * np.eye(6), rng.standard_normal(6)
        kernel = mcmc._Laplace(mode, H)
        q = multivariate_t(loc=mode, shape=1.2 ** 2 * H, df=6)
        u = mode + rng.standard_normal(6)
        gen = np.random.Generator(np.random.PCG64(3))
        for i in range(6):
            u_new, log_q_ratio = kernel.propose(
                SamplerState(u, u, 0.0, 0.0, 0.0), gen)
            assert log_q_ratio == pytest.approx(q.logpdf(u) - q.logpdf(u_new),
                                                abs=1e-10)
            if i % 2:
                u = u_new

    def test_same_seed_gives_the_same_chain(self, tmp_path):
        assert np.array_equal(self.prior_draws(5, 500)[0],
                              self.prior_draws(5, 500)[0])
        cfg = ChainConfig(n_iters=200, burn_in=50, seed=7, thin=1)
        chains = [run_chain(cfg, tiny_data(), template("spd"), Priors(),
                            ProposalScales()) for _ in range(2)]
        for i, chain in enumerate(chains):
            assert chain.kernel == "laplace"
            chain.to_csv(tmp_path / f"chain{i}.csv")
        assert ((tmp_path / "chain0.csv").read_bytes()
                == (tmp_path / "chain1.csv").read_bytes())

    def test_indefinite_hessian_falls_back_to_the_walk(self, monkeypatch):
        # every BFGS update turns its inverse Hessian indefinite
        update = mcmc._bfgs_update

        def indefinite(*args):
            H = update(*args)
            if H is None:
                return H
            w, V = np.linalg.eigh(H)
            return (V * np.append(-w[:1], w[1:])) @ V.T

        steps, propose = [], mcmc._Walk.propose
        monkeypatch.setattr(mcmc, "_bfgs_update", indefinite)
        monkeypatch.setattr(mcmc._Walk, "propose",
                            lambda *args: steps.append(1) or propose(*args))
        cfg = ChainConfig(n_iters=100, burn_in=50, seed=7, thin=1)
        chain = run_chain(cfg, tiny_data(), template("spd"), Priors(),
                          ProposalScales())
        # the mode fit stepped past its Hessian's d + 1 gradients
        assert chain.start["full_data_gradients"] > 7
        assert chain.kernel == "walk" and chain.start["kernel"] == "walk"
        assert len(steps) == 100

    @pytest.mark.parametrize("least, kernel", [(0.0, "laplace"),
                                               (1.01, "walk")])
    def test_trial_below_the_least_acceptance_walks(self, monkeypatch, least,
                                                    kernel):
        # the first half of burn-in runs the independence kernel; a chain
        # that accepted less than LAPLACE_MIN_ACCEPT of it walks from there
        steps, propose = [], mcmc._Walk.propose
        monkeypatch.setattr(mcmc, "LAPLACE_MIN_ACCEPT", least)
        monkeypatch.setattr(mcmc._Walk, "propose",
                            lambda *args: steps.append(1) or propose(*args))
        cfg = ChainConfig(n_iters=200, burn_in=100, seed=7, thin=1)
        chain = run_chain(cfg, tiny_data(), template("spd"), Priors(),
                          ProposalScales())
        assert chain.kernel == kernel == chain.start["kernel"]
        assert len(steps) == (0 if kernel == "laplace" else 200 - 50)

    def test_d1_noise_moves_under_the_joint_kernel(self, d1_desk_train):
        # The rotational chain with the noise sampled on d1 at n = 300, as
        # it stands: the adaptive walk accepted 0.045 of its moves here, and
        # its noise moved on 1 of the 49 steps between stored rows.
        cfg = ChainConfig(n_iters=200, burn_in=100, thin=2, seed=1,
                          sample_noise=True)
        chain = run_chain(cfg, d1_desk_train,
                          GPModel(SquaredExponential(),
                                  template("rotational").params, 0.0025),
                          Priors(), ProposalScales())
        lo, hi = ACCEPT_RATE_WINDOW
        assert lo < chain.acceptance_rates()["joint"] < hi
        noise = chain.states[:, -1]
        assert np.count_nonzero(noise[1:] != noise[:-1]) >= 10

    @pytest.mark.parametrize("kernel, accepted, flagged", [
        ("laplace", 95, False), ("laplace", 15, True), ("walk", 95, True),
        ("walk", 15, False)])
    def test_rate_flags_name_the_kernel(self, kernel, accepted, flagged):
        chain = Chain(kind="ard", param_names=list(Ard.names),
                      iters=np.arange(1, 2), states=np.ones((1, 3)),
                      log_posts=np.zeros(1), accepted=accepted, n_iters=100,
                      fixed_noise_var=0.0025,
                      start={"kernel": kernel})
        flags = chain.rate_flags()
        assert list(chain.acceptance_rates()) == ["joint"]
        assert bool(flags) == flagged
        assert all(f"of the {kernel} kernel" in flag for flag in flags)

    @pytest.mark.parametrize("kernel", ["laplace", "walk"])
    @pytest.mark.parametrize("n_samples, moved, flagged", [
        (5, False, True), (5, True, False), (1, False, False)])
    def test_stuck_chain_is_flagged(self, kernel, n_samples, moved, flagged):
        # an acceptance inside both kernels' windows: only the stored rows,
        # all one state, show that the chain stuck
        states = np.tile([0.3, 0.05, 0.6], (n_samples, 1))
        states[-1, 0] += moved
        chain = Chain(kind="ard", param_names=list(Ard.names),
                      iters=np.arange(1, n_samples + 1), states=states,
                      log_posts=np.zeros(n_samples), accepted=30,
                      n_iters=100, fixed_noise_var=0.0025,
                      start={"kernel": kernel})
        flags = chain.rate_flags()
        assert bool(flags) == flagged
        assert all(f"stored rows of the {kernel} kernel hold one state"
                   in flag for flag in flags)


class TestSummarize:
    def test_degenerate_chain_zero_width(self):
        states = np.tile([0.4, 0.1, 0.8, 0.7, -0.4, 1.0], (20, 1))
        chain = Chain(kind="rotational",
                      param_names=list(Rotational.names),
                      iters=np.arange(1, 21), states=states,
                      log_posts=np.full(20, -3.0),
                      accepted=5, n_iters=20,
                      fixed_noise_var=0.0025)
        s = summarize(chain)
        for name in chain.param_names:
            st = s.params[name]
            assert st["q05"] == st["median"] == st["q95"]
            assert st["mean"] == pytest.approx(st["median"], rel=1e-14)
        assert s.geodesic_deg["q05"] == pytest.approx(s.geodesic_deg["q95"])
        np.testing.assert_allclose(s.anisotropy.ranges, [0.1, 0.4, 0.8],
                                   rtol=1e-9)

    def test_plug_in_reads_the_column_means_as_a_row(self):
        cfg = ChainConfig(n_iters=300, burn_in=100, seed=25, sample_noise=True)
        chain = run_chain(cfg, tiny_data(), template("rotational"), Priors(),
                          ProposalScales())
        s = summarize(chain)
        means = [s.params[name]["mean"] for name in chain.param_names]
        assert type(s.posterior_mean_params) is Rotational
        assert s.posterior_mean_params.to_vector().tolist() == means[:-1]
        assert s.posterior_mean_noise_var == means[-1]
        assert s.to_dict()["posterior_mean_params"] == {
            "model": "rotational", "lengthscales": means[:3],
            "axis_angle": means[3:6]}

    def test_interval_ordering_and_units(self):
        cfg = ChainConfig(n_iters=4_000, burn_in=500, seed=21, thin=2)
        chain = run_chain(cfg, None, template("rotational"), Priors(),
                          ProposalScales(axis_angle=0.5))
        s = summarize(chain)
        for st in s.params.values():
            assert st["q05"] <= st["median"] <= st["q95"]
        geo = s.geodesic_deg
        assert 0.0 <= geo["q05"] <= geo["median"] <= geo["q95"] <= 180.0
        # degrees, not radians: prior sd 1 on a gives angles way above pi
        assert geo["median"] > 10.0

    def test_ard_geodesic_is_zero_and_spd_none(self):
        cfg = ChainConfig(n_iters=500, burn_in=100, seed=22)
        ard = summarize(run_chain(cfg, None, template("ard"), Priors(),
                                  ProposalScales()))
        assert ard.geodesic_deg == {"mean": 0.0, "median": 0.0,
                                    "q05": 0.0, "q95": 0.0}
        spd = summarize(run_chain(cfg, None, template("spd"), Priors(),
                                  ProposalScales()))
        assert spd.geodesic_deg is None
        assert spd.anisotropy.ranges.shape == (3,)

    def test_range_ordering_is_constant_across_draws(self):
        # Label switching is resolved by the summary: every stored sample
        # maps to ascending ranges.
        from rotgp.metric import build_metric, eigen_summary
        data = tiny_data()
        cfg = ChainConfig(n_iters=600, burn_in=100, seed=23, thin=5)
        chain = run_chain(cfg, data, template("rotational"), Priors(),
                          ProposalScales())
        for i in range(chain.n_samples):
            params, _ = row_params(Rotational, chain.states[i], None)
            s = eigen_summary(build_metric(params))
            assert np.all(np.diff(s.ranges) >= 0)

    def test_acceptance_flags(self, walk_kernel):
        # An absurdly large proposal scale drives acceptance to ~0 and must
        # flag the run rather than fail it.
        cfg = ChainConfig(n_iters=400, burn_in=100, seed=24)
        chain = run_chain(cfg, tiny_data(), template("ard"), Priors(),
                          ProposalScales(log_lengthscale=50.0))
        s = summarize(chain)
        assert s.flags, "expected an out-of-window acceptance flag"


class TestEffectiveSampleSize:
    def test_iid_sequence(self):
        x = np.random.default_rng(0).standard_normal(20_000)
        ess = effective_sample_size(x)
        assert 0.5 * 20_000 < ess <= 20_000 * 1.2

    def test_ar1_sequence(self):
        rng = np.random.default_rng(1)
        phi = 0.9
        n = 50_000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.standard_normal()
        tau_true = (1 + phi) / (1 - phi)
        ess = effective_sample_size(x)
        assert ess == pytest.approx(n / tau_true, rel=0.35)
