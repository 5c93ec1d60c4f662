import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import ks_2samp

from rotgp import mcmc
from rotgp.data import SyntheticConfig, generate_synthetic
from rotgp.gp import Dataset, GPModel
from rotgp.kernels import SquaredExponential
from rotgp.mcmc import (ACCEPT_RATE_WINDOW, CHAIN_MINIMA, Chain,
                        ChainConfig, ChainInitError, Priors, ProposalScales,
                        _score, effective_sample_size, initial_state,
                        load_chain_csv, log_prior, mh_step, must_be_positive,
                        prior_mean, row_params, run_chain, summarize)
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


def tiny_data(rng=None, n=12):
    rng = rng or np.random.default_rng(99)
    return Dataset(rng.uniform(-1, 1, (n, 3)), rng.standard_normal(n))


# Priors away from every default, the noise's mean among them.
_PRIORS = Priors(lengthscale_mean=(0.3, 0.6, 0.9),
                 lengthscale_sd=(0.2, 0.4, 0.6), axis_angle_sd=0.7,
                 spd_logdiag_sd=1.1, spd_offdiag_sd=2.5, log_noise_mean=-4.3,
                 log_noise_sd=1.7)



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
        state = _score(x, model, _PRIORS, data)
        assert state.log_prior == state.log_lik == -np.inf
        # a valid noise does reach the likelihood
        x[-1] = 0.01
        with pytest.raises(AssertionError, match="outside the prior"):
            _score(x, model, _PRIORS, data)


class TestStart:
    @each_spec_and_noise
    def test_each_part_at_its_prior_mean(self, kind, sample_noise):
        # the identity rotation, the unit Cholesky diagonal, and exactly
        # math.exp(log_noise_mean)
        x = prior_mean(SPECS[kind], _PRIORS, sample_noise)
        expected = {"ard": [0.3, 0.6, 0.9],
                    "rotational": [0.3, 0.6, 0.9, 0.0, 0.0, 0.0],
                    "spd": [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]}[kind]
        assert x.tolist() == expected + [math.exp(-4.3)] * sample_noise
        state = initial_state(template(kind), _PRIORS, None, sample_noise)
        assert state.x.tolist() == x.tolist()
        assert state.log_prior == log_prior(x, SPECS[kind], _PRIORS) > -np.inf


class _StubRng:
    """Deterministic stand-in: fixed normals, then fixed uniforms."""

    def __init__(self, normals, uniforms):
        self._normals = list(normals)
        self._uniforms = list(uniforms)

    def normal(self, loc, scale, size=None):
        if size is None:
            return loc + scale * self._normals.pop(0)
        return loc + scale * np.array([self._normals.pop(0)
                                       for _ in range(size)])

    def uniform(self):
        return self._uniforms.pop(0)


class TestMhStep:
    def test_uphill_proposal_always_accepted(self):
        # Prior-only target, current rotation away from the prior mode, and a
        # proposal engineered to land exactly on the mode with the
        # length-scale block unmoved (zero Jacobian): strictly uphill, so it
        # must be accepted even for the most unlucky uniform draw.
        from rotgp.mcmc import SamplerState
        priors = Priors()
        scales = ProposalScales(axis_angle=0.08)
        model = template("rotational")
        start = Rotational((0.5, 0.5, 0.5), (0.5, 0.0, 0.0))
        state = SamplerState(start.to_vector(), 0.0,
                             log_prior(start.to_vector(), Rotational, priors))
        rng = _StubRng(normals=[0.0, 0.0, 0.0, -0.5 / 0.08, 0.0, 0.0],
                       uniforms=[1.0 - 1e-12])
        new_state, accepted = mh_step(state, None, model, priors, scales, rng)
        assert accepted
        np.testing.assert_allclose(new_state.x[3:6], 0.0, atol=1e-15)
        assert new_state.log_prior > state.log_prior

    def test_invalid_proposal_rejected_without_uniform(self):
        priors = Priors()
        scales = ProposalScales(axis_angle=1e6)
        model = template("rotational")
        state = initial_state(model, priors, None)
        # exp(1e6 * 800) overflows the axis-angle coordinate to inf -> -inf prior
        rng = _StubRng(normals=[0.0, 0.0, 0.0, np.inf, 0.0, 0.0], uniforms=[])
        new_state, accepted = mh_step(state, None, model, priors, scales, rng)
        assert not accepted
        assert new_state is state

    def test_accepted_state_carries_recomputable_posterior(self):
        priors = Priors()
        scales = ProposalScales()
        data = tiny_data()
        model = template("ard")
        state = initial_state(model, priors, data)
        rng = np.random.Generator(np.random.PCG64(5))
        accepted_any = False
        for _ in range(50):
            state, accepted = mh_step(state, data, model, priors, scales, rng)
            accepted_any = accepted_any or accepted
        assert accepted_any
        from rotgp.gp import log_marginal_likelihood
        params, noise_var = row_params(Ard, state.x, model.noise_var)
        model_now = GPModel(model.profile, params, noise_var)
        assert state.log_lik == pytest.approx(
            log_marginal_likelihood(model_now, data), abs=1e-10)
        assert state.log_prior == pytest.approx(
            log_prior(params.to_vector(), Ard, priors), abs=1e-12)


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

    def test_stored_log_posts_recompute(self):
        from rotgp.gp import log_marginal_likelihood
        data = tiny_data()
        cfg = ChainConfig(n_iters=300, burn_in=100, seed=3, thin=10)
        model = template("rotational")
        chain = run_chain(cfg, data, model, Priors(), ProposalScales())
        assert np.all(np.isfinite(chain.log_posts))
        for i in range(chain.n_samples):
            params, noise = row_params(Rotational, chain.states[i],
                                       chain.fixed_noise_var)
            lp = (log_marginal_likelihood(
                GPModel(model.profile, params, noise), data)
                + log_prior(params.to_vector(), Rotational, Priors()))
            assert chain.log_posts[i] == pytest.approx(lp, abs=1e-10)

    def test_init_failure_is_fatal(self):
        bad_priors = Priors(lengthscale_mean=(-0.5, 0.5, 0.5))
        with pytest.raises(ChainInitError):
            run_chain(ChainConfig(n_iters=10, burn_in=0, seed=0), tiny_data(),
                      template("ard"), bad_priors, ProposalScales())

    def test_block_updates_bookkeeping(self):
        cfg = ChainConfig(n_iters=200, burn_in=50, seed=2, block_updates=True)
        chain = run_chain(cfg, tiny_data(), template("rotational"), Priors(),
                          ProposalScales())
        assert set(chain.accept_counts) == {"lengthscales", "axis_angle"}
        assert chain.n_iters == 200

    def test_sampled_noise_column(self):
        cfg = ChainConfig(n_iters=300, burn_in=100, seed=4, sample_noise=True)
        chain = run_chain(cfg, tiny_data(), template("ard"), Priors(),
                          ProposalScales())
        assert chain.param_names == ["l_x", "l_y", "l_z", "noise_var"]
        assert np.all(chain.states[:, -1] > 0)
        assert chain.fixed_noise_var is None

    def test_huge_noise_step_is_rejected_by_the_prior(self):
        # exp(log x + eps) with |eps| ~ 1000 overflows to inf or underflows
        # to 0; both are outside the prior's support, and the walk must not
        # warn (the suite turns RuntimeWarning into an error).
        cfg = ChainConfig(n_iters=60, burn_in=10, thin=1, seed=4,
                          sample_noise=True)
        chain = run_chain(cfg, tiny_data(), template("ard"), Priors(),
                          ProposalScales(log_noise=1000.0))
        noise = chain.states[:, -1]
        assert np.all(np.isfinite(noise)) and np.all(noise > 0)
        assert np.all(np.isfinite(chain.log_posts))

    @pytest.mark.parametrize("kind", ["ard", "rotational", "spd"])
    def test_default_noise_proposal_in_acceptance_window(self, d1_desk_train,
                                                         kind):
        # With noise sampled, the default noise step must mix: a short d1
        # chain at n=300 accepts noise moves at a rate inside the window.
        chain = run_chain(ChainConfig(n_iters=200, burn_in=100, thin=2, seed=1,
                                      block_updates=True, sample_noise=True),
                          d1_desk_train,
                          GPModel(SquaredExponential(),
                                  template(kind).params, 0.0025),
                          Priors(), ProposalScales())
        lo, hi = ACCEPT_RATE_WINDOW
        assert lo < chain.acceptance_rates()["noise"] < hi

    @pytest.mark.parametrize("block_updates", [False, True],
                             ids=["joint", "blocks"])
    def test_default_axis_angle_proposal_in_acceptance_window(
            self, d1_desk_train, block_updates):
        # A standalone rotational fit with the default steps must mix once
        # the chain reaches the narrow d1 posterior at n=300, which takes a
        # few thousand iterations: at an axis-angle step of 0.08 both rates
        # fall under the window (0.037 joint, 0.045 axis-angle block).
        chain = run_chain(ChainConfig(n_iters=3000, burn_in=1000, thin=5,
                                      seed=1, block_updates=block_updates),
                          d1_desk_train,
                          GPModel(SquaredExponential(),
                                  template("rotational").params, 0.0025),
                          Priors(), ProposalScales())
        rate = chain.acceptance_rates()[
            "axis_angle" if block_updates else "joint"]
        lo, hi = ACCEPT_RATE_WINDOW
        assert lo < rate < hi

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
        # The moves no other test covers: the spd diagonal walks on the log
        # scale with its prior on log d (no Jacobian), the off-diagonal
        # additively, and the sampled noise as exp(log x + eps) with its
        # prior on log x. Each marginal, on the scale its prior is declared
        # on, must be that Gaussian; a Jacobian on the diagonal would shift
        # the mean of log d by 1.5^2, about eighty standard errors.
        priors = Priors()
        cfg = ChainConfig(n_iters=40_000, burn_in=2_000, seed=14, thin=1,
                          block_updates=True, sample_noise=True)
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
    @pytest.mark.parametrize("block_updates, sample_noise", [
        (False, False), (False, True), (True, True)],
        ids=["joint", "joint-noise", "blocks-noise"])
    def test_adapted_chain_reproduces_the_prior(self, kind, block_updates,
                                                sample_noise):
        # Burn-in adapts the walk from the default steps, which are far too
        # small for these priors; the frozen walk after it must still be a
        # valid MH kernel for the prior: each part's marginal, on the
        # coordinate its prior is declared on, is that Gaussian. The
        # length-scale prior is narrow and away from zero, so its truncation
        # at zero is negligible.
        priors = Priors(lengthscale_mean=(0.5, 0.5, 0.5),
                        lengthscale_sd=(0.1, 0.1, 0.1), axis_angle_sd=0.5)
        cfg = ChainConfig(n_iters=30_000, burn_in=5_000, seed=31, thin=1,
                          block_updates=block_updates,
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
    def test_rejecting_burn_in_falls_back_to_the_diagonal(self, monkeypatch):
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
        assert chain.accept_counts == {"joint": 0}
        assert len(fallbacks) == 4 and all(fallbacks)
        assert np.all(chain.states == chain.states[0])

    def test_window_without_enough_distinct_states_gives_the_diagonal(self):
        parts = mcmc._group(Rotational, False, None)
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
        # second step must use the starting diagonal, as mh_step does by
        # default, and no covariance is estimated.
        monkeypatch.setattr(mcmc._Walk, "_estimate", None)
        cfg = ChainConfig(n_iters=2, burn_in=1, seed=8, thin=1)
        data, model = tiny_data(), template("spd")
        chain = run_chain(cfg, data, model, Priors(), ProposalScales())
        rng = np.random.Generator(np.random.PCG64(8))
        state = initial_state(model, Priors(), data)
        for _ in range(2):
            state, _ = mh_step(state, data, model, Priors(), ProposalScales(),
                               rng)
        assert chain.states.tolist() == [state.x.tolist()]

    @pytest.mark.parametrize("block_updates, groups", [(False, 1), (True, 3)],
                             ids=["joint", "blocks"])
    def test_adaptation_costs_no_likelihood(self, monkeypatch, block_updates,
                                            groups):
        # one likelihood at the start and one per group per iteration
        calls = []
        lml = mcmc.log_marginal_likelihood
        monkeypatch.setattr(mcmc, "log_marginal_likelihood",
                            lambda *args: calls.append(1) or lml(*args))
        cfg = ChainConfig(n_iters=200, burn_in=100, seed=6, thin=1,
                          block_updates=block_updates, sample_noise=True)
        run_chain(cfg, tiny_data(), template("rotational"), Priors(),
                  ProposalScales())
        assert len(calls) == 200 * groups + 1

    def test_ard_lengthscales_accept_inside_the_window(self, d1_desk_train):
        # With the noise sampled and block updates, the default steps
        # accepted 0.70-0.76 of the ARD length-scale moves on d1 at n=300.
        # After burn-in the frozen walk must accept inside the window,
        # counted from the stored rows.
        cfg = ChainConfig(n_iters=400, burn_in=200, thin=1, seed=1,
                          block_updates=True, sample_noise=True)
        chain = run_chain(cfg, d1_desk_train,
                          GPModel(SquaredExponential(),
                                  template("ard").params, 0.0025),
                          Priors(), ProposalScales())
        ls = chain.states[:, :3]
        rate = np.mean(np.any(ls[1:] != ls[:-1], axis=1))
        lo, hi = ACCEPT_RATE_WINDOW
        assert lo < rate < hi


class TestSummarize:
    def test_degenerate_chain_zero_width(self):
        states = np.tile([0.4, 0.1, 0.8, 0.7, -0.4, 1.0], (20, 1))
        chain = Chain(kind="rotational",
                      param_names=list(Rotational.names),
                      iters=np.arange(1, 21), states=states,
                      log_posts=np.full(20, -3.0),
                      accept_counts={"joint": 5}, n_iters=20,
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

    def test_acceptance_flags(self):
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
