"""Random-walk Metropolis-Hastings over metric parameters.

The sampler is generic: the parameterisation's spec (see
:mod:`rotgp.metric`) supplies the update blocks, the log prior, the proposal
and the flat-vector layout of stored samples.

The target is the posterior over raw parameters: Gaussian priors sit on the
length-scales themselves, on the axis-angle components, on the log-diagonal
and off-diagonal Cholesky entries, and on log noise variance when noise is
sampled. Positive parameters (length-scales, Cholesky diagonal) are proposed
on the log scale; for the length-scales, whose prior lives on the raw
coordinate, the acceptance ratio carries the matching log-proposal Jacobian
so the target density is unchanged.

Chains are deterministic given the seed: one PCG64 generator drives proposal
noise and acceptance uniforms in a fixed order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .gp import Dataset, GPModel, log_marginal_likelihood
from .kernels import GramFactorizationError
from .metric import (SPECS, AnisotropySummary, MetricParams, build_metric,
                     eigen_summary, normal_logpdf)

RNG_NAME = "pcg64"

# Acceptance rates outside this window flag the run for inspection; they do
# not fail it.
ACCEPT_RATE_WINDOW = (0.05, 0.7)

_NEG_INF = float("-inf")


class ChainInitError(RuntimeError):
    """Initial sampler state has an invalid (-inf) posterior."""


@dataclass
class Priors:
    """Independent Gaussian priors on the raw parameter coordinates.

    Length-scale priors are Gaussian on the length-scales themselves (with
    zero mass below zero enforced separately); the axis-angle prior is
    zero-mean isotropic; Cholesky-SPD priors are zero-mean Gaussians on the
    log-diagonal and off-diagonal factor entries; the optional noise prior
    is Gaussian on log noise variance.
    """

    lengthscale_mean: np.ndarray = (0.5, 0.5, 0.5)
    lengthscale_sd: np.ndarray = (0.5, 0.5, 0.5)
    axis_angle_sd: float = 1.0
    spd_logdiag_sd: float = 1.5
    spd_offdiag_sd: float = 3.0
    log_noise_mean: float = -6.0
    log_noise_sd: float = 1.0

    def __post_init__(self):
        self.lengthscale_mean = np.asarray(self.lengthscale_mean, dtype=float)
        self.lengthscale_sd = np.asarray(self.lengthscale_sd, dtype=float)
        for name in ("lengthscale_sd",):
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        for name in ("axis_angle_sd", "spd_logdiag_sd", "spd_offdiag_sd", "log_noise_sd"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ProposalScales:
    """Random-walk standard deviations per parameter block.

    ``log_noise`` is wide because the log noise variance is weakly identified
    at desk scale; 1.0 keeps the noise block's acceptance inside
    ``ACCEPT_RATE_WINDOW`` on d1 fits at n=300 for every model.
    """

    log_lengthscale: float = 0.05
    axis_angle: float = 0.08
    spd: float = 0.05
    log_noise: float = 1.0

    def __post_init__(self):
        for name in ("log_lengthscale", "axis_angle", "spd", "log_noise"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ChainConfig:
    """Chain length, burn-in, thinning, seed, and update style."""

    n_iters: int = 20_000
    burn_in: int = 10_000
    seed: int = 0
    thin: int = 5
    block_updates: bool = False
    sample_noise: bool = False

    def __post_init__(self):
        if self.n_iters < 1:
            raise ValueError("n_iters must be positive")
        if not 0 <= self.burn_in < self.n_iters:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_iters")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def to_dict(self) -> dict:
        return {
            "n_iters": self.n_iters,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "thin": self.thin,
            "block_updates": self.block_updates,
            "sample_noise": self.sample_noise,
            "rng": RNG_NAME,
        }


@dataclass
class SamplerState:
    """Current parameter state with cached log-likelihood and log-prior."""

    params: MetricParams
    noise_var: float
    log_lik: float
    log_prior: float

    @property
    def log_post(self) -> float:
        return self.log_lik + self.log_prior


@dataclass
class Chain:
    """Stored post-burn-in, thinned samples plus acceptance bookkeeping."""

    kind: str
    param_names: list[str]
    iters: np.ndarray
    states: np.ndarray
    log_posts: np.ndarray
    accept_counts: dict[str, int]
    proposal_counts: dict[str, int]
    config: ChainConfig
    fixed_noise_var: float | None

    @property
    def spec(self) -> type:
        return SPECS[self.kind]

    @property
    def n_samples(self) -> int:
        return int(self.states.shape[0])

    def acceptance_rates(self) -> dict[str, float]:
        return {b: self.accept_counts[b] / max(self.proposal_counts[b], 1)
                for b in self.proposal_counts}

    def rate_flags(self) -> list[str]:
        lo, hi = ACCEPT_RATE_WINDOW
        return [
            f"acceptance rate {r:.3f} for block '{b}' outside ({lo}, {hi})"
            for b, r in self.acceptance_rates().items()
            if not lo < r < hi
        ]

    def params_at(self, i: int) -> tuple[MetricParams, float]:
        """Rebuild the metric parameters and noise variance of sample i."""
        return self.spec.from_row(self.states[i], self.fixed_noise_var)

    def to_csv(self, path) -> None:
        """Write `iter,log_post,<params>` rows; floats use shortest repr."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(["iter", "log_post"] + self.param_names) + "\n")
            for it, lp, row in zip(self.iters, self.log_posts, self.states):
                cells = [str(int(it)), repr(float(lp))]
                cells += [repr(float(v)) for v in row]
                f.write(",".join(cells) + "\n")


@dataclass
class PosteriorSummary:
    """Per-parameter posterior statistics and invariant anisotropy summary."""

    kind: str
    params: dict[str, dict[str, float]]
    geodesic_deg: dict[str, float] | None
    anisotropy: AnisotropySummary
    posterior_mean_noise_var: float | None
    acceptance_rates: dict[str, float]
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "geodesic_deg": self.geodesic_deg,
            "anisotropy": self.anisotropy.to_dict(),
            "posterior_mean_noise_var": self.posterior_mean_noise_var,
            "acceptance_rates": self.acceptance_rates,
            "flags": list(self.flags),
        }


def log_prior(params: MetricParams, priors: Priors,
              log_noise_var: float | None = None) -> float:
    """Sum of Gaussian log prior densities on the raw coordinates.

    Returns -inf for states violating positivity or finiteness, which the
    sampler reads as an automatic rejection.
    """
    total = params.log_prior(priors)
    if total == _NEG_INF or log_noise_var is None:
        return total
    if not np.isfinite(log_noise_var):
        return _NEG_INF
    return total + float(normal_logpdf(log_noise_var, priors.log_noise_mean,
                                       priors.log_noise_sd))


def _log_lik(model: GPModel, params: MetricParams, noise_var: float,
             data: Dataset | None) -> float:
    if data is None:
        return 0.0
    try:
        candidate = GPModel(profile=model.profile, params=params, noise_var=noise_var)
        return log_marginal_likelihood(candidate, data)
    except (GramFactorizationError, np.linalg.LinAlgError):
        # unfactorizable proposals are rejected, not fatal
        return _NEG_INF


def mh_step(state: SamplerState, data: Dataset | None, model: GPModel,
            priors: Priors, scales: ProposalScales, rng: np.random.Generator,
            sample_noise: bool = False, blocks: list[str] | None = None
            ) -> tuple[SamplerState, bool]:
    """One Metropolis-Hastings update of ``blocks``, by default all of them
    jointly.

    Proposals whose prior is -inf or whose Gram matrix cannot be factorized
    are rejected without further work.
    """
    if blocks is None:
        blocks = list(state.params.blocks) + (["noise"] if sample_noise else [])
    new_params, jac = state.params.propose(blocks, scales, rng)
    new_noise = state.noise_var
    if sample_noise and "noise" in blocks:
        new_noise = float(np.exp(np.log(state.noise_var)
                                 + rng.normal(0.0, scales.log_noise)))
    log_nv = math.log(new_noise) if sample_noise else None
    lp = log_prior(new_params, priors, log_noise_var=log_nv)
    if lp == _NEG_INF:
        return state, False
    ll = _log_lik(model, new_params, new_noise, data)
    log_alpha = (ll + lp) - (state.log_lik + state.log_prior) + jac
    if log_alpha == _NEG_INF:
        return state, False
    if rng.uniform() < math.exp(min(log_alpha, 0.0)):
        return SamplerState(new_params, new_noise, ll, lp), True
    return state, False


def initial_state(model: GPModel, priors: Priors, data: Dataset | None,
                  sample_noise: bool = False) -> SamplerState:
    """Prior-mean start of the template's parameterisation."""
    params = type(model.params).prior_mean(priors)
    noise_var = math.exp(priors.log_noise_mean) if sample_noise else model.noise_var
    log_nv = math.log(noise_var) if sample_noise else None
    lp = log_prior(params, priors, log_noise_var=log_nv)
    ll = _log_lik(model, params, noise_var, data) if lp > _NEG_INF else _NEG_INF
    return SamplerState(params, noise_var, ll, lp)


def run_chain(config: ChainConfig, data: Dataset | None, model: GPModel,
              priors: Priors, scales: ProposalScales) -> Chain:
    """Run a single RWMH chain; deterministic given the config seed.

    ``model`` is a template: its ``params`` field selects the
    parameterisation, its ``profile`` and ``noise_var`` are used as given
    (noise_var is ignored when ``config.sample_noise``). ``data=None``
    samples the prior (constant likelihood).
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    spec = type(model.params)
    state = initial_state(model, priors, data, config.sample_noise)
    if not np.isfinite(state.log_post):
        raise ChainInitError(
            f"initial state has invalid posterior (log_lik={state.log_lik}, "
            f"log_prior={state.log_prior})")

    blocks = list(spec.blocks) + (["noise"] if config.sample_noise else [])
    accept_counts = {b: 0 for b in (blocks if config.block_updates else ["joint"])}
    proposal_counts = {b: 0 for b in accept_counts}

    names = list(spec.names) + (["noise_var"] if config.sample_noise else [])
    n_keep = (config.n_iters - config.burn_in) // config.thin
    iters = np.empty(n_keep, dtype=np.int64)
    states = np.empty((n_keep, len(names)))
    log_posts = np.empty(n_keep)

    kept = 0
    for i in range(1, config.n_iters + 1):
        if config.block_updates:
            for b in blocks:
                state, accepted = mh_step(state, data, model, priors, scales,
                                         rng, config.sample_noise, [b])
                proposal_counts[b] += 1
                accept_counts[b] += accepted
        else:
            state, accepted = mh_step(state, data, model, priors, scales,
                                     rng, config.sample_noise, blocks)
            proposal_counts["joint"] += 1
            accept_counts["joint"] += accepted
        if i > config.burn_in and (i - config.burn_in) % config.thin == 0:
            vec = state.params.to_vector()
            if config.sample_noise:
                vec = np.append(vec, state.noise_var)
            iters[kept] = i
            states[kept] = vec
            log_posts[kept] = state.log_post
            kept += 1

    assert kept == n_keep
    return Chain(kind=spec.kind, param_names=names, iters=iters, states=states,
                 log_posts=log_posts, accept_counts=accept_counts,
                 proposal_counts=proposal_counts, config=config,
                 fixed_noise_var=None if config.sample_noise else model.noise_var)


def _column_stats(x: np.ndarray) -> dict[str, float]:
    return {
        "mean": float(np.mean(x)),
        "median": float(np.median(x)),
        "q05": float(np.quantile(x, 0.05)),
        "q95": float(np.quantile(x, 0.95)),
    }


def summarize(chain: Chain) -> PosteriorSummary:
    """Posterior summary: per-parameter statistics, geodesic rotation angle
    aggregates, and the anisotropy summary of the posterior-mean metric.

    Geodesic-angle statistics come from the per-sample induced rotation for
    rotational chains and are identically zero for ARD; the generic SPD
    parameterisation is summarized through the eigendecomposition only.
    """
    if chain.n_samples == 0:
        raise ValueError("chain holds no samples")
    stats = {name: _column_stats(chain.states[:, j])
             for j, name in enumerate(chain.param_names)}

    angles = [chain.spec.from_vector(row).rotation_deg()
              for row in chain.states]
    geo = None if None in angles else _column_stats(np.array(angles))

    mean_params = chain.spec.from_vector(chain.states.mean(axis=0))
    anis = eigen_summary(build_metric(mean_params))

    if "noise_var" in chain.param_names:
        noise_mean = stats["noise_var"]["mean"]
    else:
        noise_mean = None

    return PosteriorSummary(
        kind=chain.kind,
        params=stats,
        geodesic_deg=geo,
        anisotropy=anis,
        posterior_mean_noise_var=noise_mean,
        acceptance_rates=chain.acceptance_rates(),
        flags=chain.rate_flags(),
    )


def load_chain_csv(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Read a chain CSV back as (param_names, iters, log_posts, states)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        lines = f.read().splitlines()
    if header[:2] != ["iter", "log_post"]:
        raise ValueError(f"not a chain CSV: header starts with {header[:2]}")
    if not any(line.strip() for line in lines):
        raise ValueError("chain CSV has no rows")
    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if rows.shape[1] != len(header):
        raise ValueError("chain CSV has inconsistent columns")
    return (header[2:], rows[:, 0].astype(np.int64), rows[:, 1], rows[:, 2:])


def effective_sample_size(x) -> float:
    """ESS from the initial positive sequence of autocorrelation pair sums."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    tau = -1.0
    for k in range(n // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / max(tau, 1.0))
