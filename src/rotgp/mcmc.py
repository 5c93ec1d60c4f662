"""Random-walk Metropolis-Hastings over metric parameters.

The sampler is generic. Its state is one flat vector ``x``, laid out as a
stored chain row: the spec's ``names``, then ``noise_var`` when noise is
sampled. One walk moves the fields of the blocks being updated, each as its
row in the spec's table says (see :mod:`rotgp.metric`), and the same table
gives the Gaussian prior on the raw coordinates. The noise is this module's
own row (block ``noise``, step ``log_noise``): walked as ``exp(log x + eps)``,
with its prior on log noise variance. The length-scales' prior lives on the
raw coordinate, so their log-scale walk carries the log-proposal Jacobian in
the acceptance ratio and the target density is unchanged.

Chains are deterministic given the seed: one PCG64 generator drives proposal
noise and acceptance uniforms in a fixed order.
"""

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .gp import Dataset, GPModel, log_marginal_likelihood
from .kernels import GramFactorizationError
from .metric import (SPECS, AnisotropySummary, MetricParams, build_metric,
                     eigen_summary, normal_logpdf)
from .table import DataFormatError, read_table, write_table

RNG_NAME = "pcg64"

# Acceptance rates outside this window flag the run for inspection; they do
# not fail it.
ACCEPT_RATE_WINDOW = (0.05, 0.7)

_NEG_INF = float("-inf")


class ChainInitError(RuntimeError):
    """Initial sampler state has an invalid (-inf) posterior."""


@dataclass
class Priors:
    """Independent Gaussian priors: the sd, and the mean or zero, that each
    row of a spec's table names, on the coordinate its move gives (see
    ``metric.Row``), and the noise's, on log noise variance."""

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
        for f in fields(self):
            if f.name.endswith("_sd") and not np.all(getattr(self, f.name) > 0.0):
                raise ValueError(f"{f.name} must be positive")


@dataclass
class ProposalScales:
    """Random-walk standard deviations per parameter block.

    ``log_noise`` is wide because the log noise variance is weakly identified
    at desk scale; 1.0 keeps the noise block's acceptance inside
    ``ACCEPT_RATE_WINDOW`` on d1 fits at n=300 for every model. ``axis_angle``
    is 0.03 because a rotational d1 posterior at n=300 is narrow in the
    rotation: 0.08 accepts under 0.05 of the moves once a chain reaches it.
    """

    log_lengthscale: float = 0.05
    axis_angle: float = 0.03
    spd: float = 0.05
    log_noise: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"{f.name} must be positive")


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
        return {**vars(self), "rng": RNG_NAME}


@dataclass
class SamplerState:
    """Current flat state ``x`` with cached log-likelihood and log-prior."""

    x: np.ndarray
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
        """Write `iter,log_post,<params>` rows."""
        write_table(path, ["iter", "log_post"] + self.param_names,
                    [[it, lp, *row] for it, lp, row in zip(
                        self.iters.tolist(), self.log_posts.tolist(),
                        self.states.tolist())])


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
        return {**vars(self), "anisotropy": self.anisotropy.to_dict(),
                "flags": list(self.flags)}


def log_prior(params: MetricParams, priors: Priors,
              log_noise_var: float | None = None) -> float:
    """Sum of Gaussian log prior densities on the raw coordinates, with the
    noise's on ``log_noise_var`` when it is given.

    Returns -inf for states violating positivity or finiteness, which the
    sampler reads as an automatic rejection.
    """
    total = params.log_prior(priors)
    if log_noise_var is not None:
        total += float(normal_logpdf(log_noise_var, priors.log_noise_mean,
                                     priors.log_noise_sd))
    return total


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


# The walk's moves by name; "log" is the noise's, which keeps the bytes of
# exp(log x + eps) that x * exp(eps) would change in the last bits.
_MOVES = {"add": lambda x, eps: x + eps,
          "scale": lambda x, eps: x * np.exp(eps),
          "jacobian": lambda x, eps: x * np.exp(eps),
          "log": lambda x, eps: np.exp(np.log(x) + eps)}


@functools.cache
def _walk_rows(spec: type, sample_noise: bool) -> tuple:
    """``(block, slice of x, step, move)`` per field, in layout order."""
    rows = [(row.block, slice(i, i + 3), row.step, row.move)
            for i, row in zip(range(0, len(spec.names), 3), spec.table.values())]
    if sample_noise:
        n = len(spec.names)
        rows.append(("noise", slice(n, n + 1), "log_noise", "log"))
    return tuple(rows)


def _score(x: np.ndarray, model: GPModel, priors: Priors,
           data: Dataset | None) -> SamplerState:
    """The state at ``x``; its likelihood is -inf, uncomputed, if its prior is."""
    spec = type(model.params)
    params, noise_var = spec.from_row(x, model.noise_var)
    log_nv = math.log(noise_var) if x.size > len(spec.names) else None
    lp = log_prior(params, priors, log_noise_var=log_nv)
    ll = _log_lik(model, params, noise_var, data) if lp > _NEG_INF else _NEG_INF
    return SamplerState(x, ll, lp)


def mh_step(state: SamplerState, data: Dataset | None, model: GPModel,
            priors: Priors, scales: ProposalScales, rng: np.random.Generator,
            blocks: list[str] | None = None) -> tuple[SamplerState, bool]:
    """One Metropolis-Hastings update of ``blocks``, by default all of them
    jointly; the noise is sampled when ``state.x`` holds it. Each moved field
    draws ``rng.normal(0, step, size)``, in layout order. Proposals whose
    prior is -inf or whose Gram matrix cannot be factorized are rejected
    without further work."""
    spec = type(model.params)
    x, jac = state.x.copy(), 0.0
    for block, part, step, move in _walk_rows(spec, state.x.size > len(spec.names)):
        if blocks is None or block in blocks:
            eps = rng.normal(0.0, getattr(scales, step), part.stop - part.start)
            x[part] = _MOVES[move](x[part], eps)
            if move == "jacobian":
                jac += float(np.sum(eps))
    new = _score(x, model, priors, data)
    log_alpha = new.log_post - state.log_post + jac
    if log_alpha == _NEG_INF:
        return state, False
    if rng.uniform() < math.exp(min(log_alpha, 0.0)):
        return new, True
    return state, False


def initial_state(model: GPModel, priors: Priors, data: Dataset | None,
                  sample_noise: bool = False) -> SamplerState:
    """Prior-mean start of the template's parameterisation."""
    x = type(model.params).prior_mean(priors).to_vector()
    if sample_noise:
        x = np.append(x, math.exp(priors.log_noise_mean))
    return _score(x, model, priors, data)


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

    # Each iteration proposes every update group once, in order: all blocks
    # jointly, or one block at a time.
    blocks = list(dict.fromkeys(r[0] for r in _walk_rows(spec, config.sample_noise)))
    groups = ({b: [b] for b in blocks} if config.block_updates
              else {"joint": blocks})
    accept_counts = dict.fromkeys(groups, 0)
    proposal_counts = dict.fromkeys(groups, 0)

    names = list(spec.names) + (["noise_var"] if config.sample_noise else [])
    n_keep = (config.n_iters - config.burn_in) // config.thin
    iters = np.empty(n_keep, dtype=np.int64)
    states = np.empty((n_keep, len(names)))
    log_posts = np.empty(n_keep)

    kept = 0
    for i in range(1, config.n_iters + 1):
        for name, group in groups.items():
            state, accepted = mh_step(state, data, model, priors, scales,
                                     rng, group)
            proposal_counts[name] += 1
            accept_counts[name] += accepted
        if i > config.burn_in and (i - config.burn_in) % config.thin == 0:
            iters[kept] = i
            states[kept] = state.x
            log_posts[kept] = state.log_post
            kept += 1

    assert kept == n_keep
    return Chain(kind=spec.kind, param_names=names, iters=iters, states=states,
                 log_posts=log_posts, accept_counts=accept_counts,
                 proposal_counts=proposal_counts,
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
    header, rows = read_table(path)
    if header[:2] != ["iter", "log_post"]:
        raise DataFormatError(
            f"{path}: line 1: expected a header starting iter,log_post")
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
