"""Random-walk Metropolis-Hastings over metric parameters.

The sampler is generic. Its state is one flat vector ``x``, laid out as a
stored chain row (:func:`columns`), which only this module reads, maps to a
model (:func:`row_params`) and summarises. :func:`layout` pairs each part of
``x`` with the ``metric.Row`` that governs it: the spec's table declares one
per field (see :mod:`rotgp.metric`), and the noise's is this module's own
``_NOISE``. The walk, the log prior and the prior-mean start all go through
that layout, the same way for every part: a row's move (``_MOVES``) gives the
walk's step, the coordinate the Gaussian prior is on and that coordinate's
inverse, which maps the prior mean to the start. The length-scales' prior
lives on the raw coordinate, so their log-scale walk carries the
log-proposal Jacobian in the acceptance ratio and the target density is
unchanged.

Chains are deterministic given the seed: one PCG64 generator drives proposal
noise and acceptance uniforms in a fixed order.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .gp import Dataset, GPModel, log_marginal_likelihood
from .kernels import GramFactorizationError
from .metric import (SPECS, AnisotropySummary, MetricParams, Row,
                     build_metric, eigen_summary)
from .table import DataFormatError, read_table, write_table

RNG_NAME = "pcg64"

# The least value of each integer setting of ``ChainConfig``; the chain
# schema reads it too.
CHAIN_MINIMA = {"n_iters": 1, "burn_in": 0, "seed": 0, "thin": 1}

# Acceptance rates outside this window flag the run for inspection; they do
# not fail it.
ACCEPT_RATE_WINDOW = (0.05, 0.7)

_NEG_INF = float("-inf")
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class ChainInitError(RuntimeError):
    """Initial sampler state has an invalid (-inf) posterior."""


def must_be_positive(name: str) -> bool:
    """Whether a float setting must be positive: a prior's sd and each
    random-walk step are scales; only a prior's mean may take any value."""
    return not name.endswith("_mean")


def _check_positive(settings) -> None:
    for f in fields(settings):
        if must_be_positive(f.name) and not np.all(getattr(settings, f.name) > 0.0):
            raise ValueError(f"{f.name} must be positive")


@dataclass
class Priors:
    """Independent Gaussian priors: the sd, and the mean or zero, that each
    row of a :func:`layout` names, on the coordinate its move gives: log
    noise variance for the noise's row, ``_NOISE``."""

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
        _check_positive(self)


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
        _check_positive(self)


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
        for name, least in CHAIN_MINIMA.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if not self.burn_in < self.n_iters:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_iters")
        if (self.n_iters - self.burn_in) // self.thin < 1:
            raise ValueError("the chain keeps no samples: "
                             "(n_iters - burn_in) // thin must be at least 1")


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
    n_iters: int  # each iteration proposes every update group once
    fixed_noise_var: float | None

    @property
    def n_samples(self) -> int:
        return int(self.states.shape[0])

    def acceptance_rates(self) -> dict[str, float]:
        return {b: n / self.n_iters for b, n in self.accept_counts.items()}

    def rate_flags(self) -> list[str]:
        lo, hi = ACCEPT_RATE_WINDOW
        return [
            f"acceptance rate {r:.3f} for block '{b}' outside ({lo}, {hi})"
            for b, r in self.acceptance_rates().items()
            if not lo < r < hi
        ]

    def to_csv(self, path) -> None:
        """Write `iter,log_post,<params>` rows."""
        write_table(path, ["iter", "log_post"] + self.param_names,
                    [[it, lp, *row] for it, lp, row in zip(
                        self.iters.tolist(), self.log_posts.tolist(),
                        self.states.tolist())])


@dataclass
class PosteriorSummary:
    """Per-parameter posterior statistics, anisotropy and plug-in model."""

    kind: str
    params: dict[str, dict[str, float]]
    geodesic_deg: dict[str, float] | None
    anisotropy: AnisotropySummary
    posterior_mean_params: MetricParams
    posterior_mean_noise_var: float | None
    acceptance_rates: dict[str, float]
    flags: list[str]

    def to_dict(self) -> dict:
        return {**vars(self), "anisotropy": self.anisotropy.to_dict(),
                "posterior_mean_params": self.posterior_mean_params.to_dict()}


# Each move by name: its walk of x by eps, the coordinate its prior is on and
# that coordinate's inverse, and whether x must be positive. ``add`` walks
# x + eps with the prior on x; ``scale`` x * exp(eps) with the prior on log x;
# ``jacobian`` x * exp(eps) with the prior on x > 0, so the acceptance ratio
# carries the log-proposal Jacobian sum(eps). ``log`` is the noise's: it keeps
# the bytes of exp(log x + eps), which x * exp(eps) would change in the last
# bits, and takes its prior's log and its start's exp from Python's math,
# whose last bits numpy's log and exp do not always match.
_MOVES = {"add": (lambda x, eps: x + eps, np.asarray, np.asarray, False),
          "scale": (lambda x, eps: x * np.exp(eps), np.log, np.exp, True),
          "jacobian": (lambda x, eps: x * np.exp(eps), np.asarray, np.asarray,
                       True),
          "log": (lambda x, eps: np.exp(np.log(x) + eps),
                  lambda v: np.array([math.log(t) for t in v]),
                  lambda v: np.array([math.exp(t) for t in v]), True)}

_NOISE = Row("noise", "log_noise", "log", "log_noise_sd", "log_noise_mean")


@functools.cache
def layout(spec: type, sample_noise: bool) -> tuple:
    """``(slice of x, Row)`` per part of a chain row: three entries per row
    of the spec's table, in ``names`` order, then the noise variance's one
    when it is sampled."""
    parts = [(slice(3 * i, 3 * i + 3), row)
             for i, row in enumerate(spec.table.values())]
    if sample_noise:
        parts.append((slice(len(spec.names), len(spec.names) + 1), _NOISE))
    return tuple(parts)


def columns(spec: type, sample_noise: bool) -> list[str]:
    """A stored chain row's column names, in :func:`layout` order."""
    return list(spec.names) + (["noise_var"] if sample_noise else [])


def spec_for_columns(names) -> type | None:
    """The spec whose chain rows ``names`` name, or None."""
    return next((spec for spec in SPECS.values() for noise in (False, True)
                 if list(names) == columns(spec, noise)), None)


def row_params(spec: type, row, fixed_noise_var) -> tuple[MetricParams, float]:
    """``(params, noise_var)`` of a stored chain row; a column after the
    parameters holds sampled noise, else ``fixed_noise_var`` applies."""
    n = len(spec.names)
    noise_var = float(row[n]) if len(row) > n else fixed_noise_var
    return spec.from_vector(row), noise_var


def log_prior(x: np.ndarray, spec: type, priors: Priors) -> float:
    """Sum of each part's Gaussian log prior, on the coordinate its move
    gives. Returns -inf when a part is not finite, or not positive where its
    move needs it, which the sampler reads as an automatic rejection."""
    total = 0.0
    for part, row in layout(spec, x.size > len(spec.names)):
        v, (_, coord, _, positive) = x[part], _MOVES[row.move]
        if not (np.all(np.isfinite(v)) and (not positive or np.all(v > 0.0))):
            return _NEG_INF
        sd = getattr(priors, row.sd)
        z = (coord(v) - (getattr(priors, row.mean) if row.mean else 0.0)) / sd
        total += float(np.sum(-0.5 * z * z - np.log(sd) - _HALF_LOG_2PI))
    return total


def prior_mean(spec: type, priors: Priors,
               sample_noise: bool = False) -> np.ndarray:
    """The start ``x``: each part's prior mean, mapped back from its prior's
    coordinate; the identity rotation, the unit Cholesky diagonal and
    ``exp(log_noise_mean)`` among them."""
    x = np.empty(len(spec.names) + sample_noise)
    for part, row in layout(spec, sample_noise):
        mean = getattr(priors, row.mean) if row.mean else 0.0
        x[part] = _MOVES[row.move][2](np.full(part.stop - part.start, mean))
    return x


def _score(x: np.ndarray, model: GPModel, priors: Priors,
           data: Dataset | None) -> SamplerState:
    """The state at ``x``; its likelihood is -inf, uncomputed, if its prior
    is, and 0 with no data."""
    spec = type(model.params)
    lp, ll = log_prior(x, spec, priors), _NEG_INF
    if lp > _NEG_INF:
        params, noise_var = row_params(spec, x, model.noise_var)
        try:
            ll = 0.0 if data is None else log_marginal_likelihood(
                GPModel(model.profile, params, noise_var), data)
        except (GramFactorizationError, np.linalg.LinAlgError):
            pass  # unfactorizable proposals are rejected, not fatal
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
    # a move that overflows lands outside the prior's support, and is
    # rejected there
    with np.errstate(over="ignore"):
        for part, row in layout(spec, state.x.size > len(spec.names)):
            if blocks is None or row.block in blocks:
                eps = rng.normal(0.0, getattr(scales, row.step),
                                 part.stop - part.start)
                x[part] = _MOVES[row.move][0](x[part], eps)
                if row.move == "jacobian":
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
    """The state at the template parameterisation's prior-mean start."""
    return _score(prior_mean(type(model.params), priors, sample_noise),
                  model, priors, data)


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
    blocks = list(dict.fromkeys(
        row.block for _, row in layout(spec, config.sample_noise)))
    groups = ({b: [b] for b in blocks} if config.block_updates
              else {"joint": blocks})
    accept_counts = dict.fromkeys(groups, 0)

    names = columns(spec, config.sample_noise)
    n_keep = (config.n_iters - config.burn_in) // config.thin
    iters = np.empty(n_keep, dtype=np.int64)
    states = np.empty((n_keep, len(names)))
    log_posts = np.empty(n_keep)

    kept = 0
    for i in range(1, config.n_iters + 1):
        for name, group in groups.items():
            state, accepted = mh_step(state, data, model, priors, scales,
                                     rng, group)
            accept_counts[name] += accepted
        if i > config.burn_in and (i - config.burn_in) % config.thin == 0:
            iters[kept] = i
            states[kept] = state.x
            log_posts[kept] = state.log_post
            kept += 1

    assert kept == n_keep
    return Chain(kind=spec.kind, param_names=names, iters=iters, states=states,
                 log_posts=log_posts, accept_counts=accept_counts,
                 n_iters=config.n_iters,
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
    aggregates, the anisotropy summary of the row-mean metric, and the plug-in
    model: the per-column means, which differ in the last bits from the row
    mean, read as a chain row.

    Geodesic-angle statistics come from the per-sample induced rotation for
    rotational chains and are identically zero for ARD; the generic SPD
    parameterisation is summarized through the eigendecomposition only.
    """
    spec = SPECS[chain.kind]
    stats = {name: _column_stats(chain.states[:, j])
             for j, name in enumerate(chain.param_names)}

    angles = [spec.from_vector(row).rotation_deg() for row in chain.states]
    geo = None if None in angles else _column_stats(np.array(angles))

    mean_params = spec.from_vector(chain.states.mean(axis=0))
    anis = eigen_summary(build_metric(mean_params))

    plug_in, noise_mean = row_params(
        spec, [stats[name]["mean"] for name in chain.param_names], None)

    return PosteriorSummary(
        kind=chain.kind,
        params=stats,
        geodesic_deg=geo,
        anisotropy=anis,
        posterior_mean_params=plug_in,
        posterior_mean_noise_var=noise_mean,
        acceptance_rates=chain.acceptance_rates(),
        flags=chain.rate_flags(),
    )


def load_chain_csv(path) -> tuple[type, np.ndarray, np.ndarray, np.ndarray]:
    """Read a chain CSV back as (spec, iters, log_posts, states)."""
    header, rows = read_table(path)
    if header[:2] != ["iter", "log_post"]:
        raise DataFormatError(
            f"{path}: line 1: expected a header starting iter,log_post")
    if (spec := spec_for_columns(header[2:])) is None:
        raise DataFormatError(
            f"{path}: chain columns {','.join(header[2:])} match no model")
    return spec, rows[:, 0].astype(np.int64), rows[:, 1], rows[:, 2:]


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
