"""Metropolis-Hastings over metric parameters.

The sampler is generic. Its state lives in walk coordinates ``u``, which
map to a stored chain row ``x`` (:func:`columns`): x = exp(u) where x must
be positive, x = u elsewhere. Only this module reads that row, maps it to a
model (:func:`row_params`) and summarises it. :func:`layout` pairs each part
of the row with the ``metric.Row`` that governs it: the spec's table
declares one per field (see :mod:`rotgp.metric`), and the noise's is this
module's own ``_NOISE``. A row's move (``_MOVES``) says whether its part is
positive, and gives the coordinate its Gaussian prior is on and that
coordinate's inverse, which maps the prior mean to the start.

Each kernel proposes a u' with its log proposal ratio, and one
:func:`mh_step` accepts it or not, on one target: the posterior's log
density in u (:attr:`SamplerState.log_target`). The chain stores x and the
log posterior at x, without the Jacobian.

A chain with data whose burn-in adapts first climbs to a posterior mode
and starts there (:func:`_climb`), so its stored rows are not spent on the
climb: one BFGS loop (:func:`_bfgs`) runs on a subset of the data to
``CLIMB_TOL``, then on all of it to ``NEWTON_TOL`` (:func:`_fit_mode`).
Where the fit to the posterior at that mode converges, each iteration draws
its proposal afresh from it: an independence Metropolis-Hastings kernel
(:class:`_Laplace`), kept if it accepts enough of the first half of
burn-in. Every other chain walks: each iteration moves the whole of u by
one Gaussian step, burn-in learns that step's covariance (:class:`_Walk`),
and the stored chain is plain Metropolis-Hastings with the walk frozen at
the end of burn-in.

Chains are deterministic given the seed: one PCG64 generator drives proposal
noise and acceptance uniforms in a fixed order, and the climb draws none.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .gp import (Dataset, GPModel, log_marginal_likelihood,
                 log_marginal_likelihood_and_grad)
from .kernels import GramFactorizationError
from .metric import (SPECS, AnisotropySummary, InvalidParamsError,
                     MetricParams, Row, build_metric, eigen_summary)
from .table import DataFormatError, read_table, write_table

RNG_NAME = "pcg64"

# The least value of each integer setting of ``ChainConfig``; the chain
# schema reads it too.
CHAIN_MINIMA = {"n_iters": 1, "burn_in": 0, "seed": 0, "thin": 1}

# Acceptance rates outside this window flag the run for inspection; they do
# not fail it.
ACCEPT_RATE_WINDOW = (0.05, 0.7)

# Burn-in adapts the walk towards this acceptance rate, and re-estimates its
# covariance every ADAPT_EVERY iterations (see _Walk).
TARGET_ACCEPT = 0.234
ADAPT_EVERY = 25

# The climb to a start (see _climb) searches on every ceil(n / CLIMB_POINTS)-th
# training point. It starts BFGS (see _bfgs) from the best of the prior-mean
# start and the isotropic metrics ell^-2 I over CLIMB_GRID, and stops after
# CLIMB_EVALS evaluations, or once the Newton decrement g^T H g is below
# CLIMB_TOL: tighter than the mode fit's NEWTON_TOL, since searches stopped
# there left some fits too far from the mode to converge.
CLIMB_POINTS = 150
CLIMB_GRID = np.geomspace(0.02, 5.0, 16)
CLIMB_EVALS = 20
CLIMB_TOL = 1e-2
# In walk coordinates: BFGS's longest step, and its longest while it has no
# curvature to scale the step by; and the central differences' step.
_MAX_STEP = 1.0
_FIRST_STEP = 0.25
_FD_STEP = 1e-5

# The climb then fits the posterior at its mode on all the data (see
# _fit_mode): a forward-difference Hessian of the gradient with steps of
# HESSIAN_STEP starts BFGS, which has converged once its Newton decrement
# g^T H g is below NEWTON_TOL, within MODE_EVALS evaluations after its start;
# the same difference at its end gives the fit's Hessian. The independence
# kernel (see _Laplace) then proposes from that fit: a multivariate t with
# LAPLACE_NU degrees of freedom, LAPLACE_SCALE times as wide. A chain whose
# kernel accepts less than LAPLACE_MIN_ACCEPT of the first half of burn-in
# walks from there on (see run_chain).
HESSIAN_STEP = 1e-4
NEWTON_TOL = 0.1
MODE_EVALS = 15
LAPLACE_NU = 6
LAPLACE_SCALE = 1.2
LAPLACE_MIN_ACCEPT = 0.2

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
    """Starting random-walk standard deviations, one per ``Row.step``: the
    diagonal that burn-in adapts from, and falls back to (see
    :class:`_Walk`)."""

    log_lengthscale: float = 0.05
    axis_angle: float = 0.03
    spd: float = 0.05
    log_noise: float = 1.0

    def __post_init__(self):
        _check_positive(self)


@dataclass
class ChainConfig:
    """Chain length, burn-in, thinning, seed, and whether the noise is
    sampled."""

    n_iters: int = 20_000
    burn_in: int = 10_000
    seed: int = 0
    thin: int = 5
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
    """The walk coordinates ``u``, the chain row ``x`` they map to, and the
    cached log-likelihood, log prior and log Jacobian of x in u."""

    u: np.ndarray
    x: np.ndarray
    log_lik: float
    log_prior: float
    log_jacobian: float

    @property
    def log_post(self) -> float:
        """The log posterior at x, as the chain stores it."""
        return self.log_lik + self.log_prior

    @property
    def log_target(self) -> float:
        """The posterior's log density in u, which every kernel samples."""
        return self.log_post + self.log_jacobian


@dataclass
class Chain:
    """Stored post-burn-in, thinned samples plus acceptance bookkeeping."""

    kind: str
    param_names: list[str]
    iters: np.ndarray
    states: np.ndarray
    log_posts: np.ndarray
    accepted: int
    n_iters: int  # each iteration proposes one joint move
    fixed_noise_var: float | None
    start: dict | None = None  # the climb's record (see _climb), if it ran

    @property
    def n_samples(self) -> int:
        return int(self.states.shape[0])

    @property
    def kernel(self) -> str:
        """``"laplace"`` or ``"walk"``: the kernel that ran the stored rows,
        as ``start`` records it; the walk where no climb ran."""
        return "walk" if self.start is None else self.start["kernel"]

    def acceptance_rates(self) -> dict[str, float]:
        return {"joint": self.accepted / self.n_iters}

    def rate_flags(self) -> list[str]:
        """The rates outside ``ACCEPT_RATE_WINDOW``, and a chain whose stored
        rows all hold one state. An independence proposal close to the
        posterior accepts most of its draws, so the laplace kernel is
        flagged only below the trial's least rate, ``LAPLACE_MIN_ACCEPT``:
        having passed its trial, it stuck later. It can also stick after
        the trial while its overall rate stays above that, which only the
        stored rows show."""
        lo, hi = ACCEPT_RATE_WINDOW
        if self.kernel == "laplace":
            lo, hi = LAPLACE_MIN_ACCEPT, math.inf
        flags = [
            f"acceptance rate {r:.3f} of the {self.kernel} kernel outside "
            f"({lo}, {hi})"
            for r in self.acceptance_rates().values() if not lo < r < hi
        ]
        if self.n_samples >= 2 and np.all(self.states == self.states[0]):
            flags.append(f"all {self.n_samples} stored rows of the "
                         f"{self.kernel} kernel hold one state")
        return flags

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
    start: dict | None

    def to_dict(self) -> dict:
        return {**vars(self), "anisotropy": self.anisotropy.to_dict(),
                "posterior_mean_params": self.posterior_mean_params.to_dict()}


# Each move by name: the coordinate its prior is on, that coordinate's
# inverse, and whether x must be positive, so that u = log x. ``add`` has its
# prior on x = u, ``scale`` on log x = u, and ``jacobian`` on x = exp(u), so
# the target in u carries the log Jacobian sum(u) (SamplerState.log_target).
_MOVES = {"add": (np.asarray, np.asarray, False),
          "scale": (np.log, np.exp, True),
          "jacobian": (np.asarray, np.asarray, True)}

_NOISE = Row("log_noise", "scale", "log_noise_sd", "log_noise_mean")


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


@functools.cache
def _masks(spec: type, sample_noise: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate of a chain row, in :func:`layout` order: whether it
    must be positive, so that u = log x, and whether its move is
    ``jacobian``. Cached, so every caller shares them: index, never write."""
    moves = np.array([row.move for part, row in layout(spec, sample_noise)
                      for _ in range(part.start, part.stop)])
    return np.array([_MOVES[move][2] for move in moves]), moves == "jacobian"


def _to_walk(x: np.ndarray, spec: type) -> np.ndarray:
    """The walk coordinates of the row ``x``; not finite off its support."""
    positive = _masks(spec, x.size > len(spec.names))[0]
    u = x.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        u[positive] = np.log(x[positive])
    return u


def _from_walk(u: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """The chain rows at walk coordinates ``u``, one per row of ``u``; one
    that overflows lands outside the prior's support."""
    x = u.copy()
    with np.errstate(over="ignore"):
        x[..., positive] = np.exp(u[..., positive])
    return x


def _log_densities(x: np.ndarray, spec: type, priors: Priors) -> list | None:
    """Each part's elementwise Gaussian log prior densities, on the
    coordinate its move gives; None when a part is not finite, or not
    positive where its move needs it."""
    densities = []
    for part, row in layout(spec, x.size > len(spec.names)):
        v, (coord, _, positive) = x[part], _MOVES[row.move]
        if not (np.all(np.isfinite(v)) and (not positive or np.all(v > 0.0))):
            return None
        sd = getattr(priors, row.sd)
        z = (coord(v) - (getattr(priors, row.mean) if row.mean else 0.0)) / sd
        densities.append(-0.5 * z * z - np.log(sd) - _HALF_LOG_2PI)
    return densities


def log_prior(x: np.ndarray, spec: type, priors: Priors) -> float:
    """Sum of each part's Gaussian log prior, on the coordinate its move
    gives. Returns -inf when a part is not finite, or not positive where its
    move needs it, which the sampler reads as an automatic rejection."""
    densities = _log_densities(x, spec, priors)
    if densities is None:
        return _NEG_INF
    total = 0.0
    for d in densities:
        total += float(np.sum(d))
    return total


def prior_mean(spec: type, priors: Priors,
               sample_noise: bool = False) -> np.ndarray:
    """The start ``x``: each part's prior mean, mapped back from its prior's
    coordinate; the identity rotation, the unit Cholesky diagonal and
    ``exp(log_noise_mean)`` among them."""
    x = np.empty(len(spec.names) + sample_noise)
    for part, row in layout(spec, sample_noise):
        mean = getattr(priors, row.mean) if row.mean else 0.0
        x[part] = _MOVES[row.move][1](np.full(part.stop - part.start, mean))
    return x


def _score(u: np.ndarray, model: GPModel, priors: Priors,
           data: Dataset | None, x: np.ndarray | None = None) -> SamplerState:
    """The state at walk coordinates ``u``, whose chain row ``x`` is
    computed from them unless given; its likelihood is -inf, uncomputed, if
    its prior is, and 0 with no data."""
    spec = type(model.params)
    positive, jacobian = _masks(spec, u.size > len(spec.names))
    if x is None:
        x = _from_walk(u, positive)
    lp, ll, jac = log_prior(x, spec, priors), _NEG_INF, 0.0
    if lp > _NEG_INF:
        jac = float(np.sum(u[jacobian]))
        params, noise_var = row_params(spec, x, model.noise_var)
        try:
            ll = 0.0 if data is None else log_marginal_likelihood(
                GPModel(model.profile, params, noise_var), data)
        except (GramFactorizationError, np.linalg.LinAlgError,
                InvalidParamsError):
            pass  # unfactorizable proposals are rejected, not fatal
    return SamplerState(u, x, ll, lp, jac)


def mh_step(state: SamplerState, u: np.ndarray, log_q_ratio: float,
            data: Dataset | None, model: GPModel, priors: Priors,
            rng: np.random.Generator) -> tuple[SamplerState, bool]:
    """One Metropolis-Hastings update of the whole state to the proposal at
    walk coordinates ``u``, with log proposal ratio ``log_q_ratio``,
    log q(state.u | u) - log q(u | state.u). A proposal whose prior is -inf
    or whose Gram matrix cannot be factorized is rejected without drawing
    a uniform."""
    new = _score(u, model, priors, data)
    if new.log_post == _NEG_INF:
        return state, False
    log_alpha = new.log_target - state.log_target + log_q_ratio
    if rng.uniform() < math.exp(min(log_alpha, 0.0)):
        return new, True
    return state, False


class _Walk:
    """The chain's step covariance in walk coordinates, learnt during
    burn-in (Haario, Saksman & Tamminen 2001) and then frozen (Andrieu &
    Thoms 2008).

    :meth:`learn` runs after each burn-in iteration. A Robbins-Monro factor
    ``exp(log_scale)`` moves the acceptance towards ``TARGET_ACCEPT`` at
    every one. Every ``ADAPT_EVERY`` iterations, and at the end of burn-in,
    the covariance is re-estimated as (2.38^2 / d) times that of a recent
    window, plus a small ridge, and the factor restarts at 1, because the
    window's spread already carries the step's size. The window is the
    latest quarter of the burn-in so far, and at least its latest
    ``2 * ADAPT_EVERY`` states: short enough to follow a chain that is still
    climbing, long enough to be stationary at the end of a long burn-in. A
    window with fewer than 2 d distinct states, or whose covariance is not
    positive definite, gives the starting diagonal of ``ProposalScales``
    instead. A burn-in shorter than ``ADAPT_EVERY`` adapts nothing.
    """

    def __init__(self, parts: tuple, scales: ProposalScales, burn_in: int):
        self.steps = np.array([getattr(scales, row.step) for part, row in parts
                               for _ in range(part.start, part.stop)], float)
        self.burn_in = burn_in if burn_in >= ADAPT_EVERY else 0
        self.states = np.empty((self.burn_in, len(self.steps)))
        self.cov_factor = np.diag(self.steps)
        self.log_scale = 0.0

    def propose(self, state: SamplerState, rng: np.random.Generator
                ) -> tuple[np.ndarray, float]:
        """``state.u`` plus a step ``factor @ z``, z standard normal, and the
        symmetric walk's log proposal ratio, 0."""
        factor = math.exp(self.log_scale) * self.cov_factor
        return state.u + factor @ rng.normal(0.0, 1.0, len(factor)), 0.0

    def learn(self, i: int, accepted: bool, u: np.ndarray) -> None:
        """Adapt to burn-in iteration ``i`` (from 1), which left the chain
        at walk coordinates ``u``."""
        if i > self.burn_in:
            return
        self.states[i - 1] = u
        self.log_scale += (accepted - TARGET_ACCEPT) * i ** -0.6
        if i % ADAPT_EVERY == 0 or i == self.burn_in:
            window = self.states[max(0, i - max(2 * ADAPT_EVERY, i // 4)):i]
            self.cov_factor = self._estimate(window)
            self.log_scale = 0.0

    def _estimate(self, window: np.ndarray) -> np.ndarray:
        d = window.shape[1]
        # proposals are continuous, so a chain never returns to a state
        moves = np.count_nonzero(np.any(window[1:] != window[:-1], axis=1))
        if 1 + moves >= 2 * d:
            cov = np.atleast_2d(np.cov(window, rowvar=False)) * (2.38 ** 2 / d)
            try:
                return np.linalg.cholesky(cov + 1e-10 * np.eye(d))
            except np.linalg.LinAlgError:
                pass
        return np.diag(self.steps)


def initial_state(model: GPModel, priors: Priors, data: Dataset | None,
                  sample_noise: bool = False) -> SamplerState:
    """The state at the template parameterisation's prior-mean start."""
    spec = type(model.params)
    x = prior_mean(spec, priors, sample_noise)
    return _score(_to_walk(x, spec), model, priors, data, x)


def _log_target(u: np.ndarray, model: GPModel, priors: Priors, data: Dataset):
    """The climb's objective at walk coordinates ``u``, and its gradient:
    the chain's target there (:attr:`SamplerState.log_target`).
    ``(-inf, None)`` where the state is outside the prior, its metric or
    Gram fails, or a result is not finite.

    The likelihood's gradient goes through the metric: each coordinate's
    dM/du is a central difference of ``metric()``, and the noise's is
    dL/dnoise_var * noise_var. The log prior is a sum of one density per
    coordinate, so one central difference of all of them at once gives its
    gradient. Neither costs a likelihood.
    """
    spec = type(model.params)
    n = len(spec.names)
    positive, jacobian = _masks(spec, u.size > n)
    # each metric coordinate's step up and down, and every coordinate's at once
    steps = _FD_STEP * np.vstack([np.eye(u.size)[:n], np.ones(u.size)])
    with np.errstate(over="ignore", invalid="ignore"):
        x, ups, downs = (_from_walk(v, positive)
                         for v in (u, u + steps, u - steps))
        prior = log_prior(x, spec, priors)
        if prior == _NEG_INF:
            return _NEG_INF, None
        try:
            params, noise_var = row_params(spec, x, model.noise_var)
            value, grad_M, grad_noise = log_marginal_likelihood_and_grad(
                GPModel(model.profile, params, noise_var), data)
            dM = np.array([spec.from_vector(up).metric()
                           - spec.from_vector(down).metric()
                           for up, down in zip(ups[:n], downs[:n])])
        except (GramFactorizationError, np.linalg.LinAlgError,
                InvalidParamsError):
            return _NEG_INF, None
        up, down = (_log_densities(v[n], spec, priors) for v in (ups, downs))
        if up is None or down is None:
            return _NEG_INF, None
        grad = np.concatenate(up) - np.concatenate(down)
        grad[:n] += np.einsum("kij,ij->k", dM, grad_M)
        grad /= 2.0 * _FD_STEP
        grad[n:] += grad_noise * noise_var
    grad += jacobian
    value += prior + float(np.sum(u[jacobian]))
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        return _NEG_INF, None
    return value, grad


def _bfgs_update(H: np.ndarray | None, s: np.ndarray, y: np.ndarray
                 ) -> np.ndarray | None:
    """The BFGS inverse Hessian after the step ``s`` changed the gradient by
    ``y`` (N&W eq. 6.17); ``H`` as it was where s^T y shows no curvature. A
    first step sizes a missing ``H`` (N&W eq. 6.20)."""
    sy = float(s @ y)
    if sy <= 0.0:
        return H
    eye = np.eye(s.size)
    if H is None:
        H = sy / float(y @ y) * eye
    V = eye - np.outer(s, y) / sy
    return V @ H @ V.T + np.outer(s, s) / sy


def _bfgs(fun, u: np.ndarray, value: float, grad: np.ndarray | None,
          H: np.ndarray | None, max_evals: int, tol: float):
    """Minimise ``fun(u) -> (value, grad)`` from ``u``, where it gave
    ``value`` and ``grad``, by BFGS from the inverse Hessian ``H`` or None,
    with Armijo backtracking (Nocedal & Wright 2006, ch. 6, alg. 3.1). A
    step is at most ``_MAX_STEP`` long, or ``_FIRST_STEP`` where no H scales
    it: from None, or down the gradient where H gives no descent. A failed
    evaluation, +inf, backtracks, or at ``u`` takes no step. BFGS has
    converged once g^T H g is below ``tol``, H being the one given or one
    updated after a step it scaled: an unscaled step may have crossed a
    valley. Returns the last point accepted, its gradient, the evaluations
    made (at most ``max_evals``), and H if BFGS converged, else None."""
    eye, evals, scaled = np.eye(u.size), 0, H is not None
    while grad is not None:
        if scaled and float(grad @ H @ grad) < tol:
            return u, grad, evals, H
        if evals == max_evals:
            break
        p = -(eye if H is None else H) @ grad
        if not grad @ p < 0.0:  # not a descent direction: restart
            H, p = None, -grad
        scaled = H is not None
        p *= min(1.0, (_MAX_STEP if scaled else _FIRST_STEP)
                 / float(np.linalg.norm(p)))
        t = 1.0
        while True:
            new_value, new_grad = fun(u + t * p)
            evals += 1
            if new_value <= value + 1e-4 * t * float(grad @ p):
                break
            if evals == max_evals:
                return u, grad, evals, None
            t *= 0.5
        s = t * p
        H = _bfgs_update(H, s, new_grad - grad)
        u, value, grad = u + s, new_value, new_grad
    return u, grad, evals, None


def _fd_hessian(fun, u: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """The forward-difference Hessian at ``u`` of ``fun``'s gradient, which
    is ``grad`` there: d more gradients, with steps of ``HESSIAN_STEP``,
    symmetrised. None if one of them fails."""
    rows = [fun(u + HESSIAN_STEP * e)[1] for e in np.eye(u.size)]
    if any(g is None for g in rows):
        return None
    hess = (np.array(rows) - grad) / HESSIAN_STEP
    return 0.5 * (hess + hess.T)


def _fit_mode(fun, u: np.ndarray):
    """Newton-started BFGS (:func:`_bfgs`) on the full data from ``u``, and
    the Laplace fit at its end. BFGS starts from the inverse of the
    forward-difference Hessian (:func:`_fd_hessian`) at ``u``, with its
    eigenvalues made positive by their absolute values. It must converge to
    ``NEWTON_TOL`` within ``MODE_EVALS`` more evaluations, with its H
    positive definite. The fit is the inverse of the forward-difference
    Hessian at the end point, taken afresh if BFGS stepped. Returns the
    last point accepted, the number of evaluations, and the fit if BFGS
    converged and it is positive definite, else None."""
    value, grad = fun(u)
    if grad is None:
        return u, 1, None
    start, hess = u, _fd_hessian(fun, u, grad)
    evals = 1 + u.size
    if hess is None:
        return u, evals, None
    w, V = np.linalg.eigh(hess)
    w = np.abs(w)
    if not np.all(w > 0.0):
        return u, evals, None
    u, grad, steps, H = _bfgs(fun, u, value, grad, (V / w) @ V.T,
                              MODE_EVALS, NEWTON_TOL)
    evals += steps
    if H is None:
        return u, evals, None
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return u, evals, None
    if u is not start:  # the start's Hessian carries another point's curvature
        hess = _fd_hessian(fun, u, grad)
        evals += u.size
        if hess is None:
            return u, evals, None
    w, V = np.linalg.eigh(hess)
    if not np.all(w > 0.0):
        return u, evals, None
    return u, evals, (V / w) @ V.T


def _climb(start: SamplerState, model: GPModel, priors: Priors,
           data: Dataset) -> tuple[SamplerState, dict, "_Laplace | None"]:
    """The state a chain starts at: the prior-mean ``start``, or a
    posterior mode if that scores higher on ``data``; the record
    ``summary.json`` keeps as ``start``; and the independence kernel that
    proposes from the fit at the mode, or None if the chain walks.

    The search first runs on every ``ceil(n / CLIMB_POINTS)``-th point of
    ``data``, on :func:`_log_target` in the coordinates the chain walks. Of
    ``start`` and the isotropic metrics ``ell^-2 I`` over ``CLIMB_GRID``
    (with ``start``'s noise), BFGS starts from the one that scores highest
    there. From its end, :func:`_fit_mode` climbs on all of ``data``; if it
    converges, the chain proposes from its fit (:class:`_Laplace`). It
    draws no random numbers.
    """
    spec = type(model.params)
    step = -(-data.n // CLIMB_POINTS)
    subset = Dataset(data.X[::step], data.y[::step])

    def minus(u, on=subset):
        value, grad = _log_target(u, model, priors, on)
        return (math.inf, None) if grad is None else (-value, -grad)

    def score(x):  # the objective's value alone
        value = _score(_to_walk(x, spec), model, priors, subset, x).log_target
        return value if value == value else _NEG_INF  # nan fails too

    noise = start.x[len(spec.names):]
    candidates = [start.x] + [
        np.concatenate([spec.isotropic(ell).to_vector(), noise])
        for ell in CLIMB_GRID]
    u = _to_walk(max(candidates, key=score), spec)
    u, _, evals, _ = _bfgs(minus, u, *minus(u), None, CLIMB_EVALS - 1,
                           CLIMB_TOL)
    u, gradients, H = _fit_mode(functools.partial(minus, on=data), u)
    end = _score(u, model, priors, data)
    chosen = end if end.log_post > start.log_post else start
    laplace = None if H is None else _Laplace(u, H)
    record = {"prior_mean_log_post": start.log_post,
              "log_post": chosen.log_post, "bfgs_evaluations": 1 + evals,
              "full_data_gradients": gradients,
              "kernel": "walk" if laplace is None else "laplace"}
    return chosen, record, laplace


class _Laplace:
    """The independence Metropolis-Hastings kernel (Tierney 1994): every
    proposal is drawn afresh, in walk coordinates, as
    ``mode + LAPLACE_SCALE * chol(H) z`` with z multivariate t with
    ``LAPLACE_NU`` degrees of freedom, where ``H`` is the inverse Hessian of
    the posterior at its ``mode``. A proposal u' from the state u is
    accepted with probability min(1, pi(u') q(u) / (pi(u) q(u'))), with pi
    the chain's target (:attr:`SamplerState.log_target`) and q the
    proposal's density. Its heavy tails bound that ratio where the
    posterior's tails are a little wider than the fit's; where the fit
    misses part of the posterior, a draw there can hold the chain for many
    iterations.
    """

    def __init__(self, mode: np.ndarray, H: np.ndarray):
        self.mode = mode
        self.factor = LAPLACE_SCALE * np.linalg.cholesky(H)
        # (u, log q) of the state last proposed from, and of the proposal
        self._current = self._proposed = (None, 0.0)

    @staticmethod
    def _log_q(z: np.ndarray) -> float:
        """log q, up to a constant, at ``mode + factor z``."""
        return -0.5 * (LAPLACE_NU + z.size) * math.log1p(z @ z / LAPLACE_NU)

    def propose(self, state: SamplerState, rng: np.random.Generator
                ) -> tuple[np.ndarray, float]:
        """A fresh draw u', and its log proposal ratio log q(u) - log q(u')
        from ``state``'s u. The log q of a state the kernel proposed is
        kept; only another one, such as the chain's start, is solved for."""
        if state.u is self._proposed[0]:
            self._current = self._proposed
        elif state.u is not self._current[0]:
            self._current = (state.u, self._log_q(np.linalg.solve(
                self.factor, state.u - self.mode)))
        z = rng.standard_normal(self.mode.size) * math.sqrt(
            LAPLACE_NU / rng.chisquare(LAPLACE_NU))
        self._proposed = (self.mode + self.factor @ z, self._log_q(z))
        return self._proposed[0], self._current[1] - self._proposed[1]


def run_chain(config: ChainConfig, data: Dataset | None, model: GPModel,
              priors: Priors, scales: ProposalScales) -> Chain:
    """Run a single Metropolis-Hastings chain; deterministic given the
    config seed.

    ``model`` is a template: its ``params`` field selects the
    parameterisation, its ``profile`` and ``noise_var`` are used as given
    (noise_var is ignored when ``config.sample_noise``). ``data=None``
    samples the prior (constant likelihood). A chain with data whose
    burn-in adapts starts where :func:`_climb` puts it, and runs the
    independence kernel it returns, if any (:class:`_Laplace`), for the
    first half of burn-in. If that accepted at least ``LAPLACE_MIN_ACCEPT``
    of its proposals, the kernel runs to the end; otherwise the chain walks
    from there. Other chains start at the prior mean and walk throughout.
    A walk takes ``scales`` as its starting steps, and the burn-in it runs
    adapts it (:class:`_Walk`), so adaptation costs no likelihood.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    spec = type(model.params)
    state = initial_state(model, priors, data, config.sample_noise)
    if not np.isfinite(state.log_post):
        raise ChainInitError(
            f"initial state has invalid posterior (log_lik={state.log_lik}, "
            f"log_prior={state.log_prior})")
    start = laplace = None
    if data is not None and config.burn_in >= ADAPT_EVERY:
        state, start, laplace = _climb(state, model, priors, data)

    # the independence kernel's trial: the first half of burn-in
    trial = 0 if laplace is None else config.burn_in // 2
    walk = _Walk(layout(spec, config.sample_noise), scales,
                 config.burn_in - trial)
    accepted = 0
    names = columns(spec, config.sample_noise)
    n_keep = (config.n_iters - config.burn_in) // config.thin
    iters = np.empty(n_keep, dtype=np.int64)
    states = np.empty((n_keep, len(names)))
    log_posts = np.empty(n_keep)

    kept = 0
    for i in range(1, config.n_iters + 1):
        state, moved = mh_step(state, *(laplace or walk).propose(state, rng),
                               data, model, priors, rng)
        if laplace is None:
            walk.learn(i - trial, moved, state.u)
        # a fit far from the posterior accepts little, and sticks
        elif i == trial and accepted + moved < LAPLACE_MIN_ACCEPT * trial:
            laplace, start["kernel"] = None, "walk"
        accepted += moved
        if i > config.burn_in and (i - config.burn_in) % config.thin == 0:
            iters[kept] = i
            states[kept] = state.x
            log_posts[kept] = state.log_post
            kept += 1

    assert kept == n_keep
    return Chain(kind=spec.kind, param_names=names, iters=iters, states=states,
                 log_posts=log_posts, accepted=accepted,
                 n_iters=config.n_iters, start=start,
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
        start=chain.start,
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
