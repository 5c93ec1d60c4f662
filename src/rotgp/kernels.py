"""Radial kernel profiles and Gram-matrix assembly.

Kernels have unit signal amplitude: ``k(x, x) == 1`` before noise, so data
are expected to be standardized. The profile is applied to the squared
metric distance ``psi = (x - x')^T M (x - x')``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist

# Adaptive jitter: start at 1e-12 * mean(diag), grow tenfold until the
# Cholesky succeeds. Beyond this cap the configuration is treated as
# numerically degenerate rather than masked.
JITTER_CAP = 1e-4

_HALF_INTEGER_NU = (0.5, 1.5, 2.5)

# The SE profile is floored at exp(-353), about 5e-154, whose square is still
# a normal double. Past it, at psi above 706, numpy's exp gives subnormals or
# 0 through a scalar path, 15-170 times slower per entry, and dpotrf took up
# to 100 times longer on a Gram whose entries multiply to subnormals (numpy
# 2.4, OpenBLAS 0.3.30, x86-64): a chain at short length-scales, where most
# of the Gram is that far, paid both on every likelihood. The floor moves a
# log-likelihood far less than its round-off.
_SE_FLOOR = -353.0


class GramFactorizationError(RuntimeError):
    """Gram matrix could not be factorized within the jitter cap."""


@dataclass(frozen=True)
class SquaredExponential:
    """exp(-psi / 2) profile."""

    name = "se"


@dataclass(frozen=True)
class Matern:
    """Matern profile restricted to half-integer smoothness 1/2, 3/2, 5/2."""

    nu: float

    def __post_init__(self):
        if self.nu not in _HALF_INTEGER_NU:
            raise ValueError(f"nu must be one of {_HALF_INTEGER_NU}, got {self.nu}")

    name = "matern"


KernelProfile = SquaredExponential | Matern


@dataclass
class GramMatrix:
    """Kernel matrix over training inputs with noise and jitter applied,
    held as its Cholesky factor so downstream solves never refactorize.

    Only the lower triangle of ``chol_lower`` is the factor; its strict upper
    triangle still holds the Gram's off-diagonal entries, which
    ``cho_solve``, ``solve_triangular`` and ``np.diag`` never read.
    ``diagonal`` is the Gram's diagonal, ``1 + noise_var + jitter``.
    """

    jitter: float
    chol_lower: np.ndarray
    diagonal: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The full Gram, rebuilt from ``chol_lower``'s strict upper triangle
        and ``diagonal``."""
        K = np.triu(self.chol_lower, 1)
        K += K.T
        K[np.diag_indices_from(K)] = self.diagonal
        return K

    def lower_factor(self) -> np.ndarray:
        """Zero ``chol_lower``'s strict upper triangle in place and return it.

        The Gram entries kept there are lost, so ``matrix`` must not be read
        afterwards. Column by column, so no n x n temporary is formed.
        """
        C = self.chol_lower
        for j in range(1, C.shape[0]):
            C[:j, j] = 0.0
        return C


def radial_profile(profile: KernelProfile, psi, out=None):
    """Evaluate the kernel profile at squared distance(s) ``psi``.

    Accepts scalars or arrays; returns values in (0, 1] with
    ``radial_profile(p, 0) == 1`` for every profile, the SE profile floored
    at ``exp(_SE_FLOOR)``. An array ``out`` of
    ``psi``'s shape receives the result and may be ``psi`` itself.
    """
    psi_arr = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty_like(psi_arr)
    if isinstance(profile, SquaredExponential):
        np.multiply(psi_arr, -0.5, out=out)
        if out.min(initial=0.0) < _SE_FLOOR:  # cheaper than a clamp pass
            np.maximum(out, _SE_FLOOR, out=out)
        np.exp(out, out=out)
    else:
        r = np.multiply(psi_arr, 2.0 * profile.nu, out=out)
        np.sqrt(r, out=r)
        if profile.nu == 0.5:
            np.negative(r, out=r)
            np.exp(r, out=r)
        else:
            decay = np.exp(-r)
            if profile.nu == 2.5:
                r2_3 = np.multiply(r, r)
                r2_3 /= 3.0
                r += 1.0
                r += r2_3
            else:
                r += 1.0
            r *= decay
    if np.ndim(psi) == 0:
        return float(out)
    return out


def profile_slope(profile: KernelProfile, psi) -> np.ndarray:
    """The slope dk/dpsi of :func:`radial_profile` at the array ``psi``.

    With r = sqrt(2 nu psi), a Matern profile's slope is (dk/dr) nu / r:
    -exp(-r) / (2 r), -3/2 exp(-r) and -5/6 (1 + r) exp(-r) for nu = 1/2,
    3/2 and 5/2. Matern 1/2's is infinite at psi = 0 and given as 0 there:
    a pair at psi = 0 has d d^T = 0, so it adds nothing to a metric
    gradient. The SE profile's is -k/2 of its floored value.
    """
    psi = np.asarray(psi, dtype=float)
    if isinstance(profile, SquaredExponential):
        return -0.5 * radial_profile(profile, psi)
    r = np.sqrt(2.0 * profile.nu * psi)
    decay = np.exp(-r)
    if profile.nu == 0.5:
        return np.divide(-0.5 * decay, r, out=np.zeros_like(r), where=r > 0.0)
    if profile.nu == 1.5:
        return -1.5 * decay
    return (-5.0 / 6.0) * (1.0 + r) * decay


def _pairwise_sq_dist(M: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # psi_ij = ||L^T (a_i - b_j)||^2 with M = L L^T. cdist sums the squared
    # whitened coordinate differences in coordinate order: each difference is
    # exact, so coincident points give psi = 0, psi >= 0, and a Gram's psi is
    # exactly symmetric.
    L = np.linalg.cholesky(M)
    Wa = A @ L
    return cdist(Wa, Wa if B is A else B @ L, "sqeuclidean")


def cholesky(K: np.ndarray) -> np.ndarray:
    """Factor the symmetric C-ordered ``K`` in place and return the factor.

    The result is ``K.T``: its lower triangle is the lower Cholesky factor,
    written over ``K``'s upper triangle, and its strict upper triangle is
    ``K``'s strict lower triangle, left as it was. Raises ``LinAlgError``
    when ``K`` is not positive definite; the factor triangle is then partly
    overwritten.
    """
    C, info = dpotrf(K.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise LinAlgError(f"dpotrf failed with info={info}")
    return C


def gram(profile: KernelProfile, M, X, noise_var: float) -> GramMatrix:
    """Kernel matrix over ``X`` with noise variance and adaptive jitter.

    Raises :class:`GramFactorizationError` if the Cholesky still fails at the
    jitter cap; samplers treat that as a rejected proposal.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs must be finite")
    if noise_var < 0.0:
        raise ValueError("noise_var must be non-negative")
    M = np.asarray(M, dtype=float)
    K = _pairwise_sq_dist(M, X, X)
    radial_profile(profile, K, out=K)
    diag = K.reshape(-1)[:: K.shape[0] + 1]
    diag += noise_var

    base = 1e-12 * float(np.mean(diag))
    clean = diag.copy()
    jitter = 0.0
    while True:
        try:
            C = cholesky(K)
            return GramMatrix(jitter=jitter, chol_lower=C,
                              diagonal=clean + jitter)
        except LinAlgError:
            jitter = base if jitter == 0.0 else 10.0 * jitter
            if jitter > JITTER_CAP:
                raise GramFactorizationError(
                    f"Cholesky failed at jitter cap {JITTER_CAP:g} "
                    f"(n={K.shape[0]}, noise_var={noise_var:g})"
                ) from None
            # the failed factorization overwrote part of the upper triangle;
            # the strict lower triangle still holds the Gram
            for j in range(K.shape[0] - 1):
                K[j, j + 1:] = K[j + 1:, j]
            np.add(clean, jitter, out=diag)


def cross_gram(profile: KernelProfile, M, X_test, X_train) -> np.ndarray:
    """Kernel values between test and training inputs; no noise, no jitter."""
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if not (np.all(np.isfinite(X_test)) and np.all(np.isfinite(X_train))):
        raise ValueError("inputs must be finite")
    M = np.asarray(M, dtype=float)
    psi = _pairwise_sq_dist(M, X_test, X_train)
    return radial_profile(profile, psi, out=psi)
