"""Radial kernel profiles and Gram-matrix assembly.

Kernels have unit signal amplitude: ``k(x, x) == 1`` before noise, so data
are expected to be standardized. The profile is applied to the squared
metric distance ``psi = (x - x')^T M (x - x')``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky

# Adaptive jitter: start at 1e-12 * mean(diag), grow tenfold until the
# Cholesky succeeds. Beyond this cap the configuration is treated as
# numerically degenerate rather than masked.
JITTER_CAP = 1e-4

_HALF_INTEGER_NU = (0.5, 1.5, 2.5)


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
    """Kernel matrix over training inputs with noise and jitter applied.

    ``matrix`` already carries ``noise_var + jitter`` on the diagonal and
    ``chol_lower`` is its lower Cholesky factor, so downstream solves never
    refactorize.
    """

    matrix: np.ndarray
    jitter: float
    chol_lower: np.ndarray


def radial_profile(profile: KernelProfile, psi, out=None):
    """Evaluate the kernel profile at squared distance(s) ``psi``.

    Accepts scalars or arrays; returns values in (0, 1] with
    ``radial_profile(p, 0) == 1`` for every profile. An array ``out`` of
    ``psi``'s shape receives the result and may be ``psi`` itself.
    """
    psi_arr = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty_like(psi_arr)
    if isinstance(profile, SquaredExponential):
        np.multiply(psi_arr, -0.5, out=out)
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


def _pairwise_sq_dist(M: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # psi_ij = ||L^T (a_i - b_j)||^2 with M = L L^T, summed one whitened
    # coordinate at a time: each difference is exact, so coincident points
    # give psi = 0 and psi >= 0, and no (na, nb, 3) temporary is formed.
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
            C = cholesky(K, lower=True, check_finite=False)
            return GramMatrix(matrix=K, jitter=jitter, chol_lower=C)
        except LinAlgError:
            jitter = base if jitter == 0.0 else 10.0 * jitter
            if jitter > JITTER_CAP:
                raise GramFactorizationError(
                    f"Cholesky failed at jitter cap {JITTER_CAP:g} "
                    f"(n={K.shape[0]}, noise_var={noise_var:g})"
                ) from None
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
