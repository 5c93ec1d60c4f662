"""Exact GP regression: log marginal likelihood and closed-form prediction.

Everything goes through one Cholesky factorization of the training Gram
matrix per call; only the gradient forms an explicit inverse, from that
factor. The prior mean is zero and the signal amplitude is fixed at one, so
outputs are assumed centred and scaled by the caller.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri

from .kernels import (KernelProfile, _pairwise_sq_dist, cross_gram, gram,
                      profile_slope)
from .metric import MetricParams, build_metric

LOG_2PI = float(np.log(2.0 * np.pi))

# Test points per block of ``predict``; see its docstring.
PREDICT_BLOCK = 128


@dataclass
class Dataset:
    """Training or test data: 3D inputs and scalar outputs."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.X.ndim != 2 or self.X.shape[1] != 3:
            raise ValueError(f"X must be (n, 3), got {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("X and y lengths do not match")
        if self.X.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class GPModel:
    """Kernel profile, metric parameterisation, and observation noise."""

    profile: KernelProfile
    params: MetricParams
    noise_var: float = 0.0

    def __post_init__(self):
        self.noise_var = float(self.noise_var)
        if not (np.isfinite(self.noise_var) and self.noise_var >= 0.0):
            raise ValueError("noise_var must be finite and non-negative")


@dataclass
class PredictiveResult:
    """Posterior predictive mean and variance (noise included) per point."""

    mean: np.ndarray
    var: np.ndarray


def _solve(model: GPModel, data: Dataset):
    """The log marginal likelihood, with the metric, Gram factor and
    ``alpha = K^-1 y`` it came from."""
    M = build_metric(model.params)
    gm = gram(model.profile, M, data.X, model.noise_var)
    C = gm.chol_lower
    alpha = cho_solve((C, True), data.y, check_finite=False)
    quad = float(data.y @ alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(C))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * LOG_2PI, M, C, alpha


def log_marginal_likelihood(model: GPModel, data: Dataset) -> float:
    """Log marginal likelihood of the data under the model.

    -1/2 y^T K^-1 y - 1/2 log det K - n/2 log 2pi, with K the noisy Gram
    matrix; the quadratic form and log-determinant both come from its
    Cholesky factor.
    """
    return _solve(model, data)[0]


def log_marginal_likelihood_and_grad(model: GPModel, data: Dataset
                                     ) -> tuple[float, np.ndarray, float]:
    """The log marginal likelihood L, dL/dM (3x3) and dL/dnoise_var.

    With W = alpha alpha^T - K^-1 (Rasmussen & Williams 2006, 5.4) and
    psi_ij = d_ij^T M d_ij for d_ij = x_i - x_j, dL/dM is
    1/2 sum_ij W_ij k'(psi_ij) d_ij d_ij^T, a sum over the pairs i > j. With
    A the strict lower triangle of W * k'(psi), zero where psi is
    (coincident points, whose d d^T is 0), that is
    X^T diag(A 1 + A^T 1) X - X^T A X - (X^T A X)^T. dL/dnoise_var is
    1/2 tr W. K^-1 comes from the likelihood's own factor, so both cost
    O(n^2) beyond it.
    """
    value, M, C, alpha = _solve(model, data)
    # K^-1 in the lower triangle; the upper still holds Gram entries
    K_inv, info = dpotri(C, lower=1)
    if info != 0:
        raise LinAlgError(f"dpotri failed with info={info}")
    psi = _pairwise_sq_dist(M, data.X, data.X)
    A = profile_slope(model.profile, psi)
    A[psi == 0.0] = 0.0
    A *= np.outer(alpha, alpha) - K_inv
    A = np.tril(A, -1)
    X = data.X
    XAX = X.T @ A @ X
    grad_M = (X.T @ ((A.sum(axis=0) + A.sum(axis=1))[:, None] * X)
              - XAX - XAX.T)
    grad_noise = 0.5 * (float(alpha @ alpha) - float(np.trace(K_inv)))
    return value, grad_M, grad_noise


def predict(model: GPModel, train: Dataset, X_test) -> PredictiveResult:
    """Closed-form posterior predictive mean and variance at test inputs.

    The training Gram is factorized once. The m test points are then taken
    ``PREDICT_BLOCK`` rows at a time: each block's cross-Gram gives its
    means and is solved in place against the factor for its variances. So
    besides the two m-long outputs, a call holds the n×n factor and one
    block of about ``PREDICT_BLOCK``×n doubles, whatever m is.

    ``PREDICT_BLOCK`` is a multiple of 64, so each block starts where the
    BLAS matrix-vector product over all m rows would start a new group of
    rows: every mean keeps the bytes of that one product (a 250-row block
    changed their last bits). The variances keep theirs because each
    column of the triangular solve is computed on its own.

    The variance includes the observation noise and is floored at
    ``noise_var`` to absorb round-off.
    """
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    _, M, C, alpha = _solve(model, train)
    m = X_test.shape[0]
    mean = np.empty(m)
    explained = np.empty(m)
    # A lone last row joins the block before it: BLAS would take it through
    # its one-row kernels, whose last bits differ.
    edges = [*range(0, max(m - 1, 1), PREDICT_BLOCK), m]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        Ks = cross_gram(model.profile, M, X_test[rows], train.X)
        mean[rows] = Ks @ alpha
        V = solve_triangular(C, Ks.T, lower=True, overwrite_b=True,
                             check_finite=False)
        np.einsum("ij,ij->j", V, V, out=explained[rows])
    var = 1.0 + model.noise_var - explained
    var = np.maximum(var, model.noise_var)
    return PredictiveResult(mean=mean, var=var)
