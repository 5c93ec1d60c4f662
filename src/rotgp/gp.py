"""Exact GP regression: log marginal likelihood and closed-form prediction.

Everything goes through one Cholesky factorization of the training Gram
matrix per call; no explicit inverse is ever formed. The prior mean is zero
and the signal amplitude is fixed at one, so outputs are assumed centred and
scaled by the caller.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .kernels import KernelProfile, cross_gram, gram
from .metric import MetricParams, build_metric

LOG_2PI = float(np.log(2.0 * np.pi))


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


def log_marginal_likelihood(model: GPModel, data: Dataset) -> float:
    """Log marginal likelihood of the data under the model.

    -1/2 y^T K^-1 y - 1/2 log det K - n/2 log 2pi, with K the noisy Gram
    matrix; the quadratic form and log-determinant both come from its
    Cholesky factor.
    """
    M = build_metric(model.params)
    gm = gram(model.profile, M, data.X, model.noise_var)
    C = gm.chol_lower
    alpha = cho_solve((C, True), data.y, check_finite=False)
    quad = float(data.y @ alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(C))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * LOG_2PI


def predict(model: GPModel, train: Dataset, X_test) -> PredictiveResult:
    """Closed-form posterior predictive mean and variance at test inputs.

    The variance includes the observation noise and is floored at
    ``noise_var`` to absorb round-off.
    """
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    M = build_metric(model.params)
    gm = gram(model.profile, M, train.X, model.noise_var)
    C = gm.chol_lower
    Ks = cross_gram(model.profile, M, X_test, train.X)
    alpha = cho_solve((C, True), train.y, check_finite=False)
    mean = Ks @ alpha
    V = solve_triangular(C, Ks.T, lower=True, overwrite_b=True,
                         check_finite=False)
    var = 1.0 + model.noise_var - np.einsum("ij,ij->j", V, V)
    var = np.maximum(var, model.noise_var)
    return PredictiveResult(mean=mean, var=var)
