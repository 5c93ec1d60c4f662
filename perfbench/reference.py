"""Independent reference numerics for the benchmark's output checks.

Nothing here calls into ``rotgp``: the metric, kernel, likelihood, prior and
mixture predictive are written out again from their definitions, using an LU
solve instead of the package's Cholesky path, so a fast path that changes the
target shows up as a mismatch.

``effective_sample_size`` is a frozen copy of the package's Geyer
initial-positive-sequence estimator, so ``ess_per_s`` keeps one meaning even
when the package's own estimator changes.
"""

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# d1 generator of the paper: rotated SE metric with unit signal variance.
D1_LENGTHSCALES = (0.40, 0.10, 0.80)
D1_AXIS_ANGLE = (0.7, -0.4, 1.0)
D1_NOISE_SD = 0.05

# Prior settings a configuration that names no priors resolves to.
DEFAULT_PRIORS = {
    "lengthscale_mean": [0.5, 0.5, 0.5], "lengthscale_sd": [0.5, 0.5, 0.5],
    "axis_angle_sd": 1.0, "spd_logdiag_sd": 1.5, "spd_offdiag_sd": 3.0,
    "log_noise_mean": -6.0, "log_noise_sd": 1.0,
}

# Number of parameters that define the metric, per parameterisation.
N_CORE = {"ard": 3, "rotational": 6, "spd": 6}


def kind_of(names) -> str:
    """Parameterisation of a chain from its column names."""
    if "a_1" in names:
        return "rotational"
    if "d_1" in names:
        return "spd"
    return "ard"


def rodrigues(a) -> np.ndarray:
    """Rotation matrix exp([a]_x) for an axis-angle vector."""
    a = np.asarray(a, dtype=float)
    theta = math.sqrt(float(a @ a))
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    if theta == 0.0:
        return np.eye(3)
    return (np.eye(3) + math.sin(theta) / theta * K
            + (1.0 - math.cos(theta)) / theta ** 2 * (K @ K))


def metric(kind: str, core) -> np.ndarray:
    """SPD metric M for the first N_CORE[kind] chain coordinates."""
    v = np.asarray(core, dtype=float)
    if kind == "ard":
        return np.diag(v[:3] ** -2.0)
    if kind == "rotational":
        R = rodrigues(v[3:6])
        return R.T @ np.diag(v[:3] ** -2.0) @ R
    d, o = v[:3], v[3:6]
    L = np.array([[d[0], 0.0, 0.0], [o[0], d[1], 0.0], [o[1], o[2], d[2]]])
    return L @ L.T


def differences(A, B) -> np.ndarray:
    """All pairwise differences a_i - b_j, shape (len(A), len(B), 3)."""
    return A[:, None, :] - B[None, :, :]


def se_kernel(M, D) -> np.ndarray:
    """exp(-psi/2) with psi_ij = d_ij^T M d_ij for differences D."""
    psi = np.einsum("ijk,ijk->ij", D @ M, D)
    return np.exp(-0.5 * np.maximum(psi, 0.0))


def log_likelihood(M, X, y, noise_var: float) -> float:
    """Gaussian log marginal likelihood via LU: slogdet and a dense solve."""
    K = se_kernel(M, differences(X, X)) + noise_var * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        raise ValueError("reference Gram matrix is not positive definite")
    quad = float(y @ np.linalg.solve(K, y))
    return -0.5 * quad - 0.5 * logdet - 0.5 * len(y) * LOG_2PI


def _normal_logpdf(x, mean, sd) -> float:
    z = (np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)) / sd
    return float(np.sum(-0.5 * z * z - np.log(sd) - 0.5 * LOG_2PI))


def log_prior(kind: str, core, priors: dict) -> float:
    """Gaussian priors on the raw coordinates, as resolved-config.json states
    them: on length-scales, on axis-angle components, and on the log-diagonal
    and off-diagonal Cholesky entries."""
    v = np.asarray(core, dtype=float)
    if kind == "spd":
        return (_normal_logpdf(np.log(v[:3]), 0.0, priors["spd_logdiag_sd"])
                + _normal_logpdf(v[3:6], 0.0, priors["spd_offdiag_sd"]))
    total = _normal_logpdf(v[:3], priors["lengthscale_mean"],
                           np.asarray(priors["lengthscale_sd"], dtype=float))
    if kind == "rotational":
        total += _normal_logpdf(v[3:6], 0.0, priors["axis_angle_sd"])
    return total


def mixture_predict(kind: str, states, X, y, X_test, noise_var: float):
    """Posterior-mean-of-predictions mean and sd at X_test over all states."""
    mean_acc = np.zeros(len(X_test))
    second_acc = np.zeros(len(X_test))
    D, Ds = differences(X, X), differences(X, X_test)
    for row in states:
        M = metric(kind, row[:N_CORE[kind]])
        K = se_kernel(M, D) + noise_var * np.eye(len(y))
        Ks = se_kernel(M, Ds)
        sol = np.linalg.solve(K, np.column_stack([y, Ks]))
        mean = Ks.T @ sol[:, 0]
        var = 1.0 + noise_var - np.einsum("ij,ij->j", Ks, sol[:, 1:])
        var = np.maximum(var, noise_var)
        mean_acc += mean
        second_acc += var + mean ** 2
    mean = mean_acc / len(states)
    var = second_acc / len(states) - mean ** 2
    return mean, np.sqrt(np.maximum(var, 0.0))


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


def min_metric_ess(kind: str, states) -> float | None:
    """Smallest ESS over the non-constant unique entries of M per sample;
    None when every entry is constant."""
    rows, cols = np.triu_indices(3)
    entries = np.array([metric(kind, s[:N_CORE[kind]])[rows, cols]
                        for s in states])
    values = [effective_sample_size(entries[:, j])
              for j in range(entries.shape[1]) if np.ptp(entries[:, j]) > 0.0]
    return min(values) if values else None
