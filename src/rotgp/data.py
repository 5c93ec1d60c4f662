"""Synthetic data generation, CSV ingestion, plane holdouts, standardization.

Synthetic outputs are drawn jointly over all generated points from the exact
multivariate normal implied by the generator model, then split into train and
test by a random permutation, so test outputs stay correlated with training
outputs under the generator. Generation is single-threaded and deterministic
given the seed.
"""

from dataclasses import dataclass

import numpy as np

from .gp import Dataset, GPModel
from .kernels import gram
from .metric import build_metric
from .mcmc import RNG_NAME
from .table import DataFormatError, read_table, write_table

_AXES = {"x": 0, "y": 1, "z": 2}
_COLUMNS = ["x", "y", "z", "value"]


@dataclass
class SyntheticConfig:
    """Generator model plus sizes, cube half-width, and seed."""

    n_train: int
    n_test: int
    generator: GPModel
    seed: int
    cube_half_width: float = 1.0

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be positive")
        if self.n_train + self.n_test < 2:
            raise ValueError("need at least two points in total")
        if not self.cube_half_width > 0.0:
            raise ValueError("cube_half_width must be positive")


@dataclass
class SplitDataset:
    """Disjoint train/test datasets plus provenance of how they were made."""

    train: Dataset
    test: Dataset
    provenance: dict


def sample_gp_outputs(model: GPModel, X, rng: np.random.Generator,
                      n_draws: int = 1) -> np.ndarray:
    """Joint MVN output draw(s) at fixed inputs: chol(K + noise I) @ z.

    Returns shape (n,) for a single draw, (n, n_draws) otherwise.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gm = gram(model.profile, build_metric(model.params), X, model.noise_var)
    z = rng.standard_normal((X.shape[0], n_draws))
    # not np.tril(chol_lower): a C-ordered copy's product differs in the
    # last bits
    y = gm.lower_factor() @ z
    return y[:, 0] if n_draws == 1 else y


def generate_synthetic(cfg: SyntheticConfig) -> SplitDataset:
    """Draw inputs uniformly on the cube, outputs jointly, split by permutation."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_total = cfg.n_train + cfg.n_test
    h = cfg.cube_half_width
    X = rng.uniform(-h, h, size=(n_total, 3))
    y = sample_gp_outputs(cfg.generator, X, rng)
    perm = rng.permutation(n_total)
    train_idx = perm[:cfg.n_train]
    test_idx = perm[cfg.n_train:]
    provenance = {
        "kind": "synthetic",
        "n_train": cfg.n_train,
        "n_test": cfg.n_test,
        "cube_half_width": h,
        "seed": cfg.seed,
        "rng": RNG_NAME,
    }
    return SplitDataset(
        train=Dataset(X[train_idx], y[train_idx]),
        test=Dataset(X[test_idx], y[test_idx]),
        provenance=provenance,
    )


def save_csv(path, dataset: Dataset) -> None:
    """Write `x,y,z,value` rows."""
    write_table(path, _COLUMNS,
                np.column_stack([dataset.X, dataset.y]).tolist())


def load_csv(path) -> Dataset:
    """Read an `x,y,z,value` CSV; malformed rows fail with their line number."""
    header, rows = read_table(path)
    if header != _COLUMNS:
        raise DataFormatError(f"{path}: line 1: expected header x,y,z,value")
    return Dataset(rows[:, :3], rows[:, 3])


def holdout_planes(dataset: Dataset, axis: str, test_values, exclude_values=(),
                   tol: float = 1e-9) -> SplitDataset:
    """Split by coordinate planes along one axis.

    Points within ``tol`` of any value in ``exclude_values`` are dropped
    entirely; of the remainder, points within ``tol`` of any ``test_values``
    plane form the test set and everything else trains.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    coords = dataset.X[:, _AXES[axis]]

    def near_any(values):
        if len(values) == 0:
            return np.zeros(coords.shape, dtype=bool)
        return np.any(np.abs(coords[:, None] - np.asarray(values, dtype=float))
                      <= tol, axis=1)

    excluded = near_any(list(exclude_values))
    is_test = near_any(list(test_values)) & ~excluded
    is_train = ~is_test & ~excluded
    if not np.any(is_test):
        raise ValueError("holdout produced an empty test set")
    if not np.any(is_train):
        raise ValueError("holdout produced an empty training set")
    provenance = {
        "kind": "plane-holdout",
        "axis": axis,
        "test_values": [float(v) for v in test_values],
        "exclude_values": [float(v) for v in exclude_values],
        "tol": tol,
        "n_train": int(is_train.sum()),
        "n_test": int(is_test.sum()),
        "n_excluded": int(excluded.sum()),
    }
    return SplitDataset(
        train=Dataset(dataset.X[is_train], dataset.y[is_train]),
        test=Dataset(dataset.X[is_test], dataset.y[is_test]),
        provenance=provenance,
    )


def standardize(dataset: Dataset) -> tuple[Dataset, float, float]:
    """Centre and scale outputs to zero mean, unit sd (ddof=1).

    Returns the transformed dataset plus the (mean, sd) needed to map
    predictions back to the original scale.
    """
    if dataset.n < 2:
        raise ValueError("standardization needs at least two points")
    mean = float(np.mean(dataset.y))
    sd = float(np.std(dataset.y, ddof=1))
    if not sd > 0.0:
        raise ValueError("outputs have zero variance; cannot standardize")
    return Dataset(dataset.X.copy(), (dataset.y - mean) / sd), mean, sd
