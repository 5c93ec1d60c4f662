"""Predictive-performance metrics: errors, interval coverage, calibration.

Coverage is reported two ways, matching the two conventions in common use:
``cov68``/``cov95`` count standardized residuals inside the exact central
Gaussian intervals (|z| <= Phi^-1(0.84) and |z| <= Phi^-1(0.975)), while
``cov1sigma``/``cov2sigma`` use the plain 1-sigma/2-sigma bands. All bounds
are inclusive.
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtri

from .gp import PredictiveResult
from .table import dump_json, write_table

# Central-interval half-widths in sd units for nominal 68% and 95% mass.
Z68 = float(ndtri(0.84))
Z95 = float(ndtri(0.975))


@dataclass
class Metrics:
    mae: float
    rmse: float
    cov68: float
    cov95: float
    cov1sigma: float
    cov2sigma: float
    std_z: float
    n_test: int

    def to_dict(self) -> dict:
        return {**vars(self), "n_test": int(self.n_test)}


# Metric names in the column order of every metrics table.
FIELDS = [f.name for f in fields(Metrics)]


def compute_metrics(pred: PredictiveResult, truth) -> Metrics:
    """Point errors and interval coverage of predictions against truth."""
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    mean = np.atleast_1d(np.asarray(pred.mean, dtype=float))
    var = np.atleast_1d(np.asarray(pred.var, dtype=float))
    if truth.shape != mean.shape or truth.shape != var.shape:
        raise ValueError("prediction and truth lengths do not match")
    if np.any(var <= 0.0):
        raise ValueError("zero or negative predictive variance")
    resid = truth - mean
    z = resid / np.sqrt(var)
    n = truth.size
    return Metrics(
        mae=float(np.mean(np.abs(resid))),
        rmse=float(np.sqrt(np.mean(resid ** 2))),
        cov68=float(np.mean(np.abs(z) <= Z68)),
        cov95=float(np.mean(np.abs(z) <= Z95)),
        cov1sigma=float(np.mean(np.abs(z) <= 1.0)),
        cov2sigma=float(np.mean(np.abs(z) <= 2.0)),
        std_z=float(np.std(z, ddof=1)) if n > 1 else 0.0,
        n_test=n,
    )


def write_metrics_json(path, metrics: Metrics, label: str | None = None) -> None:
    doc = metrics.to_dict()
    if label is not None:
        doc["label"] = label
    dump_json(path, doc)


def append_ledger_row(path, metrics: Metrics, label: str) -> None:
    """Append one row to the run-ledger CSV, creating it with a header."""
    row = metrics.to_dict()
    write_table(path, ["label"] + FIELDS,
                [[label] + [row[k] for k in FIELDS]], append=True)
