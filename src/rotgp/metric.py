"""SPD covariance metrics and coordinate-free anisotropy summaries.

Three parameterisations build the same object, a symmetric positive definite
3x3 metric ``M`` that defines the squared distance ``(x - x')^T M (x - x')``
inside a stationary kernel:

* :class:`Ard` -- diagonal metric, one length-scale per coordinate axis.
* :class:`Rotational` -- principal length-scales plus an axis-angle
  orientation; ``M = R^T diag(l^-2) R``.
* :class:`CholeskySpd` -- generic lower-triangular factor, ``M = L L^T``.

Each class is the one spec of its parameterisation: parameter names and
flat-vector layout, a ``table`` that declares one :class:`Row` per field (its
random-walk step, its move, which says whether the sampler walks it as x or
log x and whether its prior is on x or log x, and its Gaussian prior),
metric builder and dict I/O. :mod:`rotgp.mcmc` walks, scores and starts the
fields by those rows.
``SPECS`` maps a model name to its class, so the sampler, summaries, config
and CLI never branch on it.

:func:`eigen_summary` reduces any such metric back to invariant quantities
(sorted principal ranges, sign-fixed directions, rotation angle from axis
alignment), which is how fits from the different parameterisations are
compared.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .so3 import exp_so3, geodesic_angle


class InvalidParamsError(ValueError):
    """Parameter state cannot produce a valid SPD metric."""


class NotSpdError(ValueError):
    """Matrix handed to a summary is not symmetric positive definite."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParamsError(message)


def _positive_finite(v: np.ndarray) -> bool:
    return bool(((v > 0.0) & (v < math.inf)).all())  # nan fails both


def _inverse_squares(lengthscales: np.ndarray, name: str) -> np.ndarray:
    """``lengthscales ** -2``; length-scales that are not finite and
    positive, or so short that it overflows (below about 1e-154), raise."""
    _require(_positive_finite(lengthscales),
             f"{name} must be finite and positive")
    with np.errstate(over="ignore"):
        inv_sq = lengthscales ** -2.0
    _require(bool((inv_sq < math.inf).all()),
             f"{name} too short: their inverse squares overflow")
    return inv_sq


class Row(NamedTuple):
    """A field's walk ``step`` (a ``ProposalScales`` field) and ``move``,
    and its Gaussian prior's ``sd`` and ``mean`` (``Priors`` fields; no mean
    is zero) on the coordinate the move gives. The move is a key of
    ``mcmc._MOVES``: ``add`` walks x with the prior on x, ``scale`` walks
    log x with the prior on log x, and ``jacobian`` walks log x with the
    prior on x > 0, so the sampler's target carries the log Jacobian."""

    step: str
    move: str
    sd: str
    mean: str | None = None


_LENGTHSCALES = Row("log_lengthscale", "jacobian", "lengthscale_sd",
                    "lengthscale_mean")


class _Spec:
    """Flat-vector and dict I/O shared by the specs: each dataclass field is
    a 3-vector, stored in declaration order under ``names``, and has one row
    in ``table``, keyed by the field's name."""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    @classmethod
    def from_vector(cls, vec):
        """Parameters from the first ``len(names)`` entries of ``vec``."""
        vec = np.asarray(vec, dtype=float)
        return cls(*(vec[i:i + 3].copy() for i in range(0, len(cls.names), 3)))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f.name) for f in fields(self)])

    @classmethod
    def from_dict(cls, doc: dict):
        """Parameters from a model-spec dict; KeyError names a missing field."""
        return cls(*(doc[f.name] for f in fields(cls)))

    def to_dict(self) -> dict:
        out = {"model": self.kind}
        for f in fields(self):
            out[f.name] = [float(v) for v in getattr(self, f.name)]
        return out


@dataclass
class Ard(_Spec):
    """Axis-aligned metric: ``diag(lengthscales ** -2)``."""

    lengthscales: np.ndarray

    kind = "ard"
    names = ("l_x", "l_y", "l_z")
    table = {"lengthscales": _LENGTHSCALES}

    @classmethod
    def isotropic(cls, ell: float) -> "Ard":
        """The metric ``ell^-2 I``."""
        return cls(np.full(3, ell))

    def metric(self) -> np.ndarray:
        return np.diag(_inverse_squares(self.lengthscales,
                                        "ARD length-scales"))

    def rotation_deg(self) -> float:
        return 0.0


@dataclass
class Rotational(_Spec):
    """Principal length-scales plus an axis-angle orientation."""

    lengthscales: np.ndarray
    axis_angle: np.ndarray

    kind = "rotational"
    names = ("l_x", "l_y", "l_z", "a_1", "a_2", "a_3")
    table = {"lengthscales": _LENGTHSCALES,
             "axis_angle": Row("axis_angle", "add", "axis_angle_sd")}

    @classmethod
    def isotropic(cls, ell: float) -> "Rotational":
        """The metric ``ell^-2 I``."""
        return cls(np.full(3, ell), np.zeros(3))

    def metric(self) -> np.ndarray:
        inv_sq = _inverse_squares(self.lengthscales, "length-scales")
        _require(bool(np.all(np.isfinite(self.axis_angle))),
                 "axis-angle vector must be finite")
        R = exp_so3(self.axis_angle)
        M = R.T @ np.diag(inv_sq) @ R
        return 0.5 * (M + M.T)

    def rotation_deg(self) -> float:
        return math.degrees(geodesic_angle(exp_so3(self.axis_angle)))


@dataclass
class CholeskySpd(_Spec):
    """Generic SPD metric via its lower-triangular Cholesky factor.

    ``diag`` holds the three positive diagonal entries of L; ``offdiag``
    holds the sub-diagonal entries in the order (L[1,0], L[2,0], L[2,1]).
    """

    diag: np.ndarray
    offdiag: np.ndarray

    kind = "spd"
    names = ("d_1", "d_2", "d_3", "o_1", "o_2", "o_3")
    table = {"diag": Row("spd", "scale", "spd_logdiag_sd"),
             "offdiag": Row("spd", "add", "spd_offdiag_sd")}

    @classmethod
    def isotropic(cls, ell: float) -> "CholeskySpd":
        """The metric ``ell^-2 I``."""
        return cls(np.full(3, 1.0 / ell), np.zeros(3))

    def metric(self) -> np.ndarray:
        _require(_positive_finite(self.diag),
                 "Cholesky diagonal must be finite and positive")
        _require(bool(np.all(np.isfinite(self.offdiag))),
                 "Cholesky off-diagonal entries must be finite")
        d, o = self.diag, self.offdiag
        L = np.array([[d[0], 0.0, 0.0],
                      [o[0], d[1], 0.0],
                      [o[1], o[2], d[2]]])
        M = L @ L.T
        return 0.5 * (M + M.T)

    def rotation_deg(self) -> None:
        """No rotation coordinate: summarized through the eigendecomposition."""
        return None


MetricParams = Ard | Rotational | CholeskySpd

SPECS = {spec.kind: spec for spec in (Ard, Rotational, CholeskySpd)}


@dataclass
class AnisotropySummary:
    """Invariant description of an SPD metric.

    ``ranges`` are sorted ascending (shortest correlation range first) and
    pair with the columns of ``directions``; ``eigenvalues`` are the matching
    metric eigenvalues, sorted descending (ranges[i] == eigenvalues[i]**-0.5).
    ``geodesic_deg`` is the rotation angle, in degrees, between the principal
    axes and the coordinate axes.
    """

    ranges: np.ndarray
    directions: np.ndarray
    eigenvalues: np.ndarray
    geodesic_deg: float

    def to_dict(self) -> dict:
        return {
            "ranges": [float(v) for v in self.ranges],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "directions": [[float(v) for v in col] for col in self.directions.T],
            "geodesic_deg": float(self.geodesic_deg),
        }


def build_metric(params: MetricParams) -> np.ndarray:
    """Assemble the SPD metric for a parameter state.

    Raises :class:`InvalidParamsError` on non-finite or non-positive required
    fields; samplers treat that as an automatic proposal rejection.
    """
    return params.metric()


def eigen_summary(M) -> AnisotropySummary:
    """Eigendecomposition summary of an SPD metric.

    Eigenvalues are sorted descending, so ranges (their inverse square roots)
    come out shortest first. Each eigenvector is sign-fixed so its
    largest-magnitude component is non-negative (ties broken by lowest
    index); the rotation angle is taken from the eigenvector matrix after
    forcing det = +1.
    """
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if not np.all(np.isfinite(w)) or w.min() <= 0.0:
        raise NotSpdError(f"metric is not positive definite (eigenvalues {w})")
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order].copy()
    for i in range(3):
        j = int(np.argmax(np.abs(V[:, i])))
        if V[j, i] < 0.0:
            V[:, i] = -V[:, i]
    Q = V.copy()
    if np.linalg.det(Q) < 0.0:
        Q[:, 2] = -Q[:, 2]
    return AnisotropySummary(
        ranges=w ** -0.5,
        directions=V,
        eigenvalues=w,
        geodesic_deg=float(np.degrees(geodesic_angle(Q))),
    )


def misalignment_angles(est: AnisotropySummary, truth: AnisotropySummary) -> np.ndarray:
    """Per-axis angles, in degrees, between same-rank principal directions.

    The absolute inner product removes eigenvector sign ambiguity, so each
    angle lies in [0, 90].
    """
    cosines = np.abs(np.sum(est.directions * truth.directions, axis=0))
    return np.degrees(np.arccos(np.clip(cosines, 0.0, 1.0)))
