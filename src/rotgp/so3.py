"""Axis-angle coordinates on SO(3): skew map, Rodrigues exponential, geodesic angle.

The axis-angle vector is an unconstrained 3-vector whose direction is the
rotation axis and whose magnitude is the rotation angle in radians. Mapping it
through :func:`exp_so3` always yields a proper rotation matrix, which is what
makes it usable as a plain Euclidean coordinate during sampling.
"""

import numpy as np

# Below this angle the Rodrigues coefficients sin(t)/t and (1-cos t)/t^2
# switch to second-order Taylor forms to avoid 0/0; the truncation error at
# the switch is ~1e-33, far below round-off.
SMALL_ANGLE = 1e-8


def skew(a) -> np.ndarray:
    """Skew-symmetric cross-product matrix of a 3-vector.

    ``skew(a) @ v`` equals ``cross(a, v)``; the transpose is the negation.
    """
    a1, a2, a3 = np.asarray(a, dtype=float)
    return np.array([[0.0, -a3, a2],
                     [a3, 0.0, -a1],
                     [-a2, a1, 0.0]])


def exp_so3(a) -> np.ndarray:
    """Rotation matrix for an axis-angle vector, via Rodrigues' formula.

    Parameters
    ----------
    a : array-like, shape (3,)
        Axis-angle vector; magnitude is the rotation angle in radians.

    Returns
    -------
    (3, 3) ndarray
        Proper rotation: orthogonal to ~1e-15 with determinant +1.
    """
    a = np.asarray(a, dtype=float)
    theta = float(np.linalg.norm(a))
    if theta < SMALL_ANGLE:
        c1 = 1.0 - theta * theta / 6.0
        c2 = 0.5 - theta * theta / 24.0
    else:
        c1 = np.sin(theta) / theta
        c2 = (1.0 - np.cos(theta)) / (theta * theta)
    U = skew(a)
    return np.eye(3) + c1 * U + c2 * (U @ U)


def geodesic_angle(R) -> float:
    """Minimal rotation angle between ``R`` and the identity, in [0, pi].

    ``atan2(sin, cos)``, with the cosine from the trace and the sine from the
    skew part of ``R``: an arccos of the trace alone loses half the digits
    near 0 and pi, where a round-off of 1e-16 in the trace gives 1e-8 rad.
    """
    R = np.asarray(R, dtype=float)
    s = 0.5 * float(np.linalg.norm(
        [R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]))
    c = 0.5 * (np.trace(R) - 1.0)
    return float(np.arctan2(s, c))
