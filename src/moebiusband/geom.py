"""Dimension-generic vector/segment primitives, rigid motions and planar
winding numbers.

Everything operates on plain numpy arrays: points are length-d vectors,
point sets are (n, d) arrays, segments are (2, d) arrays of endpoints.
All lengths are dimensionless.
"""

from __future__ import annotations

import numpy as np


class StructureError(ValueError):
    """Malformed input data: bad shapes, non-finite coordinates, empty sets."""


class Frozen:
    """Base of the package's value types that are plain classes.  Their
    `__init__` checks its arguments and stores every field in one call to
    `_store`, which makes each ndarray field read-only, the caller's array
    too where the field is that array; after that, assigning or deleting
    any attribute raises AttributeError."""

    __slots__ = ()

    def _store(self, **fields) -> None:
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ToleranceConfig(Frozen):
    """Central tolerance profile shared across the library.

    isometry: relative length residual accepted by band validation.
    root_residual: accepted residual for numeric root finding (T-patterns).
    """

    isometry: float
    root_residual: float

    def __init__(self, isometry: float = 1e-9, root_residual: float = 1e-8):
        self._store(isometry=isometry, root_residual=root_residual)


DEFAULT_TOL = ToleranceConfig()


def row_dot(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two (..., d) arrays, as a stack of
    (1xd)(dx1) matrix products.  numpy takes each through the BLAS dot of
    the 1-D p[i] @ w[i], so it rounds like that, and its sqrt like
    np.linalg.norm of a 1-D row; einsum or a sum along an axis can differ
    from them by an ulp."""
    return np.matmul(p[..., None, :], w[..., :, None])[..., 0, 0]


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the rows of two (..., 3) arrays with the arithmetic
    of np.cross (each component one product less another), without its
    axis handling."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def point_segment_distance(p, a, b) -> np.ndarray:
    """Euclidean distance from p to each segment a[i]-b[i] of the (n, d)
    endpoint arrays a, b (or (d,) for one segment), with the arithmetic of
    the 1-D computation on each row.  p broadcasts against the rows: (n, 1, d)
    points against (k, d) endpoints give (n, k) distances."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = row_dot(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(row_dot(p - a, ab) / denom, 0.0, 1.0)
    gap = p - np.where(denom[..., None] == 0.0, a, a + t[..., None] * ab)
    return np.sqrt(row_dot(gap, gap))


# ---------------------------------------------------------------------------
# Rigid motions
# ---------------------------------------------------------------------------


class RigidMotion(Frozen):
    """Isometry of R^3: x -> rotation @ x + translation.

    The rotation block must be orthogonal; determinant may be -1 (improper
    isometries are allowed, mirroring what an ambient isometry may do).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __init__(self, rotation: np.ndarray, translation: np.ndarray):
        r = np.asarray(rotation, dtype=float)
        t = np.asarray(translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise StructureError("RigidMotion needs a 3x3 rotation and 3-vector")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise StructureError("RigidMotion coordinates must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise StructureError("rotation block is not orthogonal")
        self._store(rotation=r, translation=t)

    def apply(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation


def rotation_about_line(point, direction, angle: float) -> RigidMotion:
    """Rotation by `angle` about the line through `point` with `direction`."""
    p = np.asarray(point, dtype=float)
    k = np.asarray(direction, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    r = np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)
    return RigidMotion(r, p - r @ p)


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------


def winding_number(starts, ends, point, weights=None) -> int:
    """Winding number about `point` of the planar cycle of directed edges
    starts[i] -> ends[i], given as finite (n, 2) arrays, edge i counted
    weights[i] times (once each without weights).

    Each edge subtends at the point the signed angle arctan2(cross, dot)
    of its ends, and the weighted sum of these angles over 2 pi is the
    generalized winding number (Jacobson, Kavan & Sorkine-Hornung,
    "Robust inside-outside segmentation using generalized winding numbers",
    ACM TOG 32(4), 2013).  On a cycle, edges whose weighted ends cancel,
    it is an integer, and the sum is rounded to it.  The cycle lemma: the
    winding number of the boundary cycle of a 2-chain of positively
    oriented triangles, about a point off the cycle, is the number of those
    triangles that hold the point.  A closed loop is the cycle of its
    consecutive vertices.  Raises if the point lies within 1e-12 of an
    edge.
    """
    a = np.asarray(starts, dtype=float) - point
    b = np.asarray(ends, dtype=float) - point
    if (point_segment_distance(np.zeros(2), a, b) < 1e-12).any():
        raise StructureError("point lies on the loop")
    turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.einsum("kj,kj->k", a, b))
    total = turn.sum() if weights is None else weights @ turn
    return round(float(total) / (2.0 * np.pi))
