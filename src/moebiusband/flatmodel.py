"""Flat model of the band: the abstract flat Moebius band M_lambda and the
bilaterally symmetric trapezoid obtained by cutting it open along a chord.

Conventions used everywhere in this package:

* M_lambda is the rectangle [0, lambda] x [0, 1] with the glide
  identification (0, y) ~ (lambda, 1 - y).
* Cutting M_lambda open along a chord with horizontal displacement t >= 0
  develops it onto a trapezoid whose bottom side has length lambda + t
  (on y = 0, from x = 0 to x = lambda + t) and whose top side has length
  lambda - t (on y = 1, from x = t to x = lambda).  The two slanted sides
  are the two copies of the cut chord; re-gluing them via
  g(x, y) = (x + lambda, 1 - y) recovers M_lambda.
* The four trapezoid corners are the two copies of the cut endpoints
  w = (0, 0) and x = (t, 1).  The boundary of M_lambda is split into the
  four edges D1, D2 (bottom, split at v) and H1, H2 (top, split at u),
  where u and v are the endpoints of a distinguished second chord; the
  slanted sides T1, T2 are the glued copies of the cut, not boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import Frozen, StructureError

SQRT3 = math.sqrt(3.0)
T_OPT = 1.0 / SQRT3  # displacement of the optimal cut


def glide(flat: np.ndarray, dx: float) -> np.ndarray:
    """Flat bends (..., 2, 2) mapped by (x, y) -> (x + dx, 1 - y), with the
    endpoint rows exchanged so that they stay [bottom, top].  With
    dx = lambda this is the glide g; with dx = -x it is a flip re-anchored
    at an end of x-coordinate x."""
    out = np.empty(flat.shape)
    np.add(flat[..., ::-1, 0], dx, out=out[..., 0])
    np.subtract(1.0, flat[..., ::-1, 1], out=out[..., 1])
    return out


class FlatTrapezoid(Frozen):
    """The cut-open development of M_lambda.  Only its four boundary edges
    D1, D2, H1 and H2 are modelled; the cut copies T1, T2 are not.

    Vertices (development coordinates): w = (0,0) and x = (t,1) are the cut
    endpoints, with second copies g(x) = (lambda + t, 0) and
    g(w) = (lambda, 1); u (on the top side) and v (on the bottom side) are
    the endpoints of the distinguished second chord.  The side lengths
    len_h = lambda - t (top) and len_d = lambda + t (bottom) are stored
    once, on construction.
    """

    lam: float
    t: float
    u: np.ndarray
    v: np.ndarray
    len_h: float
    len_d: float

    def __init__(self, lam: float, t: float, u: np.ndarray, v: np.ndarray):
        if not (lam > 0.0 and abs(t) < lam):
            raise StructureError("degenerate trapezoid: need |t| < lambda")
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        for name, p in (("u", u), ("v", v)):
            if p.shape != (2,):
                raise StructureError(f"{name} must be a point (x, y), got shape {p.shape}")
        if not (abs(u[1] - 1.0) < 1e-9 and abs(v[1]) < 1e-9):
            raise StructureError("u must lie on the top side, v on the bottom side")
        if not (t - 1e-9 < u[0] < lam + 1e-9):
            raise StructureError("u outside the top side")
        if not (-1e-9 < v[0] < lam + t + 1e-9):
            raise StructureError("v outside the bottom side")
        self._store(lam=lam, t=t, u=u, v=v, len_h=lam - t, len_d=lam + t)

    def boundary_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The start and end points of D1, D2, H1 and H2, one row per edge:
        D1 runs from w = (0, 0) to v and D2 from v to g(x) = (lambda + t, 0);
        H1 runs from x = (t, 1) to u and H2 from u to g(w) = (lambda, 1)."""
        starts = np.array([[0.0, 0.0], self.v, [self.t, 1.0], self.u])
        ends = np.array([self.v, [self.lam + self.t, 0.0], self.u, [self.lam, 1.0]])
        return starts, ends
