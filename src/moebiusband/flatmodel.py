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
  w = (0, 0) and x = (t, 1); the boundary of M_lambda is split into six
  labeled edges D1, D2 (bottom, split at v), H1, H2 (top, split at u) and
  the glued copies T1, T2 of the cut, where u and v are the endpoints of
  a distinguished second chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import StructureError

SQRT3 = math.sqrt(3.0)
T_OPT = 1.0 / SQRT3  # displacement of the optimal cut


@dataclass(frozen=True)
class TrapezoidEdge:
    name: str
    start: np.ndarray
    end: np.ndarray

    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))


@dataclass(frozen=True)
class FlatTrapezoid:
    """The cut-open development of M_lambda with its six labeled edges.

    Vertices (development coordinates): w = (0,0) and x = (t,1) are the cut
    endpoints, with second copies g(x) = (lambda + t, 0) and
    g(w) = (lambda, 1); u (on the top side) and v (on the bottom side) are
    the endpoints of the distinguished second chord.
    """

    lam: float
    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        lam, t = self.lam, self.t
        if not (lam > 0.0 and abs(t) < lam):
            raise StructureError("degenerate trapezoid: need |t| < lambda")
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if not (abs(u[1] - 1.0) < 1e-9 and abs(v[1]) < 1e-9):
            raise StructureError("u must lie on the top side, v on the bottom side")
        if not (t - 1e-9 < u[0] < lam + 1e-9):
            raise StructureError("u outside the top side")
        if not (-1e-9 < v[0] < lam + t + 1e-9):
            raise StructureError("v outside the bottom side")
        for name, val in (("u", u), ("v", v)):
            if not np.isfinite(val).all():
                raise StructureError(f"non-finite vertex {name}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        u.setflags(write=False)
        v.setflags(write=False)

    # the cut endpoints, and their copies under the glide map
    # g(x, y) = (x + lam, 1 - y)
    @property
    def w(self) -> np.ndarray:
        return np.array([0.0, 0.0])

    @property
    def x(self) -> np.ndarray:
        return np.array([self.t, 1.0])

    @property
    def x_bar(self) -> np.ndarray:
        return np.array([self.lam + self.t, 0.0])

    @property
    def w_bar(self) -> np.ndarray:
        return np.array([self.lam, 1.0])

    def len_h(self) -> float:
        return self.lam - self.t

    def len_d(self) -> float:
        return self.lam + self.t

    def len_t(self) -> float:
        return math.hypot(1.0, self.t)

    def edges(self) -> list[TrapezoidEdge]:
        """Six labeled edges in the order the boundary circle of M_lambda
        traverses them (bottom chain, seam, top chain, seam)."""
        return [
            TrapezoidEdge("D1", self.w, self.v),
            TrapezoidEdge("D2", self.v, self.x_bar),
            TrapezoidEdge("T2", self.x_bar, self.w_bar),
            TrapezoidEdge("H1", self.x, self.u),
            TrapezoidEdge("H2", self.u, self.w_bar),
            TrapezoidEdge("T1", self.w, self.x),
        ]

    def edge(self, name: str) -> TrapezoidEdge:
        for e in self.edges():
            if e.name == name:
                return e
        raise KeyError(name)

    def check_invariants(self, atol: float = 1e-12) -> None:
        """Raise unless the closed-form edge relations hold."""
        lh = float(np.linalg.norm(self.u - self.x) + np.linalg.norm(self.w_bar - self.u))
        ld = float(np.linalg.norm(self.v - self.w) + np.linalg.norm(self.x_bar - self.v))
        if abs(lh - self.len_h()) > atol or abs(ld - self.len_d()) > atol:
            raise StructureError("edge-chain lengths disagree with closed forms")
        if abs((self.len_h() + self.t) - self.lam) > atol:
            raise StructureError("len(H) + t != lambda")
        if abs((self.len_d() - self.t) - self.lam) > atol:
            raise StructureError("len(D) - t != lambda")
        t1 = self.edge("T1")
        t2 = self.edge("T2")
        if abs(t1.length() - self.len_t()) > atol or abs(t2.length() - self.len_t()) > atol:
            raise StructureError("slanted edges are not congruent copies of the cut")
        # bilateral symmetry of the trapezoid shape about its vertical midline
        mid_bottom = 0.5 * (self.w[0] + self.x_bar[0])
        mid_top = 0.5 * (self.x[0] + self.w_bar[0])
        if abs(mid_bottom - mid_top) > atol:
            raise StructureError("trapezoid is not bilaterally symmetric")

