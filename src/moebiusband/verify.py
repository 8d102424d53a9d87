"""Top-level verifiers for the effective flat-band bounds.

Given a validated band of aspect ratio lambda = sqrt(3) + eps, the
pipeline locates a T-pattern, normalizes the pose, cuts the band open
into its labeled trapezoid and then checks, with measured margins:

* `verify_eff`    - the boundary bound: a piecewise-linear boundary
  correspondence phi from the optimal trapezoid carries the canonical
  triangle map to within 6*sqrt(eps) of the band's boundary, in sup norm.
* `verify_eff2`   - containment (the whole band within 6*sqrt(eps) of the
  solid canonical triangle) and, for eps < 1/384, coverage (every point of
  the triangle within 18*sqrt(eps) of the band, certified through the
  annulus/winding argument on the projected boundary).
* `verify_corollary` - the Hausdorff distance between the band and the
  solid canonical triangle is below 18*sqrt(eps).

eps is always the measured lambda - sqrt(3), floored at 1e-15 so the
exact flat-folded band (eps = 0) is handled as a limit.  Because the
bounds are evaluated at exactly eps = lambda - sqrt(3), some of the
inequalities close non-strictly (the flat-folded limit attains them);
margin checks therefore allow a small slop where noted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import band as band_module
from . import bounds
from .band import (
    CANONICAL_TRIANGLE,
    INCENTER,
    RuledBand,
    boundary_polyline,
    points_to_triangles_distance,
    surface_triangles,
    validate,
)
from .flatmodel import SQRT3, T_OPT, FlatTrapezoid, make_trapezoid
from .geom import (
    DEFAULT_TOL,
    PolylineLoop,
    StructureError,
    ToleranceConfig,
    points_segment_distance,
    winding_number,
)
from .tpattern import TPattern, develop_for, find_tpattern, normalize_pose

EPS_FLOOR = 1e-15
EFF_EPS_CAP = 0.25
COVERAGE_EPS_CAP = 1.0 / 384.0
GRID_PITCH = 4e-3   # lattice pitch of the triangle grids of eff2 and corollary
ETA_SURFACE = 1e-3  # sampling pitch of the projected boundary in eff2's annulus check

CANONICAL_TRAPEZOID = make_trapezoid(SQRT3, T_OPT)

# boundary images of the six labeled edges under the canonical triangle map
_I0_EDGE_IMAGES = {
    "D1": (np.array([T_OPT, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])),
    "D2": (np.array([0.0, -1.0, 0.0]), np.array([-T_OPT, 0.0, 0.0])),
    "H1": (np.array([-T_OPT, 0.0, 0.0]), np.zeros(3)),
    "H2": (np.zeros(3), np.array([T_OPT, 0.0, 0.0])),
    "T1": (np.array([T_OPT, 0.0, 0.0]), np.array([-T_OPT, 0.0, 0.0])),
    "T2": (np.array([-T_OPT, 0.0, 0.0]), np.array([T_OPT, 0.0, 0.0])),
}

_BOUNDARY_EDGES = ("D1", "D2", "H1", "H2")


class OutOfScopeError(StructureError):
    """The band's aspect ratio exceeds the range a verifier covers."""


def measured_eps(band: RuledBand) -> float:
    return max(band.lam - SQRT3, EPS_FLOOR)


# ---------------------------------------------------------------------------
# Boundary parametrization of a developed band
# ---------------------------------------------------------------------------


class _Chain:
    """One horizontal boundary chain of a developed band: piecewise-linear
    space image parametrized by the development x-coordinate."""

    def __init__(self, xs: np.ndarray, pts: np.ndarray):
        keep = [0]
        for i in range(1, len(xs)):
            if xs[i] - xs[keep[-1]] > 1e-13:
                keep.append(i)
            elif np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-7:
                raise StructureError("boundary chain is not a function of x")
        self.xs = xs[keep]
        self.pts = pts[keep]

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.clip(np.atleast_1d(x), self.xs[0], self.xs[-1])
        j = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        f = (x - self.xs[j]) / (self.xs[j + 1] - self.xs[j])
        return self.pts[j] + f[:, None] * (self.pts[j + 1] - self.pts[j])

    def arc_between(self, x0: float, x1: float) -> float:
        p0 = self.eval(np.array([x0]))[0]
        p1 = self.eval(np.array([x1]))[0]
        inner = (self.xs > x0 + 1e-13) & (self.xs < x1 - 1e-13)
        chain = np.vstack([p0, self.pts[inner], p1])
        return float(np.linalg.norm(np.diff(chain, axis=0), axis=1).sum())


class BoundaryMap:
    """Evaluate the band's boundary image on the two chains of its
    development (bottom y=0 and top y=1)."""

    def __init__(self, dev: RuledBand):
        g_flat, g_space = dev.glued_first_bend()
        self.bottom = _Chain(
            np.append(dev.flat[:, 0, 0], g_flat[0, 0]),
            np.vstack([dev.space[:, 0], g_space[0][None, :]]),
        )
        self.top = _Chain(
            np.append(dev.flat[:, 1, 0], g_flat[1, 0]),
            np.vstack([dev.space[:, 1], g_space[1][None, :]]),
        )
        self.cut = dev.space[0]

    def chain_for(self, edge_name: str) -> _Chain:
        return self.bottom if edge_name.startswith("D") else self.top


# ---------------------------------------------------------------------------
# Boundary deviation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDeviation:
    deviation: float          # sup |I0 - I o phi| over the boundary
    istar_deviation: float    # sup |I - I*| (chordwise-affine comparison)
    i0_vs_istar: float        # sup |I0 - I* o phi|
    per_edge: dict


def boundary_deviation(trap: FlatTrapezoid, boundary: BoundaryMap,
                       eta: float) -> BoundaryDeviation:
    """Sup-norm comparison of the canonical triangle boundary map with the
    band's boundary image under the edge-to-edge affine correspondence
    from the optimal trapezoid onto the band's trapezoid `trap`.  The
    normalizing isometry has already been applied to the band, so the
    comparison is coordinatewise."""
    per_edge = {}
    sup_dev = sup_istar = sup_i0_star = 0.0
    for name in _BOUNDARY_EDGES:
        e0 = CANONICAL_TRAPEZOID.edge(name)
        e = trap.edge(name)
        n = max(8, int(math.ceil(e0.length() / eta)))
        f = np.linspace(0.0, 1.0, n + 1)
        img0_a, img0_b = _I0_EDGE_IMAGES[name]
        i0_pts = img0_a + f[:, None] * (img0_b - img0_a)
        chain = boundary.chain_for(name)
        xs = e.start[0] + f * (e.end[0] - e.start[0])
        i_pts = chain.eval(xs)
        istar_pts = i_pts[0] + f[:, None] * (i_pts[-1] - i_pts[0])
        dev_edge = float(np.linalg.norm(i0_pts - i_pts, axis=1).max())
        istar_edge = float(np.linalg.norm(i_pts - istar_pts, axis=1).max())
        i0_star_edge = float(np.linalg.norm(i0_pts - istar_pts, axis=1).max())
        arc = chain.arc_between(float(e.start[0]), float(e.end[0]))
        chord = float(np.linalg.norm(i_pts[-1] - i_pts[0]))
        per_edge[name] = {
            "sup_dev": dev_edge,
            "sup_istar": istar_edge,
            "sup_i0_vs_istar": i0_star_edge,
            "flat_length": e.length(),
            "arc_length": arc,
            "chord_length": chord,
            "slack": arc - chord,
        }
        sup_dev = max(sup_dev, dev_edge)
        sup_istar = max(sup_istar, istar_edge)
        sup_i0_star = max(sup_i0_star, i0_star_edge)
    return BoundaryDeviation(sup_dev, sup_istar, sup_i0_star, per_edge)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    name: str
    lam: float
    epsilon: float
    passed: bool
    bounds: dict
    measured: dict
    checks: tuple
    details: dict = field(default_factory=dict, compare=False)
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "passed": bool(self.passed),
            "bounds": self.bounds,
            "measured": self.measured,
            "checks": [
                {
                    "name": c.name,
                    "hypotheses": c.hypotheses,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "margin": c.margin,
                    "passed": bool(c.passed),
                    "details": c.details,
                }
                for c in self.checks
            ],
            "details": self.details,
            "notes": list(self.notes),
        }


def write_report_json(reports, path) -> None:
    reports = [reports] if isinstance(reports, TheoremReport) else list(reports)
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=1)
        fh.write("\n")


def write_csv_summary(reports, path) -> None:
    reports = [reports] if isinstance(reports, TheoremReport) else list(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["name", "epsilon", "deviation", "hausdorff", "bound_6sqrt", "bound_18sqrt", "pass"]
        )
        for r in reports:
            writer.writerow(
                [
                    r.name,
                    f"{r.epsilon:.17g}",
                    f"{r.measured.get('deviation', float('nan')):.17g}",
                    f"{r.measured.get('hausdorff', float('nan')):.17g}",
                    f"{r.bounds.get('six_sqrt', float('nan')):.17g}",
                    f"{r.bounds.get('eighteen_sqrt', float('nan')):.17g}",
                    int(r.passed),
                ]
            )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineState:
    band: RuledBand        # pose-normalized band
    pattern: TPattern      # pattern in the normalized pose
    trapezoid: FlatTrapezoid
    developed: RuledBand   # developed at the T bend, cut displacement >= 0
    boundary: BoundaryMap  # boundary image of `developed`

    # The band's ruled patches and the two directed distances between the
    # band and the solid canonical triangle are computed once, on first use
    # by eff2 or corollary.

    @cached_property
    def patches(self) -> np.ndarray:
        """The ruled patches of `developed`, as (2N, 3, 3) triangles."""
        return surface_triangles(self.developed)

    @cached_property
    def band_to_triangle(self) -> float:
        """Exact distance from the band to the solid canonical triangle.
        Distance to a convex set is convex, so its maximum over each ruled
        patch sits at a vertex: the maximum over the bend endpoints."""
        ends = self.developed.space.reshape(-1, 3)
        return float(points_to_triangles_distance(ends, CANONICAL_TRIANGLE[None]).max())

    @cached_property
    def triangle_to_band(self) -> float:
        """Largest distance from a point of the triangle grid at GRID_PITCH
        to the band's ruled patches."""
        grid = _triangle_grid(CANONICAL_TRIANGLE, GRID_PITCH)
        return _max_distance_to_patches(grid, self.patches)


def prepare(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL) -> PipelineState:
    tp = find_tpattern(band, tol)
    moved, tpm = normalize_pose(band, tp)
    trap, dev = develop_for(moved, tpm)
    return PipelineState(moved, tpm, trap, dev, BoundaryMap(dev))


def _margin_checks(state: PipelineState, eps: float) -> tuple:
    trap = state.trapezoid
    dev = state.developed
    bmap = state.boundary
    len_t_prime = float(np.linalg.norm(dev.space[0, 1] - dev.space[0, 0]))
    u_prime = bmap.top.eval(np.array([trap.u[0]]))[0]
    v_prime = bmap.bottom.eval(np.array([trap.v[0]]))[0]
    endpoints = {
        "w": dev.space[0, 0],
        "x": dev.space[0, 1],
        "u": u_prime,
        "v": v_prime,
    }
    return (
        bounds.lip_check(trap.t, eps),
        bounds.length_check(trap.len_h(), trap.len_d()),
        bounds.base_check(len_t_prime, trap.t, eps),
        bounds.height_check(-float(v_prime[1]), eps),
        bounds.offset_check(abs(float(v_prime[0])), eps),
        bounds.key_check(trap.len_d(), trap.t),
        bounds.tpattern_endpoint_check(endpoints, eps),
    )


def _edge_slack_audit(dev_report: BoundaryDeviation, eps: float,
                      tol: ToleranceConfig) -> dict:
    """Per-edge slack bound: each of the four boundary edges is shorter
    than 3 and carries at most eps of slack over its chord.

    Non-strict at the measured eps (the flat-folded limit attains it), and
    slackened by the isometry tolerance: measured arc lengths are only
    trusted to that accuracy.
    """
    slop = max(1e-12, tol.isometry)
    out = {}
    ok = True
    for name, rec in dev_report.per_edge.items():
        edge_ok = rec["flat_length"] < 3.0 and rec["slack"] <= eps + slop
        out[name] = {"slack": rec["slack"], "flat_length": rec["flat_length"], "ok": edge_ok}
        ok = ok and edge_ok
    out["ok"] = ok
    return out


def verify_eff(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL,
               state: PipelineState | None = None) -> TheoremReport:
    """Boundary bound: sup |I0 - psi o I o phi| < 6 sqrt(eps)."""
    if band.lam >= SQRT3 + EFF_EPS_CAP:
        raise OutOfScopeError("out of theorem scope: lambda >= sqrt(3) + 1/4")
    state = prepare(band, tol) if state is None else state
    eps = measured_eps(band)
    dev_rep = boundary_deviation(state.trapezoid, state.boundary, tol.sampling_eta)
    checks = _margin_checks(state, eps)
    bound6 = 6.0 * math.sqrt(eps)
    slack_audit = _edge_slack_audit(dev_rep, eps, tol)
    est1_gap = dev_rep.deviation - (dev_rep.i0_vs_istar + dev_rep.istar_deviation)
    passed = dev_rep.deviation < bound6
    return TheoremReport(
        name="eff",
        lam=band.lam,
        epsilon=eps,
        passed=passed,
        bounds={"six_sqrt": bound6, "three_sqrt": 3.0 * math.sqrt(eps)},
        measured={
            "deviation": dev_rep.deviation,
            "istar_deviation": dev_rep.istar_deviation,
            "i0_vs_istar": dev_rep.i0_vs_istar,
        },
        checks=checks,
        details={
            "per_edge": dev_rep.per_edge,
            "slack_audit": slack_audit,
            "est1_gap": est1_gap,
            "eta": tol.sampling_eta,
            "pattern": {
                "param_t": state.pattern.param_t,
                "param_b": state.pattern.param_b,
                "residual_perp": state.pattern.residual_perp,
                "residual_offset": state.pattern.residual_offset,
            },
        },
        notes=("linebound within budget" if dev_rep.istar_deviation < 3.0 * math.sqrt(eps)
               else "linebound exceeded",),
    )


@dataclass(frozen=True)
class _TriangleGrid:
    """Barycentric lattice a + (i/m)(b - a) + (j/m)(c - a), i, j >= 0,
    i + j <= m, over a solid triangle (a, b, c).  `points` lists it in
    (i, j) row-major order: point (i, j) has index i*(m+1) - i*(i-1)//2 + j."""

    vertices: np.ndarray
    m: int
    points: np.ndarray


def _triangle_grid(vertices: np.ndarray, pitch: float) -> _TriangleGrid:
    """Barycentric lattice covering a solid triangle at the given pitch."""
    a, b, c = (np.asarray(v, dtype=float) for v in vertices)
    side = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
    m = max(1, int(math.ceil(side / pitch)))
    ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    mask = ii + jj <= m
    s = ii[mask] / m
    t = jj[mask] / m
    points = a + s[:, None] * (b - a) + t[:, None] * (c - a)
    return _TriangleGrid(np.array([a, b, c]), m, points)


_ULP = np.finfo(float).eps


def _dot2(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise dot products of two (n, 2) arrays as n (1x2)(2x1) matrix
    products.  These round like the entries of a (points, triangles)
    matrix product, fused multiply-add included where the BLAS uses one;
    the elementwise p0*w0 + p1*w1 can differ from them by an ulp."""
    return np.matmul(p[:, None, :], w[:, :, None])[:, 0, 0]


class _Barycentric2D:
    """Barycentric coordinates s = cross(p - a, c - a)/det and
    t = cross(b - a, p - a)/det of 2D points in the xy-projection of each
    triangle (a, b, c).  A triangle with |det| <= 1e-18 holds no point."""

    def __init__(self, tris: np.ndarray):
        self.corners = tris[:, :, :2]
        a, b, c = tris[:, 0, :2], tris[:, 1, :2], tris[:, 2, :2]
        e0, e1 = b - a, c - a
        det = e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0]
        self.good = np.abs(det) > 1e-18
        self.inv = np.where(self.good, 1.0 / np.where(self.good, det, 1.0), np.nan)
        # first-order bound on the relative rounding error of inv: det
        # cancels its two products
        terms = np.abs(e0[:, 0] * e1[:, 1]) + np.abs(e0[:, 1] * e1[:, 0])
        self.inv_err = 4.0 * _ULP * (1.0 + terms * np.abs(self.inv))
        self.w_s = np.stack([e1[:, 1], -e1[:, 0]], axis=1)
        self.w_t = np.stack([-e0[:, 1], e0[:, 0]], axis=1)
        self.a_s = np.einsum("ij,ij->i", a, self.w_s)
        self.a_t = np.einsum("ij,ij->i", a, self.w_t)

    def at(self, pts: np.ndarray, k: np.ndarray):
        """(s, t) of each 2D point pts[n] in triangle k[n]; the arithmetic
        of each entry is that of a dense (points, triangles) pass."""
        inv = self.inv[k]
        s = (_dot2(pts, np.take(self.w_s, k, axis=0)) - self.a_s[k]) * inv
        t = (_dot2(pts, np.take(self.w_t, k, axis=0)) - self.a_t[k]) * inv
        return s, t

    def slop(self, reach: np.ndarray, tol: float) -> np.ndarray:
        """Per triangle, a margin delta such that a 2D point with
        |coordinates| <= reach whose computed (s, t) pass s, t >= -tol and
        s + t <= 1 + tol has exact s, t >= -delta and s + t <= 1 + delta;
        inf where det is too close to its rounding error for the computed
        s, t to mean anything.  The bounds are first-order rounding bounds
        with a safety factor of at least 2."""
        lever = reach + np.abs(self.corners[:, 0])
        num_err = np.maximum((np.abs(self.w_s) * lever).sum(axis=1),
                             (np.abs(self.w_t) * lever).sum(axis=1))
        delta = 2.0 * tol + 3.0 * self.inv_err + 32.0 * _ULP * num_err * np.abs(self.inv)
        return np.where(self.inv_err < 0.25, delta, np.inf)


def _blocks(counts: np.ndarray, budget: int):
    """Consecutive slices of `counts` that sum to at most `budget`, or to
    one item where that item alone exceeds it."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(lo, hi)
        lo = hi


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integer ranges [start, start + count), concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _lattice_pairs(grid: _TriangleGrid, bary: _Barycentric2D, usable: np.ndarray,
                   tol: float):
    """Yield (point index, triangle index) blocks that hold every pair of a
    grid point and a usable triangle whose computed (s, t) can pass
    s, t >= -tol, s + t <= 1 + tol, and few others.

    Edge-function scan conversion (Pineda, "A parallel algorithm for
    polygon rasterization", SIGGRAPH 1988) in the lattice coordinates
    (i, j) of the grid: each triangle is scaled about its centroid by
    1 + 3*delta, which makes it the region s, t >= -delta,
    s + t <= 1 + delta (see `_Barycentric2D.slop`), and its edges are moved
    out by a rounding margin; on each lattice row i it spans, it then holds
    one interval of j.  A triangle whose s, t are rounding noise takes the
    whole grid.  Blocks of rows and of pairs are sized so that all arrays
    of one block, up to 16 float64 per row or pair, fit in band.CHUNK_BYTES.
    """
    m = grid.m
    a, b, c = grid.vertices[:, :2]
    keep = np.flatnonzero(usable)
    delta = bary.slop(np.abs(grid.points[:, :2]).max(axis=0), tol)[keep]
    q = (bary.corners[keep] - a) @ (m * np.linalg.inv(np.stack([b - a, c - a])))
    noise = np.isinf(delta)
    q[noise] = [[-1.0, -1.0], [2.0 * m + 3.0, -1.0], [-1.0, 2.0 * m + 3.0]]
    centroid = q.mean(axis=1, keepdims=True)
    q = centroid + np.where(noise, 1.0, 1.0 + 3.0 * delta)[:, None, None] * (q - centroid)
    eta = 1e-9 * (1.0 + np.abs(q).max(axis=(1, 2)))
    lo = q.min(axis=1) - eta[:, None]
    hi = q.max(axis=1) + eta[:, None]

    # Edge e runs from vertex e to vertex e+1.  A lattice point (i, j) lies
    # within eta of the inside of edge e where
    #   orient * cross(edge, (i, j) - vertex) + eta * |edge| >= 0,
    # that is  coef * j + const - slope * i >= 0.
    edge = np.roll(q, -1, axis=1) - q
    area2 = edge[:, 0, 0] * edge[:, 1, 1] - edge[:, 0, 1] * edge[:, 1, 0]
    orient = np.where(area2 < 0.0, -1.0, 1.0)[:, None]
    coef = orient * edge[:, :, 0]
    slope = orient * edge[:, :, 1]
    const = (slope * q[:, :, 0] - coef * q[:, :, 1]
             + eta[:, None] * np.hypot(edge[:, :, 0], edge[:, :, 1]))
    edges = (coef, slope, const, lo[:, 1], hi[:, 1])

    i_first = np.clip(np.ceil(lo[:, 0]), 0, m + 1).astype(np.int64)
    i_last = np.clip(np.floor(hi[:, 0]), -1, m).astype(np.int64)
    n_rows = np.maximum(i_last - i_first + 1, 0)
    budget = max(1, band_module.CHUNK_BYTES // 128)
    for span in _blocks(n_rows, budget):
        k = np.repeat(np.arange(len(keep))[span], n_rows[span])
        i = _ranges(i_first[span], n_rows[span])
        j_first, n_pts = _row_intervals(edges, k, i, m)
        first = i * (m + 1) - i * (i - 1) // 2 + j_first
        for rows in _blocks(n_pts, budget):
            yield (_ranges(first[rows], n_pts[rows]),
                   keep[np.repeat(k[rows], n_pts[rows])])


def _row_intervals(edges: tuple, k: np.ndarray, i: np.ndarray, m: int):
    """(first j, count) of the lattice points of row i, j <= m - i, that
    pass the three edge functions of triangle k and lie in its j-range."""
    coef, slope, const, j_min, j_max = edges
    c_k = np.take(coef, k, axis=0)
    value = np.take(const, k, axis=0) - np.take(slope, k, axis=0) * i[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -value / c_k
    j_lo = np.maximum(j_min[k], np.where(c_k > 0.0, bound, -np.inf).max(axis=1))
    j_hi = np.minimum(j_max[k], np.where(c_k < 0.0, bound, np.inf).min(axis=1))
    j_first = np.ceil(np.clip(j_lo, 0, m + 1)).astype(np.int64)
    j_last = np.floor(np.clip(j_hi, -1, m - i)).astype(np.int64)
    n_pts = np.maximum(j_last - j_first + 1, 0)
    n_pts[((c_k == 0.0) & (value < 0.0)).any(axis=1)] = 0
    return j_first, n_pts


def _incidences(grid: _TriangleGrid, tris: np.ndarray, usable: np.ndarray, tol: float):
    """Yield blocks (point index, triangle index, s, t) of the pairs of a
    grid point and a usable triangle whose xy-projection holds the point's:
    s, t >= -tol and s + t <= 1 + tol.  Only the candidate pairs of the
    lattice scan are tested."""
    bary = _Barycentric2D(tris)
    for pt, k in _lattice_pairs(grid, bary, usable & bary.good, tol):
        s, t = bary.at(np.take(grid.points, pt, axis=0)[:, :2], k)
        inside = (s >= -tol) & (t >= -tol) & (s + t <= 1.0 + tol)
        yield pt[inside], k[inside], s[inside], t[inside]


def _points_in_triangles_2d(grid: _TriangleGrid, tris: np.ndarray,
                            tol: float = 1e-9) -> np.ndarray:
    """Boolean mask: each grid point inside (or on) the xy-projection of at
    least one triangle."""
    out = np.zeros(len(grid.points), dtype=bool)
    for pt, _, _, _ in _incidences(grid, tris, np.ones(len(tris), dtype=bool), tol):
        out[pt] = True
    return out


def _cover_heights(grid: _TriangleGrid, tris: np.ndarray) -> np.ndarray:
    """Upper bound on each grid point's distance to the triangles: the least
    vertical distance to a triangle whose xy-projection holds the point's,
    and inf where none does.  The slop is the exact kernel's: a point on a
    shared edge is covered, and the bound errs by no more than the kernel.
    A triangle whose projected area is below 1e-9 of its area is too
    steep for its barycentric s, t to be trusted and covers nothing."""
    z0 = tris[:, 0, 2]
    e0 = tris[:, 1] - tris[:, 0]
    e1 = tris[:, 2] - tris[:, 0]
    dz_b, dz_c = e0[:, 2], e1[:, 2]
    cross = np.cross(e0, e1)
    flat = np.abs(cross[:, 2]) > 1e-9 * np.linalg.norm(cross, axis=1)
    out = np.full(len(grid.points), np.inf)
    for pt, k, s, t in _incidences(grid, tris, flat, 1e-12):
        height = np.abs(z0[k] + s * dz_b[k] + t * dz_c[k] - grid.points[pt, 2])
        np.minimum.at(out, pt, height)
    return out


def _max_distance_to_patches(grid: _TriangleGrid, patches: np.ndarray) -> float:
    """max over the grid points of the exact distance to the nearest patch.

    Bound and refine (Taha & Hanbury, "An efficient algorithm for
    calculating the exact Hausdorff distance", IEEE TPAMI 37(11), 2015):
    the coverage pass bounds every point's distance from above, and the
    exact kernel runs only on points whose bound is positive.  A point
    that a patch passes through has bound 0 and is never refined.
    """
    far = _cover_heights(grid, patches) > 0.0
    if not far.any():
        return 0.0
    return float(points_to_triangles_distance(grid.points[far], patches).max())


def _triangle_curve_distance_2d(pts: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance of 2D points to the triangle's boundary curve."""
    v = vertices
    d = np.full(len(pts), np.inf)
    for i in range(3):
        d = np.minimum(d, points_segment_distance(pts, v[i], v[(i + 1) % 3]))
    return d


def verify_eff2(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL,
                state: PipelineState | None = None) -> TheoremReport:
    """Containment within 6 sqrt(eps) of the solid canonical triangle, and
    coverage of the triangle within 18 sqrt(eps) (the latter for
    eps < 1/384, certified through the projected annulus and winding)."""
    if band.lam >= SQRT3 + EFF_EPS_CAP:
        raise OutOfScopeError("out of theorem scope: lambda >= sqrt(3) + 1/4")
    state = prepare(band, tol) if state is None else state
    dev = state.developed
    eps = measured_eps(band)
    d6 = 6.0 * math.sqrt(eps)
    d18 = 18.0 * math.sqrt(eps)
    tri2 = CANONICAL_TRIANGLE[:, :2]

    containment_max = state.band_to_triangle
    containment_ok = containment_max <= d6

    measured = {"containment_max": containment_max}
    details: dict = {"eta_surface": ETA_SURFACE, "grid_pitch": GRID_PITCH}
    notes = ["outward wrinkle placement (embedding side) is not checked"]
    coverage_applicable = eps < COVERAGE_EPS_CAP
    coverage_ok = True
    if coverage_applicable:
        loop3 = boundary_polyline(dev)
        bdry2 = loop3.sample(ETA_SURFACE)[:, :2]
        annulus_max = float(_triangle_curve_distance_2d(bdry2, tri2).max())
        annulus_ok = annulus_max <= d6
        wind = winding_number(PolylineLoop(loop3.points[:, :2], closed=True), INCENTER[:2], tol)
        winding_ok = wind in (-1, 1)

        shrink = 1.0 - 3.0 * d6
        c_tri = INCENTER[:2] + shrink * (tri2 - INCENTER[:2])
        c_grid = _triangle_grid(c_tri, GRID_PITCH)
        covered = _points_in_triangles_2d(c_grid, state.patches)
        c_cov_ok = bool(covered.all())

        tri_cov_max = state.triangle_to_band
        tri_cov_ok = tri_cov_max <= d18

        coverage_ok = annulus_ok and winding_ok and c_cov_ok and tri_cov_ok
        measured.update(
            {
                "annulus_max": annulus_max,
                "winding": wind,
                "c_grid_uncovered": int((~covered).sum()),
                "triangle_coverage_max": tri_cov_max,
            }
        )
        details["c_grid_points"] = int(len(c_grid.points))
        if not winding_ok:
            notes.append("boundary does not generate the punctured-plane loop group")
    else:
        notes.append("coverage skipped: eps >= 1/384")

    passed = containment_ok and (coverage_ok if coverage_applicable else True)
    return TheoremReport(
        name="eff2",
        lam=band.lam,
        epsilon=eps,
        passed=passed,
        bounds={"six_sqrt": d6, "eighteen_sqrt": d18},
        measured=measured,
        checks=(),
        details=details,
        notes=tuple(notes),
    )


def verify_corollary(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL,
                     state: PipelineState | None = None) -> TheoremReport:
    """Hausdorff distance between the band and the solid canonical triangle
    below 18 sqrt(eps), for eps < 1/384.

    `band_to_triangle` is exact: the maximum over the bend endpoints, with
    no sampling pitch.  `triangle_to_band` is exact at each point of the
    triangle grid, so only the grid pitch (GRID_PITCH) discretizes it; it
    is computed once per PipelineState, through the coverage bound.
    """
    eps = measured_eps(band)
    if eps >= COVERAGE_EPS_CAP:
        raise OutOfScopeError("out of theorem scope: eps >= 1/384")
    state = prepare(band, tol) if state is None else state
    d18 = 18.0 * math.sqrt(eps)

    to_triangle = state.band_to_triangle
    to_band = state.triangle_to_band
    hausdorff = max(to_triangle, to_band)
    return TheoremReport(
        name="corollary",
        lam=band.lam,
        epsilon=eps,
        passed=hausdorff < d18,
        bounds={"eighteen_sqrt": d18},
        measured={
            "hausdorff": hausdorff,
            "band_to_triangle": to_triangle,
            "triangle_to_band": to_band,
            "ratio_to_sqrt_eps": hausdorff / math.sqrt(eps),
        },
        checks=(),
        details={"grid_pitch": GRID_PITCH},
    )


def verify_all(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL) -> list[TheoremReport]:
    """Run every verifier that is in scope for the band's aspect ratio."""
    validate_report = validate(band, tol)
    if not validate_report.passed:
        raise StructureError("band failed validation")
    state = prepare(band, tol)
    reports = [verify_eff(band, tol, state=state), verify_eff2(band, tol, state=state)]
    if measured_eps(band) < COVERAGE_EPS_CAP:
        reports.append(verify_corollary(band, tol, state=state))
    return reports
