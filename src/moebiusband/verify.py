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

Both distances between the band and the triangle come from the geometry,
with no sampling pitch: the band-to-triangle distance is the maximum over
the bend endpoints.  The triangle-to-band distance reads 0.0 where the
boundary cycle of the band's flat layer certifies it (`_flat_layer_covers`);
otherwise it is bounded from the projected boundary loop, as the paper's
18 sqrt(eps) = 2 * 6 sqrt(eps) + 6 sqrt(eps) is, by 2 * annulus_max + max|z|.

eps is always the measured lambda - sqrt(3), floored at 1e-15 so the
exact flat-folded band (eps = 0) is handled as a limit.  Because the
bounds are evaluated at exactly eps = lambda - sqrt(3), some of the
inequalities close non-strictly (the flat-folded limit attains them);
margin checks therefore allow a small slop where noted.
"""

import json
import math
from contextlib import suppress
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bounds
from .band import (
    APEX,
    BASE_L,
    BASE_R,
    CANONICAL_TRIANGLE,
    INCENTER,
    ISOMETRY_TOL,
    RuledBand,
    points_to_triangles_distance,
    surface_triangles,
)
from .flatmodel import SQRT3, FlatTrapezoid
from .geom import (
    Frozen,
    StructureError,
    point_segment_distance,
    winding_number,
)
from .tpattern import TPattern, develop_for, find_tpattern, normalize_pose

EPS_FLOOR = 1e-15
EFF_EPS_CAP = 0.25
COVERAGE_EPS_CAP = 1.0 / 384.0

# boundary images of the four boundary edges under the canonical triangle map
_I0_EDGE_IMAGES = {
    "D1": (BASE_R, APEX),
    "D2": (APEX, BASE_L),
    "H1": (BASE_L, np.zeros(3)),
    "H2": (np.zeros(3), BASE_R),
}
_BOUNDARY_EDGES = tuple(_I0_EDGE_IMAGES)
# the start and end images of those edges, one row per edge
_I0_STARTS, _I0_ENDS = (np.array([ends[i] for ends in _I0_EDGE_IMAGES.values()]) for i in (0, 1))


class OutOfScopeError(StructureError):
    """The band's aspect ratio exceeds the range a verifier covers."""


def measured_eps(band: RuledBand) -> float:
    return max(band.lam - SQRT3, EPS_FLOOR)


def check_scope(theorem: str, band: RuledBand) -> None:
    """Raise OutOfScopeError unless verify_<theorem> ("eff", "eff2" or
    "corollary") covers the band's aspect ratio.  Scope reads lambda
    alone, so a caller checks it before `prepare`."""
    if theorem == "corollary":
        if measured_eps(band) >= COVERAGE_EPS_CAP:
            raise OutOfScopeError("out of theorem scope: eps >= 1/384")
    elif band.lam >= SQRT3 + EFF_EPS_CAP:
        raise OutOfScopeError("out of theorem scope: lambda >= sqrt(3) + 1/4")


# ---------------------------------------------------------------------------
# Boundary parametrization of a developed band
# ---------------------------------------------------------------------------


class _Chain:
    """One horizontal boundary chain of a developed band: piecewise-linear
    space image parametrized by the development x-coordinate.

    A point is kept where its x exceeds that of the last kept point by more
    than 1e-13; a dropped point must lie within 1e-7 of that kept point.
    `seg` holds the length of each segment between kept points."""

    def __init__(self, xs: np.ndarray, pts: np.ndarray):
        kept, anchor, last = [], [], -math.inf
        for i, x in enumerate(xs.tolist()):
            if x - last > 1e-13:
                kept.append(i)
                last = x
            # each point against the last point kept at or before it
            anchor.append(kept[-1])
        if (np.linalg.norm(pts - pts[anchor], axis=1) > 1e-7).any():
            raise StructureError("boundary chain is not a function of x")
        self.xs = xs[kept]
        self.pts = pts[kept]
        self.seg = np.linalg.norm(np.diff(self.pts, axis=0), axis=1)

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.clip(np.atleast_1d(x), self.xs[0], self.xs[-1])
        j = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        f = (x - self.xs[j]) / (self.xs[j + 1] - self.xs[j])
        return self.pts[j] + f[:, None] * (self.pts[j + 1] - self.pts[j])


# ---------------------------------------------------------------------------
# Boundary deviation
# ---------------------------------------------------------------------------


class BoundaryDeviation(NamedTuple):
    deviation: float          # sup |I0 - I o phi| over the boundary
    istar_deviation: float    # sup |I - I*| (chordwise-affine comparison)
    i0_vs_istar: float        # sup |I0 - I* o phi|
    per_edge: dict
    u_image: np.ndarray       # the boundary image at the end u of H1
    v_image: np.ndarray       # the boundary image at the end v of D1


def boundary_deviation(trap: FlatTrapezoid, chains: tuple[_Chain, _Chain]) -> BoundaryDeviation:
    """Sup-norm comparison of the canonical triangle boundary map with the
    band's boundary image, the (bottom, top) `chains` of its development,
    under the edge-to-edge affine correspondence from the optimal trapezoid
    onto the band's trapezoid `trap`.  The normalizing isometry has already
    been applied to the band, so the comparison is coordinatewise.

    The sups are exact.  Along an edge, I0 and the chord map I* are affine
    in the edge fraction f and I o phi is piecewise affine, with breaks at
    the chain x-values inside the edge; the norm of an affine map is
    convex, so each sup sits at an edge end or at a break.

    Each chain is evaluated once, at the breaks of both its edges and at
    their ends.  An arc length sums the chain's cached segment lengths
    between the end pieces."""
    starts, ends = trap.boundary_edges()
    x0, x1 = starts[:, 0], ends[:, 0]
    fracs, images, end_images, arcs = [], [], [], []
    # the bottom chain carries D1 and D2, the top chain H1 and H2
    for k, chain in zip((0, 2), chains):
        at = []
        for j in (k, k + 1):
            lo, hi = sorted((x0[j], x1[j]))
            inner = chain.xs[(chain.xs > lo) & (chain.xs < hi)]
            fracs.append(np.concatenate([[0.0], (inner - x0[j]) / (x1[j] - x0[j]), [1.0]]))
            at.append(x0[j] + fracs[-1] * (x1[j] - x0[j]))
        pts = chain.eval(np.concatenate(at + [x0[k:k + 2], x1[k:k + 2]]))
        images.append(pts[:-4])
        end_images.append(pts[-2:])
        # each arc runs over the chain points strictly inside (x0 + 1e-13, x1 - 1e-13)
        inside = zip(np.searchsorted(chain.xs, x0[k:k + 2] + 1e-13, side="right"),
                     np.searchsorted(chain.xs, x1[k:k + 2] - 1e-13, side="left"))
        arcs += [_arc_length(chain, i0, i1, p0, p1)
                 for (i0, i1), p0, p1 in zip(inside, pts[-4:-2], pts[-2:])]
    # the rows of all four edges at once: I o phi, I0 and the chord map I*
    f = np.concatenate(fracs)[:, None]
    i_pts = np.concatenate(images)
    counts = np.array([len(f_e) for f_e in fracs])
    first = np.cumsum(counts) - counts
    edge = np.repeat(np.arange(4), counts)
    i0_pts = _I0_STARTS[edge] + f * (_I0_ENDS - _I0_STARTS)[edge]
    i_first, i_last = i_pts[first], i_pts[first + counts - 1]
    istar_pts = i_first[edge] + f * (i_last - i_first)[edge]
    dist = np.linalg.norm(np.stack([i0_pts - i_pts, i_pts - istar_pts, i0_pts - istar_pts]), axis=-1)
    sup_dev, sup_istar, sup_i0_star = np.maximum.reduceat(dist, first, axis=1).tolist()
    per_edge = {}
    for k, (name, arc) in enumerate(zip(_BOUNDARY_EDGES, arcs)):
        chord = float(np.linalg.norm(i_last[k] - i_first[k]))
        per_edge[name] = {
            "sup_dev": sup_dev[k],
            "sup_istar": sup_istar[k],
            "sup_i0_vs_istar": sup_i0_star[k],
            "flat_length": float(np.linalg.norm(ends[k] - starts[k])),
            "arc_length": arc,
            "chord_length": chord,
            "slack": arc - chord,
        }
    end_images = np.concatenate(end_images)   # the images of x1 of D1, D2, H1, H2
    return BoundaryDeviation(max(sup_dev), max(sup_istar), max(sup_i0_star), per_edge,
                             u_image=end_images[2], v_image=end_images[0])


def _arc_length(chain: _Chain, i0: int, i1: int, p0: np.ndarray, p1: np.ndarray) -> float:
    """Length of the chain's image from p0 through the chain points i0 to
    i1 - 1 to p1: the two end pieces and the cached segments between them,
    summed in order."""
    if i1 <= i0:
        return float(np.linalg.norm((p1 - p0)[None], axis=1).sum())
    l0, l1 = np.linalg.norm(np.stack([chain.pts[i0] - p0, p1 - chain.pts[i1 - 1]]), axis=1)
    return float(np.concatenate([[l0], chain.seg[i0:i1 - 1], [l1]]).sum())


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class TheoremReport(NamedTuple):
    """The verdict of one verifier."""

    name: str
    lam: float
    epsilon: float
    passed: bool
    bounds: dict
    measured: dict
    checks: tuple
    details: dict
    notes: tuple

    def to_dict(self) -> dict:
        """The report as JSON writes it: its fields, lam as "lambda", with
        each check as a dict of its own fields."""
        out = {("lambda" if name == "lam" else name): value
               for name, value in self._asdict().items()}
        out["checks"] = [c._asdict() for c in self.checks]
        return out


def write_report_json(reports: list[TheoremReport], path) -> None:
    # one write: json.dump with an indent writes each of its chunks apart
    with open(path, "w") as fh:
        fh.write(json.dumps([r.to_dict() for r in reports], indent=1) + "\n")


def write_csv_summary(reports: list[TheoremReport], path) -> None:
    import csv  # here, not at the top: only --csv needs it, and it costs start-up

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


class PipelineState(Frozen):
    """A band prepared for the verifiers; `prepare` makes it.  The boundary
    chains (read by eff alone), the ruled patches, the annulus and winding
    of the projected boundary loop and the two directed distances between
    the band and the solid canonical triangle are computed once, on first
    use."""

    pattern: TPattern      # the pattern found on the input band; its pose normalizes `developed`
    trapezoid: FlatTrapezoid
    developed: RuledBand   # pose-normalized, developed at the T bend, cut displacement >= 0

    def __init__(self, pattern: TPattern, trapezoid: FlatTrapezoid, developed: RuledBand):
        self._store(pattern=pattern, trapezoid=trapezoid, developed=developed)

    @cached_property
    def boundary(self) -> tuple[_Chain, _Chain]:
        """The bottom (y=0) and top (y=1) boundary chains of `developed`."""
        bottom, top = self.developed.boundary_chains()
        return _Chain(*bottom), _Chain(*top)

    @cached_property
    def patches(self) -> np.ndarray:
        """The ruled patches of `developed`, as (2N, 3, 3) triangles."""
        return surface_triangles(self.developed)

    @cached_property
    def band_to_triangle(self) -> float:
        """Exact distance from the band to the solid canonical triangle.
        Distance to a convex set is convex, so its maximum over each ruled
        patch sits at a vertex: the maximum over the bend endpoints of
        hypot(d_xy, z), the triangle lying in z = 0."""
        ends = self.developed.space.reshape(-1, 3)
        return float(points_to_triangles_distance(ends, CANONICAL_TRIANGLE[None]).max())

    @cached_property
    def loop(self) -> np.ndarray:
        """The xy-projection of the boundary loop of `developed`, as the
        bottom ends of its lifted bends.  The boundary circle traverses the
        bottom feet in bend order, crosses the glued cut, then traverses the
        top feet in bend order."""
        return self.developed.lifted[1][:, 0, :2]

    @cached_property
    def annulus_max(self) -> float:
        """Largest distance from the projected boundary loop to the
        boundary curve of the canonical triangle."""
        return _annulus_max(self.loop)

    @cached_property
    def winding(self) -> int:
        """Winding number of the projected boundary loop about the incenter."""
        return winding_number(self.loop, np.roll(self.loop, -1, axis=0), INCENTER[:2])

    @cached_property
    def coverage(self) -> tuple[float, str]:
        """`triangle_to_band`, the largest distance from a point of the
        canonical triangle to the band's ruled patches or an upper bound on
        it, and a note naming what bounded it.

        Where `_flat_layer_covers` certifies the flat patches, every point
        of the triangle lies within hypot(2 _RIM, _FLAT_Z) = 2.2e-13 of the
        band, below the 1e-12 slop of `points_to_triangles_distance`, and
        this reads 0.0.

        Otherwise, with a = annulus_max < 1/3 and the winding about the
        incenter +-1, it reads 2 a + max|z| over the bend endpoints.  A
        point of the triangle farther than a from its boundary curve is off
        the loop, and it has the incenter's odd winding, since those points
        form a triangle about the incenter that the loop does not meet.  The
        projected band is a mod-2 chain bounded by the loop, so by the
        cycle lemma of `winding_number`, taken mod 2, an odd number of
        projected patches hold the point, and it lies within that patch's
        |z|, at most max|z|, of the band.  Every other point of the
        triangle lies within 2 a of such points (a corner of the
        equilateral triangle is the farthest).  Where a premise fails this
        reads inf."""
        if _flat_layer_covers(self.patches):
            return 0.0, "triangle_to_band from the flat layer's boundary cycle"
        # the incenter lies 1/3 from the triangle's boundary curve, so first
        # make sure it is off the loop
        if not self.annulus_max < 1.0 / 3.0:
            return math.inf, "triangle_to_band not bounded: fails annulus_max < 1/3"
        if self.winding not in (-1, 1):
            return math.inf, "triangle_to_band not bounded: fails winding in (-1, 1)"
        max_z = float(np.abs(self.developed.space[..., 2]).max())
        return (2.0 * self.annulus_max + max_z,
                "triangle_to_band from the boundary loop: 2 annulus_max + max|z|")


def prepare(band: RuledBand) -> PipelineState:
    """The band prepared for the verifiers: find its T-pattern, develop it at
    the T bend and move the developed band into the pattern's normalized
    pose.  A band that fails validation raises InvalidBandError (from
    find_tpattern)."""
    tp = find_tpattern(band)
    trap, dev = develop_for(band, tp)
    return PipelineState(tp, trap, normalize_pose(dev, tp))


def _margin_checks(state: PipelineState, dev_report: BoundaryDeviation, eps: float) -> tuple:
    trap = state.trapezoid
    dev = state.developed
    len_t_prime = float(np.linalg.norm(dev.space[0, 1] - dev.space[0, 0]))
    u_prime, v_prime = dev_report.u_image, dev_report.v_image
    endpoints = {
        "w": dev.space[0, 0],
        "x": dev.space[0, 1],
        "u": u_prime,
        "v": v_prime,
    }
    return (
        bounds.lip_check(trap.t, eps),
        bounds.length_check(trap.len_h, trap.len_d),
        bounds.base_check(len_t_prime, trap.t, eps),
        bounds.height_check(-float(v_prime[1]), eps),
        bounds.offset_check(abs(float(v_prime[0])), eps),
        bounds.key_check(trap.len_d, trap.t),
        bounds.tpattern_endpoint_check(endpoints, eps),
    )


def _edge_slack_audit(dev_report: BoundaryDeviation, eps: float) -> dict:
    """Per-edge slack bound: each of the four boundary edges is shorter
    than 3 and carries at most eps of slack over its chord.

    Non-strict at the measured eps (the flat-folded limit attains it), and
    slackened by ISOMETRY_TOL: measured arc lengths are only trusted to
    that accuracy.
    """
    out = {}
    ok = True
    for name, rec in dev_report.per_edge.items():
        edge_ok = rec["flat_length"] < 3.0 and rec["slack"] <= eps + ISOMETRY_TOL
        out[name] = {"slack": rec["slack"], "flat_length": rec["flat_length"], "ok": edge_ok}
        ok = ok and edge_ok
    out["ok"] = ok
    return out


def verify_eff(state: PipelineState) -> TheoremReport:
    """Boundary bound: sup |I0 - psi o I o phi| < 6 sqrt(eps)."""
    band = state.developed
    check_scope("eff", band)
    eps = measured_eps(band)
    dev_rep = boundary_deviation(state.trapezoid, state.boundary)
    checks = _margin_checks(state, dev_rep, eps)
    bound6 = 6.0 * math.sqrt(eps)
    slack_audit = _edge_slack_audit(dev_rep, eps)
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


# a patch is flat where every vertex lies within _FLAT_Z of the plane z = 0.
# Pose normalization leaves the flat patches of a rigidly moved benchmark
# band at |z| <= 4e-16, and the others at |z| >= 1.3e-4.  Only flat patches
# enter the coverage certificate.
_FLAT_Z = 1e-13
# how far the remaining edges of a certified flat layer may lie from the
# triangle's edge lines: every point of the triangle then lies within
# hypot(2 _RIM, _FLAT_Z) = 2.2e-13 of the band, below the 1e-12 slop of
# points_to_triangles_distance, which reads band_to_triangle
_RIM = 9.8e-14
# the xy corners of CANONICAL_TRIANGLE, each edge running from a corner to
# the next, and the unit normals of the edge lines
_CORNERS = CANONICAL_TRIANGLE[:, :2]
_NEXT_CORNERS = CANONICAL_TRIANGLE[[1, 2, 0], :2]
_SIDES = _NEXT_CORNERS - _CORNERS
_LINE_NORMALS = np.stack([-_SIDES[:, 1], _SIDES[:, 0]], axis=1) / np.linalg.norm(_SIDES, axis=1)[:, None]


def _line_distances(pts: np.ndarray) -> np.ndarray:
    """Signed distances of the (n, 2) points from the triangle's three edge
    lines, (n, 3), all three negative inside the triangle."""
    return np.einsum("nij,ij->ni", pts[:, None, :] - _CORNERS, _LINE_NORMALS)


def _flat(patches: np.ndarray) -> np.ndarray:
    """Mask of the flat patches."""
    return (np.abs(patches[:, :, 2]) <= _FLAT_Z).all(axis=1)


def _flat_cycle(patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The boundary cycle of the flat patches whose xy-projection is
    positively oriented: its directed edges as (k, 2, 2) ends, and the
    count of each.  The edges of the patches cancel against their reversals
    where the endpoints are bitwise equal, -0.0 read as 0.0."""
    tris = patches[_flat(patches), :, :2] + 0.0
    e0, e1 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    tris = tris[e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0] > 0.0]
    # each directed edge as (lesser end, greater end), signed -1 if reversed
    start, end = tris.reshape(-1, 2), tris[:, [1, 2, 0]].reshape(-1, 2)
    back = (start[:, 0] > end[:, 0]) | ((start[:, 0] == end[:, 0]) & (start[:, 1] > end[:, 1]))
    keys = np.where(back[:, None], np.hstack([end, start]), np.hstack([start, end]))
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    count = np.bincount(np.cumsum(first) - 1, weights=np.where(back[order], -1.0, 1.0))
    left = count != 0.0
    return keys[first][left].reshape(-1, 2, 2), count[left]


def _flat_layer_covers(patches: np.ndarray) -> bool:
    """Whether the flat patches hold every point of the canonical triangle
    up to _RIM, certified from the degree of the flat layer.

    The positively oriented flat patches form a 2-chain in the plane, so
    by the cycle lemma of `winding_number` the winding of its boundary
    cycle (`_flat_cycle`, each edge weighted by its count) about a point
    off the cycle counts the patches that hold the point.  The certificate
    holds where every edge of the cycle has both endpoints within _RIM of
    one and the same edge line of the triangle, and the cycle winds a
    nonzero number of times about the incenter.  Then no edge separates the
    incenter from a point of the triangle farther than _RIM from all three
    edge lines, so a flat patch holds that point, and the rest of the
    triangle lies within 2 _RIM of such points (a corner of the equilateral
    triangle is the farthest).  A chord across the triangle fails the
    certificate.  The winding is taken after the edge-line test: an edge
    inside a broken layer can run through the incenter, which
    `winding_number` rejects, while the edges that pass the test stay
    1/3 - _RIM or more from it."""
    ends, count = _flat_cycle(patches)
    # distance of each end to each edge line of the triangle: (edges, 2, 3)
    dist = np.abs(_line_distances(ends.reshape(-1, 2))).reshape(-1, 2, 3)
    if not (dist.max(axis=1) <= _RIM).any(axis=1).all():
        return False
    return winding_number(ends[:, 0], ends[:, 1], INCENTER[:2], count) != 0


def _triangle_curve_distance_2d(pts: np.ndarray) -> np.ndarray:
    """Distance of 2D points to the canonical triangle's boundary curve."""
    return point_segment_distance(pts[:, None], _CORNERS, _NEXT_CORNERS).min(axis=1)


def _annulus_max(loop: np.ndarray) -> float:
    """Exact max over the closed 2D polyline `loop` of the distance to the
    canonical triangle's boundary curve.

    Outside the triangle that distance is the distance to a convex set,
    which is convex along a segment; inside it is the least of the three
    affine edge-line distances.  So on each segment of the loop the maximum
    sits at an end or where two edge-line distances are equal (a bisector
    crossing); every such point is a point of the loop."""
    # signed edge-line distances at every vertex, pairwise differences
    dist = _line_distances(loop)
    gap = dist - np.roll(dist, -1, axis=1)
    gap_next = np.roll(gap, -1, axis=0)
    k, pair = np.nonzero((gap < 0.0) != (gap_next < 0.0))
    t = gap[k, pair] / (gap[k, pair] - gap_next[k, pair])
    ends = np.roll(loop, -1, axis=0)
    crossings = loop[k] + t[:, None] * (ends[k] - loop[k])
    return float(_triangle_curve_distance_2d(np.vstack([loop, crossings])).max())


def verify_eff2(state: PipelineState) -> TheoremReport:
    """Containment within 6 sqrt(eps) of the solid canonical triangle, and
    coverage of the triangle within 18 sqrt(eps) (the latter for
    eps < 1/384, certified through the projected annulus and winding)."""
    band = state.developed
    check_scope("eff2", band)
    eps = measured_eps(band)
    d6 = 6.0 * math.sqrt(eps)
    d18 = 18.0 * math.sqrt(eps)

    containment_max = state.band_to_triangle
    containment_ok = containment_max <= d6

    measured = {"containment_max": containment_max}
    notes = ["outward wrinkle placement (embedding side) is not checked"]
    coverage_applicable = eps < COVERAGE_EPS_CAP
    coverage_ok = True
    if coverage_applicable:
        annulus_max = state.annulus_max
        annulus_ok = annulus_max <= d6
        wind = state.winding
        winding_ok = wind in (-1, 1)

        tri_cov_max, tri_cov_note = state.coverage
        tri_cov_ok = tri_cov_max <= d18

        coverage_ok = annulus_ok and winding_ok and tri_cov_ok
        measured.update({"annulus_max": annulus_max, "winding": wind})
        # The shrunk triangle C holds the points whose barycentric
        # coordinates are all >= d6, so each lies d6 or more from the
        # triangle's boundary curve: off the loop where annulus_ok (a point
        # on the loop is covered anyway).  Where winding_ok it has the
        # incenter's odd winding number.  The projected band is a mod-2
        # chain bounded by the loop, so a point of C on no patch would see
        # the loop bound in the plane minus that point, with even winding.
        # So annulus_ok and winding_ok leave no point of C uncovered.
        if annulus_ok and winding_ok:
            measured["c_grid_uncovered"] = 0
        else:
            failed = [premise for premise, ok in (("annulus_max <= 6 sqrt(eps)", annulus_ok),
                                                  ("winding in (-1, 1)", winding_ok)) if not ok]
            notes.append("coverage of C not certified: fails " + " and ".join(failed))
        measured["triangle_coverage_max"] = tri_cov_max
        if not winding_ok:
            notes.append("boundary does not generate the punctured-plane loop group")
        notes.append(tri_cov_note)
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
        details={},
        notes=tuple(notes),
    )


def verify_corollary(state: PipelineState) -> TheoremReport:
    """Hausdorff distance between the band and the solid canonical triangle
    below 18 sqrt(eps), for eps < 1/384.

    `band_to_triangle` is exact: the maximum over the bend endpoints, with
    no sampling pitch.  `triangle_to_band` reads 0.0, within 2.2e-13 of the
    supremum over the whole triangle, where the flat layer's boundary cycle
    certifies that flat patches hold every point; otherwise it is the bound
    2 annulus_max + max|z| of the projected boundary loop, or inf where the
    loop's premises fail, and a note says which.  Both come from the
    PipelineState, so eff2 and corollary share one computation.
    """
    band = state.developed
    check_scope("corollary", band)
    eps = measured_eps(band)
    d18 = 18.0 * math.sqrt(eps)

    to_triangle = state.band_to_triangle
    to_band, to_band_note = state.coverage
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
        details={},
        notes=(to_band_note,),
    )


def verify_all(band: RuledBand) -> list[TheoremReport]:
    """Run every verifier that is in scope for the band's aspect ratio.
    A band outside eff's scope raises OutOfScopeError before `prepare`; a
    band that fails validation raises InvalidBandError (from prepare)."""
    check_scope("eff", band)
    state = prepare(band)
    reports = [verify_eff(state), verify_eff2(state)]
    # corollary's scope is narrower; out of it, it is left out
    with suppress(OutOfScopeError):
        reports.append(verify_corollary(state))
    return reports
