import inspect
import math
import os
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from moebiusband import bounds
from moebiusband.band import build_triangular, build_wrinkle
from moebiusband.flatmodel import FlatTrapezoid
from moebiusband.geom import RigidMotion, StructureError, point_segment_distance
from moebiusband.verify import prepare

# The CLI tests run `python -m moebiusband.cli` in child processes, which
# must import the package from the same src/ as the tests; the pytest
# `pythonpath` setting reaches only this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def replace(value, **changes):
    """A new value of the same class, from the constructor arguments read off
    `value` with `changes` in place of some; the constructor validates it
    afresh.  An unknown name in `changes` is a TypeError."""
    names = inspect.signature(type(value)).parameters
    return type(value)(**({name: getattr(value, name) for name in names} | changes))


def densify_segment(a, b, eta: float) -> np.ndarray:
    """Points along the segment a-b at spacing <= eta (both ends included)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(1, int(np.ceil(np.linalg.norm(b - a) / eta)))
    t = np.linspace(0.0, 1.0, n + 1)
    return a[None, :] + t[:, None] * (b - a)[None, :]


def densify_polyline(points, eta: float, closed: bool = False) -> np.ndarray:
    """Sample a polyline at spacing <= eta; vertices are always included."""
    pts = np.asarray(points, dtype=float)
    out = [densify_segment(a, b, eta)[:-1] for a, b in zip(pts[:-1], pts[1:])]
    if closed:
        out.append(densify_segment(pts[-1], pts[0], eta)[:-1])
    else:
        out.append(pts[-1][None, :])
    return np.vstack(out)


def boundary_loop(band) -> np.ndarray:
    """The image of the band's boundary circle as its bend ends: the bottom
    feet in bend order, then, across the glued cut, the top feet."""
    return np.vstack([band.space[:, 0], band.space[:, 1]])


def scale_bend(band, index: int, factor: float):
    """Copy of the band with one space segment scaled about its midpoint
    (an injected isometry defect, for negative controls)."""
    space = band.space.copy()
    mid = 0.5 * (space[index, 0] + space[index, 1])
    space[index] = mid + factor * (space[index] - mid)
    return replace(band, space=space)


def reference_triangles_distance(pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the given triangles, in
    any position in R^3: the general kernel that `band.points_to_triangles_distance`
    was before it took triangles in z = 0 alone, kept as the tests' reference.

    The distance to a triangle is its plane distance |p.n - a.n| / |n| where
    the point lies on the inner side of all three edge lines and in no
    vertex region (Ericson, "Real-Time Collision Detection", 5.1.5),
    otherwise the distance to the nearest edge.  Both tests allow 1e-12: a
    point that far outside an edge line, or past the edges at a vertex,
    still counts as inside, so a point on an edge reads the plane distance.
    A triangle with n = 0 has edge distances only.  Edge distances are
    taken from the differences p - a, so nothing cancels near 0.  Inputs
    whose largest coordinate is below 1/2 are scaled up by a power of 2,
    at most 2^900, towards that size, with the slop, and the distances
    scaled back, so that no square underflows; the scaling is exact, and
    leaves the other inputs unchanged.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tris = np.asarray(tris, dtype=float)
    top = max(np.abs(pts).max(initial=0.0), np.abs(tris).max(initial=0.0))
    # at most 2^900, so that the slop stays finite
    scale = 2.0 ** min(900, max(0, -math.frexp(top)[1]))
    pts, tris, slop = pts * scale, tris * scale, 1e-12 * scale
    k = len(tris)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    nrm = np.cross(b - a, c - a)
    n_len = np.sqrt(np.einsum("ij,ij->i", nrm, nrm))
    a_n = np.einsum("ij,ij->i", a, nrm)

    # edge e runs from e_a to e_a + e_v; it leaves vertex e and enters the next
    e_a = np.concatenate([a, b, c], axis=0)
    e_v = np.concatenate([b - a, c - b, a - c], axis=0)
    e_vv = np.einsum("ij,ij->i", e_v, e_v)
    # (p - e_a).e_v past which p lies beyond either end by more than 1e-12
    before, after = -slop * np.sqrt(e_vv), e_vv + slop * np.sqrt(e_vv)
    # (p - e_a).(n x e_v) / |n x e_v| is how far p lies inside edge e's line
    inward = np.cross(nrm, e_v.reshape(3, k, 3)).reshape(-1, 3)
    a_in = np.einsum("ij,ij->i", e_a, inward)
    outside = -slop * np.sqrt(np.einsum("ij,ij->i", inward, inward))

    # nearest point on each edge: p - (e_a + t e_v), t clipped to [0, 1]
    d = [pts[:, i, None] - e_a[:, i] for i in range(3)]
    t = d[0] * e_v[:, 0] + d[1] * e_v[:, 1] + d[2] * e_v[:, 2]
    # the vertex region of vertex e: before edge e and after the edge
    # entering it.  Its test has no normal in it, so it holds on
    # slivers, where the edge-line tests would pass points beyond a tip
    enter = t > after
    corner = (t < before) & np.concatenate([enter[:, 2 * k:], enter[:, :2 * k]], axis=1)
    inner = (pts @ inward.T - a_in >= outside) & ~corner
    # on a zero-length edge t is left at its dot product, 0
    np.divide(t, e_vv, out=t, where=e_vv > 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    for i in range(3):
        d[i] -= t * e_v[:, i]
        d[i] *= d[i]
    d_edge = np.sqrt((d[0] + d[1] + d[2]).min(axis=1))
    inside = inner[:, :k] & inner[:, k:2 * k] & inner[:, 2 * k:] & (n_len > 0.0)
    d_plane = np.divide(np.abs(pts @ nrm.T - a_n), n_len, out=np.full(inside.shape, np.inf),
                        where=inside)
    return np.minimum(d_edge, d_plane.min(axis=1)) / scale


def random_motion(rng: np.random.Generator, scale: float = 1.0) -> RigidMotion:
    """Haar-ish random proper rotation plus a bounded random translation."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidMotion(q, rng.uniform(-scale, scale, size=3))


def midline_trapezoid(lam: float, t: float) -> FlatTrapezoid:
    """Development of M_lambda cut along a chord of displacement t, with the
    distinguished chord on the trapezoid midline: u and v sit at the
    midpoints of the top and bottom sides."""
    if not (lam > 0.0 and math.isfinite(lam) and math.isfinite(t)):
        raise StructureError("need a positive finite aspect ratio")
    return FlatTrapezoid(lam=lam, t=t, u=np.array([0.5 * (t + lam), 1.0]),
                         v=np.array([0.5 * (lam + t), 0.0]))


@pytest.fixture(scope="session")
def tri_band():
    return build_triangular()


@pytest.fixture(scope="session")
def wrinkle4():
    return build_wrinkle(1e-4)


@pytest.fixture(scope="session")
def tri_state(tri_band):
    return prepare(tri_band)


@pytest.fixture(scope="session")
def wrinkle4_state(wrinkle4):
    return prepare(wrinkle4)


def _samples_to_loop(samples, vertices):
    """max over the samples of the distance to the closed polyline through
    the vertices, measured against its exact edges, one edge at a time."""
    ends = np.roll(vertices, -1, axis=0)
    return float(reduce(np.minimum, (point_segment_distance(samples, a, b)
                                     for a, b in zip(vertices, ends))).max())


@pytest.fixture(scope="session")
def loop_hausdorff():
    """Hausdorff distance between two closed polylines, given by their
    vertices: the samples of each at spacing eta against the exact edges of
    the other.  Within eta of the exact value, and never above the
    sample-to-sample distance."""
    def hausdorff(a, b, eta):
        return max(_samples_to_loop(densify_polyline(a, eta, closed=True), b),
                   _samples_to_loop(densify_polyline(b, eta, closed=True), a))
    return hausdorff


# Grid references of the closed-form certificates in `bounds`: the scalar
# lemmas sampled on grids, which the tests hold to the closed forms.

def dense_hd_grid_certificate(n):
    """max(h, d) on the n interior points of linspace(0, 1, n + 2): its least
    value and first argmin, whether that argmin lies within one step of
    1/sqrt(3), whether every value is at least sqrt(3) - 1e-12 and every other
    value above it, and whether h increases and d decreases on the grid."""
    t = np.linspace(0.0, 1.0, n + 2)[1:-1]
    hv, dv = np.sqrt(1.0 + t * t) + t, np.sqrt(5.0 + t * t) - t
    m = np.maximum(hv, dv)
    i = int(np.argmin(m))
    return {
        "min_value": float(m[i]),
        "argmin_t": float(t[i]),
        "argmin_near_t_opt": bool(abs(t[i] - 1.0 / math.sqrt(3.0)) <= (t[1] - t[0]) * 1.000001),
        "min_above_sqrt3": bool(m.min() >= math.sqrt(3.0) - 1e-12),
        "others_strictly_above": bool(np.delete(m, i).min() > math.sqrt(3.0) - 1e-12),
        "h_increasing": bool(np.all(np.diff(hv) > 0.0)),
        "d_decreasing": bool(np.all(np.diff(dv) < 0.0)),
    }


def sq_margin_grids(n_side):
    """The (L, eps) grids of the square-root margins, each the meshgrid of two
    linspaces of n_side points: L for sq0 up to 3/2, L for sq1 up to
    3/sqrt(2), and eps up to 1/4."""
    es = np.linspace(0.25 / n_side, 0.25, n_side)
    l1_max = 3.0 / math.sqrt(2.0)
    l0, e = np.meshgrid(np.linspace(1.5 / n_side, 1.5, n_side), es, indexing="ij")
    l1, _ = np.meshgrid(np.linspace(l1_max / n_side, l1_max, n_side), es, indexing="ij")
    return l0, l1, e


def sq_margins(l0, l1, e):
    """The unsquared margins of sq0 and sq1 on their grids."""
    return (np.sqrt(l0**2 + 3.25 * e) - (l0 + e),
            np.sqrt(l1**2 + 4.5 * e) - (l1 + 0.5 * e))


def dense_sq_grid_certificate(n_side):
    """The square-root margins on their n_side by n_side grids: the least of
    each, and whether sq0 is nonnegative with its one zero at the corner
    (3/2, 1/4) and sq1 positive."""
    m0, m1 = sq_margins(*sq_margin_grids(n_side))
    i0 = np.unravel_index(int(np.argmin(m0)), m0.shape)
    zero_mask = np.abs(m0) <= 1e-12
    return {
        "sq0_min": float(m0.min()),
        "sq0_nonnegative": bool(m0.min() >= -1e-12),
        "sq0_zero_only_at_corner": bool(zero_mask.sum() == 1 and i0 == (n_side - 1, n_side - 1)),
        "sq1_min": float(m1.min()),
        "sq1_strictly_positive": bool(m1.min() > 0.0),
        "grid_points": int(m0.size),
    }


def dense_derivative_anchors():
    """Central finite differences of h and d at 1/sqrt(3), step 1e-7, and the
    largest slope t / sqrt(1 + t^2) on linspace(1e-6, 1 - 1e-6, 100_000)."""
    t0, step = 1.0 / math.sqrt(3.0), 1e-7
    t = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
    return {
        "h_prime": (bounds.h(t0 + step) - bounds.h(t0 - step)) / (2.0 * step),
        "d_prime": (bounds.d(t0 + step) - bounds.d(t0 - step)) / (2.0 * step),
        "max_abs_fprime": float((t / np.sqrt(1.0 + t * t)).max()),
    }
