"""Discrete embedded bands represented as bend foliations.

A band is stored as an ordered list of bends.  Each bend is a straight
segment with its endpoints (and only its endpoints) on the boundary of the
flat band, paired with its straight image segment in R^3.  Flat coordinates
are the development of the band cut open along bends[0] (see flatmodel for
the conventions); the glide map g(x, y) = (x + lambda, 1 - y) re-attaches
the far end of the development to the first bend, which encodes the
half-twist: traversing the full list returns to bend 0 with its endpoints
exchanged.

The two generators here are exact piecewise-rigid constructions: the
flat-folded triangular band (aspect ratio sqrt(3), image equal to the
canonical triangle), and the wrinkle family, a polygonal modification of
the triangular band with aspect ratio sqrt(3) + O(eps) whose image rises
O(sqrt(eps)) out of the plane.
"""

import json
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geom import (
    DEFAULT_TOL,
    Frozen,
    RigidMotion,
    StructureError,
    ToleranceConfig,
    point_segment_distance,
    rotation_about_line,
)
from .flatmodel import SQRT3, T_OPT, glide

FORMAT_VERSION = 1

SIDE = 2.0 / SQRT3  # side length of the canonical triangle (perimeter 2*sqrt(3))
APEX = np.array([0.0, -1.0, 0.0])
BASE_L = np.array([-T_OPT, 0.0, 0.0])
BASE_R = np.array([T_OPT, 0.0, 0.0])
CANONICAL_TRIANGLE = np.array([BASE_L, BASE_R, APEX])
INCENTER = np.array([0.0, -1.0 / 3.0, 0.0])

# the epsilons build_wrinkle accepts.  The closed-form plug closes the band's
# boundary lengths to rounding, below 1.2e-15 at every eps down to 1e-10, so
# validation sets no floor until the plug's bends crowd under its 1e-14
# duplicate spacing (the last failing band of a scan sat at 5.5e-13).  The
# floor is set by what the band measures: the verifiers read eps as
# lambda - sqrt(3) = 0.43 eps, and the rounding of lambda (1.1e-16) is
# 2.6e-8 of that at eps 1e-8, 2.6e-6 at 1e-10.
WRINKLE_EPS_MIN = 1e-8
WRINKLE_EPS_MAX = 1e-2

# the largest n_per_fan build_triangular accepts.  The band has 3 n bends,
# and find_tpattern's N x 2N sign matrix takes 144 MB at N = 3,000; at
# 100,000,000 the process ran out of memory
N_PER_FAN_MAX = 1000

# reflections (about lines through the origin) used by the flat folding:
# _REFL_L fixes the line through (-1/sqrt(3), 1), _REFL_R its mirror image.
_REFL_L = np.array([[-0.5, -0.5 * SQRT3], [-0.5 * SQRT3, 0.5]])
_REFL_R = np.array([[-0.5, 0.5 * SQRT3], [0.5 * SQRT3, 0.5]])


class RuledBand(Frozen):
    """Ordered bend foliation of an embedded band.

    flat: (N, 2, 2) development coordinates, rows [bottom, top] per bend,
        bottom on y = 0, top on y = 1, and flat[0, 0] at the origin.
    space: (N, 2, 3) image segments, same row convention.
    lam: aspect ratio of the underlying flat band.
    """

    lam: float
    flat: np.ndarray
    space: np.ndarray

    def __init__(self, lam: float, flat: np.ndarray, space: np.ndarray):
        flat = np.asarray(flat, dtype=float)
        space = np.asarray(space, dtype=float)
        if flat.ndim != 3 or flat.shape[1:] != (2, 2):
            raise StructureError("flat must have shape (N, 2, 2)")
        if space.shape != (flat.shape[0], 2, 3):
            raise StructureError("space must have shape (N, 2, 3)")
        if not (np.isfinite(flat).all() and np.isfinite(space).all()):
            raise StructureError("band coordinates must be finite")
        if not (lam > 0.0 and math.isfinite(lam)):
            raise StructureError("aspect ratio must be positive")
        self._store(lam=lam, flat=flat, space=space)

    @property
    def n_bends(self) -> int:
        return self.flat.shape[0]

    def flat_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.flat[:, 1] - self.flat[:, 0], axis=1)

    def space_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.space[:, 1] - self.space[:, 0], axis=1)

    def cut_displacement(self) -> float:
        """Horizontal displacement of the cut bend (bends[0])."""
        return float(self.flat[0, 1, 0] - self.flat[0, 0, 0])

    @cached_property
    def lifted(self) -> tuple[np.ndarray, np.ndarray]:
        """The bends over the orientation double cover of the parameter
        circle, (2N, 2, 2) flat and (2N, 2, 3) space, read-only: bend N + k
        is bend k glided by lambda, its space segment reversed."""
        flat = np.concatenate([self.flat, glide(self.flat, self.lam)])
        space = np.concatenate([self.space, self.space[:, ::-1]])
        for a in (flat, space):
            a.setflags(write=False)
        return flat, space

    def boundary_chains(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The bottom (y=0) and top (y=1) boundary chains of the
        development, each as (x-values, space points) of the ends of the
        lifted bends 0 to N: the bends, then the glued copy of bends[0]."""
        flat, space = self.lifted
        return tuple((flat[:self.n_bends + 1, side, 0], space[:self.n_bends + 1, side])
                     for side in (0, 1))


def shared_ends(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which ends, [bottom, top], of flat bends a and b lie within 1e-14 in
    x: a shared end, and where both do, a duplicate bend to `validate`."""
    return np.abs(b[..., 0] - a[..., 0]) < 1e-14


def stored_bend(band: RuledBand, p: float) -> int | None:
    """The lifted bend that the leaf at lifted parameter p is read as: one
    within 1e-12 of p, else one it duplicates to `validate`, else None."""
    if abs(p - (j := round(p))) <= 1e-12:
        return j
    flat, i = band.lifted[0], math.floor(p)
    leaf = leaf_between(flat[i], flat[i + 1], p - i)
    return next((j for j in (i, i + 1) if shared_ends(leaf, flat[j]).all()), None)


class ValidationReport(NamedTuple):
    max_ruling_residual: float
    max_boundary_residual: float
    foliation_violations: int
    passed: bool


def validate(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check the discrete necessary conditions for an isometric embedding.

    Verified: bend endpoints on the boundary lines, ruling isometry
    (|space length - flat length| <= tol relative), boundary arc-length
    isometry edge by edge including the glued wrap, foliation ordering
    (no consecutive crossings or duplicate bends) and the width-1 chord
    bound flat length >= 1.
    """
    n = band.n_bends
    if n < 8:
        raise StructureError(f"need at least 8 bends, got {n}")
    flat = band.flat
    if np.max(np.abs(flat[:, 0, 1])) > 1e-9 or np.max(np.abs(flat[:, 1, 1] - 1.0)) > 1e-9:
        raise StructureError("bend endpoints must lie on the boundary lines y=0, y=1")
    if abs(flat[0, 0, 0]) > 1e-9 or abs(flat[0, 0, 1]) > 1e-9:
        raise StructureError("development must start with bends[0] at the origin")

    flat_len = band.flat_lengths()
    space_len = band.space_lengths()
    ruling = np.abs(space_len - flat_len) / np.maximum(1.0, flat_len)
    max_ruling = float(ruling.max())

    # the boundary edges between the lifted bends 0 to N, the glued wrap
    # edge last: x-steps and space lengths of [bottom, top]
    lifted_flat, lifted_space = band.lifted
    d = np.diff(lifted_flat[:n + 1, :, 0], axis=0)
    res = np.abs(np.linalg.norm(np.diff(lifted_space[:n + 1], axis=0), axis=2) - d)
    max_boundary = float(res.max())

    violations = int(np.count_nonzero((d < -1e-12).any(axis=1)))
    duplicate = shared_ends(lifted_flat[:n], lifted_flat[1:n + 1]).all(axis=1)
    violations += int(np.count_nonzero(duplicate))
    short = flat_len < 1.0 - 1e-9
    violations += int(np.count_nonzero(short))

    passed = max_ruling <= tol.isometry and max_boundary <= tol.isometry and violations == 0
    return ValidationReport(max_ruling, max_boundary, violations, passed)


# ---------------------------------------------------------------------------
# Flat-folded triangular band
# ---------------------------------------------------------------------------


def _fold(pts: np.ndarray, refl: np.ndarray) -> np.ndarray:
    """Image of flap points (centered coordinates of the triangular band)
    in the plane z=0: reflected by `refl`, _REFL_L for the left flap and
    _REFL_R for the right."""
    r = pts @ refl.T
    out = np.zeros(pts.shape[:-1] + (3,))
    out[..., 0] = r[..., 0]
    out[..., 1] = r[..., 1] - 1.0
    return out


def _assemble(lam: float, pieces: list[tuple[np.ndarray, np.ndarray]], shift: float) -> RuledBand:
    """Stack per-piece (flat, space) bend arrays and move to development
    coordinates (bends[0] bottom endpoint at the origin)."""
    flat = np.concatenate([p[0] for p in pieces], axis=0)
    space = np.concatenate([p[1] for p in pieces], axis=0)
    flat = flat.copy()
    flat[:, :, 0] += shift
    flat[:, :, 0] -= flat[0, 0, 0]
    flat[0, 0, 0] = 0.0
    return RuledBand(lam=lam, flat=flat, space=space)


def _fan(bottoms: np.ndarray, tops: np.ndarray,
         space_bottoms: np.ndarray, space_tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = len(bottoms)
    flat = np.zeros((k, 2, 2))
    flat[:, 0, 0] = bottoms
    flat[:, 1, 0] = tops
    flat[:, 1, 1] = 1.0
    space = np.stack([space_bottoms, space_tops], axis=1)
    return flat, space


def _outer_fans(n: int, half: float) -> tuple[tuple[np.ndarray, np.ndarray],
                                                 tuple[np.ndarray, np.ndarray]]:
    """The triangular band's two flaps as fans of bends, folded onto the
    triangle's sides: the left fan (n + 1 bends from the bottom edge to its
    top vertex, the cut bend first) and the right fan (n - 1 bends, without
    the glued copy of the cut bend), with flat x moved by -half and +half."""
    fans = []
    for s, sign, refl, base in ((np.linspace(-SIDE, 0.0, n + 1), -1.0, _REFL_L, BASE_L),
                                (np.linspace(0.0, SIDE, n + 1)[1:-1], 1.0, _REFL_R, BASE_R)):
        k = len(s)
        fans.append(_fan(s + sign * half, np.full(k, sign * (T_OPT + half)),
                         _fold(np.stack([s, np.zeros(k)], axis=1), refl), np.tile(base, (k, 1))))
    return fans[0], fans[1]


def build_triangular(n_per_fan: int = 48) -> RuledBand:
    """The flat-folded band of aspect ratio sqrt(3).

    Its image is the canonical equilateral triangle with vertices
    (+-1/sqrt(3), 0, 0) and (0, -1, 0) (perimeter 2*sqrt(3), height 1),
    covered by three fans of bends.  The cut bend (bends[0]) maps onto the
    triangle base in the X-axis and the central bend of the middle fan maps
    onto the segment from the origin to (0, -1, 0).
    """
    if not 4 <= n_per_fan <= N_PER_FAN_MAX or n_per_fan % 2:
        raise StructureError(f"n_per_fan must be an even integer in [4, {N_PER_FAN_MAX}], "
                             f"not {n_per_fan}")
    n = n_per_fan
    fan_l, fan_r = _outer_fans(n, 0.0)
    # middle fan: bends from the bottom vertex to the top edge
    sig = np.linspace(-T_OPT, T_OPT, n + 1)[1:]
    mid_tops = np.zeros((n, 3))
    mid_tops[:, 0] = sig
    fan_m = _fan(np.zeros(n), sig, np.tile(APEX, (n, 1)), mid_tops)
    return _assemble(SQRT3, [fan_l, fan_m, fan_r], shift=SIDE)


# ---------------------------------------------------------------------------
# Wrinkle family
# ---------------------------------------------------------------------------


class WrinkleConfig(NamedTuple):
    n_fan: int = 40
    n_door: int = 12
    n_plug_side: int = 6
    n_plug_mid: int = 12


def _reflect_across(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reflect 2D points across the line through a and b."""
    d = b - a
    d = d / np.linalg.norm(d)
    rel = pts - a
    proj = rel @ d
    return a + 2.0 * proj[..., None] * d - rel


def build_wrinkle(epsilon: float, config: WrinkleConfig | None = None) -> RuledBand:
    """Polygonal band of aspect ratio sqrt(3) + O(eps) with a wrinkle.

    The triangle covered by the middle fan of the triangular band is slit
    along its vertical midline; the two triangular doors rotate about their
    outer sides by theta = sqrt(eps), opening a crack that
    rises (sin theta)/2 out of the plane.  A vertical strip of width w is
    inserted into the flat band at the slit and folded into a planar plug
    whose vertical edges form a V isometric to the crack; the plug is glued
    into the crack.

    The plug is built in closed form.  The strip [-w/2, w/2] x [0, 1] is
    folded along the creases from its top midpoint to (+-c, 0).  Each fold
    turns a vertical edge by 2 atan(c), so the folded edges open a V of
    angle 4 atan(c), and the two bottom corners meet on the midline x = 0
    where w c^2 + 4 c - w = 0.  For the crack angle gamma that gives
    c = tan(gamma/4) and w = 2 tan(gamma/2).  The folded V is symmetric
    about the strip's midline, as the crack is about the plane x = 0, but
    the folds cross its edges over: the strip's left edge ends up on the
    right.  So the fixed mirror (x, y) -> (-x, y), onto the crack's plane
    spanned by e_x and the crack's bisector, lays the V onto the crack, and
    the whole construction is exactly piecewise isometric.
    """
    cfg = config or WrinkleConfig()
    if not (WRINKLE_EPS_MIN <= epsilon <= WRINKLE_EPS_MAX):
        raise StructureError(f"epsilon must lie in [{WRINKLE_EPS_MIN:g}, {WRINKLE_EPS_MAX:g}]")
    theta = math.sqrt(epsilon)
    rot_l = rotation_about_line(BASE_L, APEX - BASE_L, theta)
    rot_r = rotation_about_line(BASE_R, APEX - BASE_R, -theta)
    # the slit-edge tips after the door rotations, and the opening angle of
    # the crack V at the apex (atan2 stays well conditioned near zero)
    o_l, o_r = rot_l.apply(np.zeros(3)), rot_r.apply(np.zeros(3))
    u, v = o_l - APEX, o_r - APEX
    gamma = math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))
    width = 2.0 * math.tan(0.5 * gamma)
    c = math.tan(0.25 * gamma)
    half = width / 2.0
    lam = SQRT3 + width

    t0, k1, k2 = np.array([0.0, 1.0]), np.array([-c, 0.0]), np.array([c, 0.0])
    vertex = _reflect_across(np.array([-half, 0.0]), t0, k1)
    bis = 0.5 * (o_l + o_r) - APEX
    e_x, b_hat = np.array([1.0, 0.0, 0.0]), bis / np.linalg.norm(bis)

    def plug(pts: np.ndarray) -> np.ndarray:
        """Fold strip points along the creases, then mirror them onto the crack."""
        q = pts.copy()
        y = pts[:, 1]
        left = pts[:, 0] < -c * (1.0 - y) - 1e-15
        right = pts[:, 0] > c * (1.0 - y) + 1e-15
        q[left] = _reflect_across(pts[left], t0, k1)
        q[right] = _reflect_across(pts[right], t0, k2)
        q -= vertex
        return APEX - q[:, :1] * e_x + q[:, 1:] * b_hat

    def door(pts2: np.ndarray, rot: RigidMotion, shift: float) -> np.ndarray:
        q = np.zeros(pts2.shape[:-1] + (3,))
        q[..., 0] = pts2[..., 0] + shift
        q[..., 1] = pts2[..., 1] - 1.0
        return rot.apply(q)

    n1, n2, n3, n4 = cfg.n_fan, cfg.n_door, cfg.n_plug_side, cfg.n_plug_mid
    x0w = -T_OPT - half   # top vertex of the left flap
    w0w = T_OPT + half    # top vertex of the right flap
    # the outer fans are the triangular band's flaps, moved apart by the
    # plug's width in the flat band; the cut bend and the left hinge are the
    # left fan's
    fan_l, fan_r = _outer_fans(n1, half)
    pieces = [fan_l]

    # left door: fan from the bottom slit foot, sweeping hinge -> seam
    tops = np.linspace(x0w, -half, n2 + 1)[1:]
    pieces.append(_fan(
        np.full(n2, -half), tops,
        np.tile(APEX, (n2, 1)),
        door(np.stack([tops, np.ones(n2)], axis=1), rot_l, half),
    ))
    # plug, left piece: seam -> first crease
    bots = np.linspace(-half, -c, n3 + 1)[1:]
    tops = np.linspace(-half, 0.0, n3 + 1)[1:]
    pieces.append(_fan(
        bots, tops,
        plug(np.stack([bots, np.zeros(n3)], axis=1)),
        plug(np.stack([tops, np.ones(n3)], axis=1)),
    ))
    # plug, middle fan from the top midpoint: crease -> crease
    bots = np.linspace(-c, c, n4 + 1)[1:]
    pieces.append(_fan(
        bots, np.zeros(n4),
        plug(np.stack([bots, np.zeros(n4)], axis=1)),
        plug(np.tile([0.0, 1.0], (n4, 1))),
    ))
    # plug, right piece: crease -> seam
    bots = np.linspace(c, half, n3 + 1)[1:]
    tops = np.linspace(0.0, half, n3 + 1)[1:]
    pieces.append(_fan(
        bots, tops,
        plug(np.stack([bots, np.zeros(n3)], axis=1)),
        plug(np.stack([tops, np.ones(n3)], axis=1)),
    ))
    # right door: seam -> hinge
    tops = np.linspace(half, w0w, n2 + 1)[1:]
    pieces.append(_fan(
        np.full(n2, half), tops,
        np.tile(APEX, (n2, 1)),
        door(np.stack([tops, np.ones(n2)], axis=1), rot_r, -half),
    ))
    pieces.append(fan_r)
    return _assemble(lam, pieces, shift=SIDE + half)


# ---------------------------------------------------------------------------
# Derived geometry
# ---------------------------------------------------------------------------


def sample_surface(band: RuledBand, eta: float) -> np.ndarray:
    """Sample every bend segment at spacing <= eta."""
    if not eta > 0.0:
        raise StructureError("eta must be positive")
    lengths = band.space_lengths()
    counts = np.maximum(1, np.ceil(lengths / eta).astype(int))
    out = []
    for seg, k in zip(band.space, counts):
        t = np.linspace(0.0, 1.0, k + 1)
        out.append(seg[0] + t[:, None] * (seg[1] - seg[0]))
    return np.vstack(out)


def surface_triangles(band: RuledBand) -> np.ndarray:
    """Triangulation of the ruled patches between consecutive bends
    (including the glued wrap patch): (2N, 3, 3) array."""
    (_, bot), (_, top) = band.boundary_chains()
    a, b = bot[:-1], bot[1:]
    c, d = top[:-1], top[1:]
    tris = np.concatenate(
        [np.stack([a, b, d], axis=1), np.stack([a, d, c], axis=1)], axis=0
    )
    return tris


def points_to_triangles_distance(pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest of the given solid
    triangles, which must lie in the plane z = 0.

    For a point p it is hypot(d_xy, p_z), with d_xy the planar distance from
    p's xy to the triangle: 0 where the xy lies on the inner side of all
    three edge lines, whatever the triangle's orientation, or within 1e-12
    of an edge, so that a point on an edge reads 0 through rounding;
    elsewhere the distance to the nearest edge.  The slop is measured from
    the edges, not from the edge lines, which beyond the tip of a sliver
    meet far outside it.  A triangle of zero area has edge distances only.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tris = np.asarray(tris, dtype=float)
    if (tris[..., 2] != 0.0).any():
        raise StructureError("points_to_triangles_distance takes triangles in the plane z = 0")
    # edge e of a triangle runs from its vertex e to the next, by v, and
    # each point is taken relative to both its ends: (n, k, 3, 2)
    a = tris[:, :, :2]
    b = np.roll(a, -1, axis=1)
    v = b - a
    start, end = (pts[:, None, None, :2] - x for x in (a, b))
    d_xy = point_segment_distance(start, np.zeros(2), v).min(axis=2)
    # the side of each edge line the point lies on, from the edge's nearer
    # end: it rounds by u times the distance from that end, so a point past
    # the tip of a sliver is not read inside; twice the area, from vertex 0
    nearer = np.einsum("...i,...i", start, start) <= np.einsum("...i,...i", end, end)
    near = np.where(nearer[..., None], start, end)
    side = near[..., 0] * v[..., 1] - near[..., 1] * v[..., 0]
    area = v[:, 2, 0] * v[:, 0, 1] - v[:, 2, 1] * v[:, 0, 0]
    inside = (side >= 0.0).all(axis=2) | (side <= 0.0).all(axis=2) | (d_xy <= 1e-12)
    d_xy[inside & (area != 0.0)] = 0.0
    return np.hypot(d_xy.min(axis=1), pts[:, 2])


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def transform(band: RuledBand, motion: RigidMotion) -> RuledBand:
    """Apply an ambient isometry to the space data."""
    space = motion.apply(band.space.reshape(-1, 3)).reshape(band.space.shape)
    return RuledBand(band.lam, band.flat, space)


def flip(band: RuledBand) -> RuledBand:
    """Reverse the flat band's transverse orientation: (x, y) -> (x, 1 - y).

    This is an isometry of the flat band compatible with the glide
    identification; it negates the displacement of every bend.  Endpoint
    rows are swapped to keep the [bottom, top] convention and the
    development is re-anchored at the new bends[0] bottom endpoint.
    """
    flat = glide(band.flat, -band.flat[0, 1, 0])
    space = band.space[:, ::-1, :].copy()
    return RuledBand(band.lam, flat, space)


def redevelop(band: RuledBand, alpha: float) -> RuledBand:
    """Develop the band cut open along the (possibly interpolated) leaf at
    parameter alpha in [0, N), which `stored_bend` may read as a stored
    bend: the leaf, then the lifted bends ceil(alpha) to ceil(alpha) + N,
    so bends before the cut move past the far end via the glide map."""
    n = band.n_bends
    alpha = float(alpha) % n
    if (j := stored_bend(band, alpha)) is not None:
        alpha = float(j % n)
    # a cut in the wrap patch (N-1, N) gives i0 = N: every bend glides
    i0 = math.ceil(alpha)
    flat, space = band.lifted
    flats, spaces = [flat[i0:i0 + n]], [space[i0:i0 + n]]
    if alpha < i0:
        leaf_flat, leaf_space = interpolate_bend(band, alpha)
        flats.insert(0, leaf_flat[None])
        spaces.insert(0, leaf_space[None])
    flat = np.concatenate(flats)
    space = np.concatenate(spaces)
    flat[:, :, 0] -= flat[0, 0, 0]
    return RuledBand(band.lam, flat, space)


def leaf_between(b0: np.ndarray, b1: np.ndarray, f) -> np.ndarray:
    """(1 - f) b0 + f b1, the leaf at fraction f from bend b0 to bend b1;
    an endpoint the two bends share (a fan vertex) stays bitwise exact."""
    return np.where(b0 == b1, b0, (1.0 - f) * b0 + f * b1)


def interpolate_bend(band: RuledBand, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Leaf of the foliation at fractional parameter p in [0, N] between
    adjacent lifted bends.  At p = N it is the glued copy of bends[0], so
    the interpolation is continuous across the cut (with exchanged
    endpoints)."""
    n = band.n_bends
    if not (0.0 <= p <= n):
        raise StructureError("bend parameter out of range")
    i = int(math.floor(p))
    f = p - i
    flat, space = band.lifted
    return leaf_between(flat[i], flat[i + 1], f), leaf_between(space[i], space[i + 1], f)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_json_dict(band: RuledBand) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "lambda": band.lam,
        "closed": True,
        "bends": [
            {"flat": bf.tolist(), "space": bs.tolist()}
            for bf, bs in zip(band.flat, band.space)
        ],
    }


def write_json(band: RuledBand, path) -> None:
    # one write: json.dump with an indent writes each of its chunks apart
    with open(path, "w") as fh:
        fh.write(json.dumps(to_json_dict(band), indent=1) + "\n")


_BAND_KEYS = {"format_version", "lambda", "closed", "bends"}
# each bend key and the width of its two rows
_BEND_KEYS = {"flat": 2, "space": 3}
# below it, the difference of two points has a finite squared length:
# 3 (2 * 2**510)**2 < 2**1024
_COORD_LIMIT = 2.0 ** 510


def _coordinates(pairs: list, key: str, width: int) -> np.ndarray:
    """The bends' `key` values, each two arrays of `width` JSON numbers, as
    one (N, 2, width) array built from one flat list."""
    for i, pair in enumerate(pairs):
        if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is list
                and len(pair[0]) == len(pair[1]) == width):
            raise ValueError(f"bend {i} {key} must be two arrays of {width} numbers")
    values = [x for pair in pairs for row in pair for x in row]
    # np.array(..., dtype=float) would read "0.5" as 0.5, true as 1.0 and null as NaN
    if not set(map(type, values)) <= {float, int}:
        k = next(k for k, x in enumerate(values) if type(x) not in (float, int))
        raise TypeError(f"bend {k // (2 * width)} {key} coordinates must be numbers, "
                        f"not {json.dumps(values[k])}")
    return np.array(values, dtype=float).reshape(-1, 2, width)


def from_json_dict(data: dict) -> RuledBand:
    try:
        version = data["format_version"]
        lam = data["lambda"]
        # a JSON boolean is an int to Python; float(true) would read 1.0
        if isinstance(lam, bool) or not isinstance(lam, (int, float)):
            raise TypeError(f"lambda must be a number, not {json.dumps(lam)}")
        lam = float(lam)
        closed = data.get("closed", True)
        bends = data["bends"]
        flat, space = (_coordinates([b[k] for b in bends], k, w) for k, w in _BEND_KEYS.items())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"malformed band file: {exc}") from exc
    # every bend is an object by now, so one union collects their keys
    for what, keys, known in (("key", data.keys(), _BAND_KEYS),
                              ("bend key", set().union(*bends), _BEND_KEYS.keys())):
        if unknown := sorted(keys - known):
            raise StructureError(f"malformed band file: unknown {what} "
                                 + ", ".join(map(repr, unknown)))
    # as for lambda: true == 1 and 1.0 == 1 would pass a bare comparison
    if type(version) is not int or version != FORMAT_VERSION:
        raise StructureError(f"unsupported format_version {version!r}")
    if closed is not True:
        raise StructureError(f"closed must be true, got {closed!r}")
    if not bends:
        raise StructureError("malformed band file: no bends")
    band = RuledBand(lam=lam, flat=flat, space=space)
    if max(np.abs(flat).max(), np.abs(space).max()) >= _COORD_LIMIT:
        raise StructureError("malformed band file: coordinates must lie below 2**510 "
                             "in magnitude, where squared lengths stay finite")
    return band


def read_json(path) -> RuledBand:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise StructureError(f"band file is not UTF-8: {exc}") from exc
        # json's C scanner refuses nesting deeper than the recursion limit
        except (json.JSONDecodeError, RecursionError) as exc:
            raise StructureError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)
