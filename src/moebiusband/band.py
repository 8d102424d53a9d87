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

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import (
    DEFAULT_TOL,
    PolylineLoop,
    RigidMotion,
    StructureError,
    ToleranceConfig,
    rotation_about_line,
)
from .flatmodel import SQRT3, T_OPT

FORMAT_VERSION = 1

SIDE = 2.0 / SQRT3  # side length of the canonical triangle (perimeter 2*sqrt(3))
APEX = np.array([0.0, -1.0, 0.0])
BASE_L = np.array([-T_OPT, 0.0, 0.0])
BASE_R = np.array([T_OPT, 0.0, 0.0])
CANONICAL_TRIANGLE = np.array([BASE_L, BASE_R, APEX])
INCENTER = np.array([0.0, -1.0 / 3.0, 0.0])

# the epsilons build_wrinkle accepts.  The closure leaves the band's boundary
# lengths off by rounding that grows like 1/eps, about 3e-15 / eps at most on
# a log scan of 6,400 epsilons over [1e-6, 1e-2]; the last band that failed
# validation under DEFAULT_TOL (isometry 1e-9) sat at 2.99e-6, and from 1e-5
# up the residual stays below 3e-10.  Below about 1e-11 the closure solve
# fails, and below about 1e-16 the crease offset divides by zero.
WRINKLE_EPS_MIN = 1e-5
WRINKLE_EPS_MAX = 1e-2

# size of each (points, 3 x triangles)-shaped float64 temporary of the
# chunked point-to-triangle kernel, and of all arrays of one block of lattice
# rows or points of verify's fallback lattice scan; small enough to stay in
# cache and to keep every chunk from faulting in fresh pages
CHUNK_BYTES = 1 << 19

# reflections (about lines through the origin) used by the flat folding:
# _REFL_L fixes the line through (-1/sqrt(3), 1), _REFL_R its mirror image.
_REFL_L = np.array([[-0.5, -0.5 * SQRT3], [-0.5 * SQRT3, 0.5]])
_REFL_R = np.array([[-0.5, 0.5 * SQRT3], [0.5 * SQRT3, 0.5]])


class WrinkleClosureError(StructureError):
    """The plug width solve did not reach its residual target."""


@dataclass(frozen=True)
class RuledBand:
    """Ordered bend foliation of an embedded band.

    flat: (N, 2, 2) development coordinates, rows [bottom, top] per bend,
        bottom on y = 0, top on y = 1, and flat[0, 0] at the origin.
    space: (N, 2, 3) image segments, same row convention.
    lam: aspect ratio of the underlying flat band.
    """

    lam: float
    flat: np.ndarray
    space: np.ndarray
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=float)
        space = np.asarray(self.space, dtype=float)
        if flat.ndim != 3 or flat.shape[1:] != (2, 2):
            raise StructureError("flat must have shape (N, 2, 2)")
        if space.shape != (flat.shape[0], 2, 3):
            raise StructureError("space must have shape (N, 2, 3)")
        if not (np.isfinite(flat).all() and np.isfinite(space).all()):
            raise StructureError("band coordinates must be finite")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise StructureError("aspect ratio must be positive")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "space", space)
        flat.setflags(write=False)
        space.setflags(write=False)

    def __len__(self) -> int:
        return self.flat.shape[0]

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

    def glued_first_bend(self) -> tuple[np.ndarray, np.ndarray]:
        """The re-attached copy of bends[0] at the far end of the
        development: rows stay [bottom, top], so the endpoint order is
        exchanged relative to bends[0] (the Moebius half-twist)."""
        g_flat = np.empty((2, 2))
        g_flat[0] = [self.flat[0, 1, 0] + self.lam, 0.0]
        g_flat[1] = [self.flat[0, 0, 0] + self.lam, 1.0]
        g_space = self.space[0, ::-1].copy()
        return g_flat, g_space

    def boundary_chains(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The bottom (y=0) and top (y=1) boundary chains of the
        development, each as (x-values, space points) of the bend ends
        followed by those of the glued copy of bends[0]."""
        g_flat, g_space = self.glued_first_bend()
        return tuple(
            (np.append(self.flat[:, side, 0], g_flat[side, 0]),
             np.vstack([self.space[:, side], g_space[side][None, :]]))
            for side in (0, 1)
        )


@dataclass(frozen=True)
class ValidationReport:
    max_ruling_residual: float
    max_boundary_residual: float
    foliation_violations: int
    passed: bool
    details: dict = field(default_factory=dict, compare=False)


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
    flat, space = band.flat, band.space
    if np.max(np.abs(flat[:, 0, 1])) > 1e-9 or np.max(np.abs(flat[:, 1, 1] - 1.0)) > 1e-9:
        raise StructureError("bend endpoints must lie on the boundary lines y=0, y=1")
    if abs(flat[0, 0, 0]) > 1e-9 or abs(flat[0, 0, 1]) > 1e-9:
        raise StructureError("development must start with bends[0] at the origin")

    flat_len = band.flat_lengths()
    space_len = band.space_lengths()
    ruling = np.abs(space_len - flat_len) / np.maximum(1.0, flat_len)
    max_ruling = float(ruling.max())

    (bot_x, bot_sp), (top_x, top_sp) = band.boundary_chains()

    d_bot = np.diff(bot_x)
    d_top = np.diff(top_x)
    res_bot = np.abs(np.linalg.norm(np.diff(bot_sp, axis=0), axis=1) - d_bot)
    res_top = np.abs(np.linalg.norm(np.diff(top_sp, axis=0), axis=1) - d_top)
    max_boundary = float(max(res_bot.max(), res_top.max()))

    violations = 0
    crossing = (d_bot < -1e-12) | (d_top < -1e-12)
    violations += int(np.count_nonzero(crossing))
    duplicate = (np.abs(d_bot) < 1e-14) & (np.abs(d_top) < 1e-14)
    violations += int(np.count_nonzero(duplicate))
    short = flat_len < 1.0 - 1e-9
    violations += int(np.count_nonzero(short))

    passed = (
        max_ruling <= tol.isometry
        and max_boundary <= tol.isometry
        and violations == 0
    )
    return ValidationReport(
        max_ruling_residual=max_ruling,
        max_boundary_residual=max_boundary,
        foliation_violations=violations,
        passed=passed,
        details={
            "n_bends": n,
            "min_flat_length": float(flat_len.min()),
            "crossings": int(np.count_nonzero(crossing)),
            "duplicates": int(np.count_nonzero(duplicate)),
            "short_bends": int(np.count_nonzero(short)),
        },
    )


# ---------------------------------------------------------------------------
# Flat-folded triangular band
# ---------------------------------------------------------------------------


def _fold(pts: np.ndarray, refl: np.ndarray, shift: float) -> np.ndarray:
    """Image of flap points (centered coordinates) in the plane z=0: moved
    by `shift` along x, then reflected by `refl` (_REFL_L with shift
    +half_width for the left flap, _REFL_R with -half_width for the right)."""
    q = pts + np.array([shift, 0.0])
    r = q @ refl.T
    out = np.zeros(pts.shape[:-1] + (3,))
    out[..., 0] = r[..., 0]
    out[..., 1] = r[..., 1] - 1.0
    return out


def _assemble(lam: float, pieces: list[tuple[np.ndarray, np.ndarray]], shift: float,
              meta: dict | None = None) -> RuledBand:
    """Stack per-piece (flat, space) bend arrays and move to development
    coordinates (bends[0] bottom endpoint at the origin)."""
    flat = np.concatenate([p[0] for p in pieces], axis=0)
    space = np.concatenate([p[1] for p in pieces], axis=0)
    flat = flat.copy()
    flat[:, :, 0] += shift
    flat[:, :, 0] -= flat[0, 0, 0]
    flat[0, 0, 0] = 0.0
    return RuledBand(lam=lam, flat=flat, space=space, meta=meta)


def _fan(bottoms: np.ndarray, tops: np.ndarray,
         space_bottoms: np.ndarray, space_tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = len(bottoms)
    flat = np.zeros((k, 2, 2))
    flat[:, 0, 0] = bottoms
    flat[:, 1, 0] = tops
    flat[:, 1, 1] = 1.0
    space = np.stack([space_bottoms, space_tops], axis=1)
    return flat, space


def build_triangular(n_per_fan: int = 48) -> RuledBand:
    """The flat-folded band of aspect ratio sqrt(3).

    Its image is the canonical equilateral triangle with vertices
    (+-1/sqrt(3), 0, 0) and (0, -1, 0) (perimeter 2*sqrt(3), height 1),
    covered by three fans of bends.  The cut bend (bends[0]) maps onto the
    triangle base in the X-axis and the central bend of the middle fan maps
    onto the segment from the origin to (0, -1, 0).
    """
    if n_per_fan < 4 or n_per_fan % 2:
        raise StructureError("n_per_fan must be an even integer >= 4")
    n = n_per_fan
    half = 0.0

    # left fan: bends from the bottom edge to the fixed top vertex
    s = np.linspace(-SIDE, 0.0, n + 1)
    fan_l = _fan(
        s,
        np.full(n + 1, -T_OPT),
        _fold(np.stack([s, np.zeros(n + 1)], axis=1), _REFL_L, half),
        np.tile(BASE_L, (n + 1, 1)),
    )
    # middle fan: bends from the bottom vertex to the top edge
    sig = np.linspace(-T_OPT, T_OPT, n + 1)[1:]
    mid_tops = np.zeros((n, 3))
    mid_tops[:, 0] = sig
    fan_m = _fan(np.zeros(n), sig, np.tile(APEX, (n, 1)), mid_tops)
    # right fan, excluding the final bend (it is the glued copy of bends[0])
    s = np.linspace(0.0, SIDE, n + 1)[1:-1]
    fan_r = _fan(
        s,
        np.full(n - 1, T_OPT),
        _fold(np.stack([s, np.zeros(n - 1)], axis=1), _REFL_R, -half),
        np.tile(BASE_R, (n - 1, 1)),
    )
    return _assemble(SQRT3, [fan_l, fan_m, fan_r], shift=SIDE,
                     meta={"kind": "triangular", "n_per_fan": n})


# ---------------------------------------------------------------------------
# Wrinkle family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WrinkleConfig:
    theta_scale: float = 1.0   # door angle theta = theta_scale * sqrt(eps)
    n_fan: int = 40
    n_door: int = 12
    n_plug_side: int = 6
    n_plug_mid: int = 12
    closure_tol: float = 1e-10
    max_iter: int = 200


def _angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two vectors via atan2; well conditioned near zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape == (2,):
        cross = abs(u[0] * v[1] - u[1] * v[0])
    else:
        cross = float(np.linalg.norm(np.cross(u, v)))
    return math.atan2(cross, float(u @ v))


def _crack(theta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Images of the two slit-edge tips after the door rotations, and the
    opening angle of the crack V at the apex."""
    rot_l = rotation_about_line(BASE_L, APEX - BASE_L, theta)
    rot_r = rotation_about_line(BASE_R, APEX - BASE_R, -theta)
    o_l = rot_l.apply(np.zeros(3))
    o_r = rot_r.apply(np.zeros(3))
    return o_l, o_r, _angle_between(o_l - APEX, o_r - APEX)


def _reflect_across(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reflect 2D points across the line through a and b."""
    d = b - a
    d = d / np.linalg.norm(d)
    rel = pts - a
    proj = rel @ d
    return a + 2.0 * proj[..., None] * d - rel


def _plug_crease_offset(width: float) -> float:
    """Crease foot +-c for which the folded strip's bottom corners meet:
    the positive root of w*c^2 + 4*c - w = 0."""
    return (math.sqrt(4.0 + width * width) - 2.0) / width


def _plug_v_angle(width: float) -> float:
    """Opening angle of the V formed by the vertical edges of a width-`width`
    unit-height strip folded along the two creases from the top midpoint."""
    c = _plug_crease_offset(width)
    t0 = np.array([0.0, 1.0])
    k1 = np.array([-c, 0.0])
    k2 = np.array([c, 0.0])
    vtx = _reflect_across(np.array([-width / 2, 0.0]), t0, k1)
    e_l = _reflect_across(np.array([-width / 2, 1.0]), t0, k1) - vtx
    e_r = _reflect_across(np.array([width / 2, 1.0]), t0, k2) - vtx
    return _angle_between(e_l, e_r)


def _solve_plug_width(gamma: float, tol: float, max_iter: int) -> tuple[float, float]:
    """Bisect for the strip width whose folded V matches the crack angle."""
    lo, hi = 0.25 * gamma, 8.0 * gamma
    f_lo = _plug_v_angle(lo) - gamma
    f_hi = _plug_v_angle(hi) - gamma
    if f_lo > 0.0 or f_hi < 0.0:
        raise WrinkleClosureError("wrinkle closure failed: no bracket for plug width")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = _plug_v_angle(mid) - gamma
        if f_mid <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-18 + 1e-16 * hi:
            break
    width = 0.5 * (lo + hi)
    residual = abs(_plug_v_angle(width) - gamma)
    if residual > tol:
        raise WrinkleClosureError(f"wrinkle closure failed: residual {residual:.3e}")
    return width, residual


class _PlugMap:
    """Piecewise-rigid map of the inserted strip onto the planar plug.

    The strip [-w/2, w/2] x [0, 1] is folded along the creases joining the
    top midpoint to (+-c, 0); the folded picture is then carried by a plane
    isometry onto the plane through the apex and the two crack tips so that
    the strip's vertical edges land on the crack edges.
    """

    def __init__(self, width: float, o_l: np.ndarray, o_r: np.ndarray):
        self.width = width
        self.c = _plug_crease_offset(width)
        self.t0 = np.array([0.0, 1.0])
        self.k1 = np.array([-self.c, 0.0])
        self.k2 = np.array([self.c, 0.0])
        self.vertex = _reflect_across(np.array([-width / 2, 0.0]), self.t0, self.k1)
        f1 = _reflect_across(np.array([-width / 2, 1.0]), self.t0, self.k1) - self.vertex
        f2 = _reflect_across(np.array([width / 2, 1.0]), self.t0, self.k2) - self.vertex
        g1 = o_l - APEX
        g2 = o_r - APEX
        bis = 0.5 * (o_l + o_r) - APEX
        self.e_x = np.array([1.0, 0.0, 0.0])
        self.b_hat = bis / np.linalg.norm(bis)
        g_coords = np.array(
            [[g1 @ self.e_x, g2 @ self.e_x], [g1 @ self.b_hat, g2 @ self.b_hat]]
        )
        t2 = g_coords @ np.linalg.inv(np.column_stack([f1, f2]))
        if np.abs(t2 @ t2.T - np.eye(2)).max() > 1e-7:
            raise WrinkleClosureError("plug placement is not an isometry")
        # project onto the nearest exact plane isometry
        u, _, vt = np.linalg.svd(t2)
        self.t2 = u @ vt

    def fold(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = pts.copy()
        y = pts[:, 1]
        left = pts[:, 0] < -self.c * (1.0 - y) - 1e-15
        right = pts[:, 0] > self.c * (1.0 - y) + 1e-15
        if left.any():
            out[left] = _reflect_across(pts[left], self.t0, self.k1)
        if right.any():
            out[right] = _reflect_across(pts[right], self.t0, self.k2)
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        q = self.fold(np.atleast_2d(pts)) - self.vertex
        plane = q @ self.t2.T
        return APEX + plane[:, :1] * self.e_x + plane[:, 1:] * self.b_hat


def build_wrinkle(epsilon: float, config: WrinkleConfig | None = None) -> RuledBand:
    """Polygonal band of aspect ratio sqrt(3) + O(eps) with a wrinkle.

    The triangle covered by the middle fan of the triangular band is slit
    along its vertical midline; the two triangular doors rotate about their
    outer sides by theta = theta_scale * sqrt(eps), opening a crack that
    rises (sin theta)/2 out of the plane.  A vertical strip of width w is
    inserted into the flat band at the slit and folded into a planar plug
    whose vertical edges form a V isometric to the crack; the plug is glued
    into the crack.  The width w solves the closure equation numerically,
    so the whole construction is exactly piecewise isometric.
    """
    cfg = config or WrinkleConfig()
    if not (WRINKLE_EPS_MIN <= epsilon <= WRINKLE_EPS_MAX):
        raise StructureError(f"epsilon must lie in [{WRINKLE_EPS_MIN:g}, {WRINKLE_EPS_MAX:g}]")
    theta = cfg.theta_scale * math.sqrt(epsilon)
    o_l, o_r, gamma = _crack(theta)
    width, residual = _solve_plug_width(gamma, cfg.closure_tol, cfg.max_iter)
    c = _plug_crease_offset(width)
    half = width / 2.0
    lam = SQRT3 + width

    rot_l = rotation_about_line(BASE_L, APEX - BASE_L, theta)
    rot_r = rotation_about_line(BASE_R, APEX - BASE_R, -theta)
    plug = _PlugMap(width, o_l, o_r)

    def door(pts2: np.ndarray, rot: RigidMotion, shift: float) -> np.ndarray:
        q = np.zeros(pts2.shape[:-1] + (3,))
        q[..., 0] = pts2[..., 0] + shift
        q[..., 1] = pts2[..., 1] - 1.0
        return rot.apply(q)

    n1, n2, n3, n4 = cfg.n_fan, cfg.n_door, cfg.n_plug_side, cfg.n_plug_mid
    x0w = -T_OPT - half   # top vertex of the left flap
    w0w = T_OPT + half    # top vertex of the right flap
    pieces = []

    # left fan (includes the cut bend and the left hinge)
    s = np.linspace(-(SIDE + half), -half, n1 + 1)
    pieces.append(_fan(
        s, np.full(n1 + 1, x0w),
        _fold(np.stack([s, np.zeros(n1 + 1)], axis=1), _REFL_L, half),
        np.tile(BASE_L, (n1 + 1, 1)),
    ))
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
    # right fan, excluding the glued copy of the cut bend
    s = np.linspace(half, SIDE + half, n1 + 1)[1:-1]
    pieces.append(_fan(
        s, np.full(n1 - 1, w0w),
        _fold(np.stack([s, np.zeros(n1 - 1)], axis=1), _REFL_R, -half),
        np.tile(BASE_R, (n1 - 1, 1)),
    ))

    crack_height = 0.5 * math.sin(theta)
    meta = {
        "kind": "wrinkle",
        "epsilon": epsilon,
        "theta": theta,
        "gamma": gamma,
        "width": width,
        "crease_offset": c,
        "closure_residual": residual,
        "lambda": lam,
        "eps_excess": width,
        "excess_coeff": width / epsilon,
        "crack_height": crack_height,
    }
    return _assemble(lam, pieces, shift=SIDE + half, meta=meta)


# ---------------------------------------------------------------------------
# Derived geometry
# ---------------------------------------------------------------------------


def boundary_polyline(band: RuledBand) -> PolylineLoop:
    """The image of the band boundary as a closed polyline.

    The boundary circle traverses the bottom feet in bend order, crosses
    the glued cut, then traverses the top feet in bend order.
    """
    return PolylineLoop(np.vstack([band.space[:, 0], band.space[:, 1]]), closed=True)


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
    """Exact distance from each point to the nearest of the given triangles.

    The distance to a triangle is its plane distance |p.n - a.n| / |n| where
    the point lies on the inner side of all three edge lines and in no
    vertex region (Ericson, "Real-Time Collision Detection", 5.1.5),
    otherwise the distance to the nearest edge.  Both tests allow 1e-12: a
    point that far outside an edge line, or past the edges at a vertex,
    still counts as inside, so a point on an edge reads the plane distance.
    A triangle with n = 0 has edge distances only.  Edge distances are
    taken from the differences p - a, so nothing cancels near 0.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tris = np.asarray(tris, dtype=float)
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
    before, after = -1e-12 * np.sqrt(e_vv), e_vv + 1e-12 * np.sqrt(e_vv)
    # (p - e_a).(n x e_v) / |n x e_v| is how far p lies inside edge e's line
    inward = np.cross(nrm, e_v.reshape(3, k, 3)).reshape(-1, 3)
    a_in = np.einsum("ij,ij->i", e_a, inward)
    slop = -1e-12 * np.sqrt(np.einsum("ij,ij->i", inward, inward))

    out = np.empty(len(pts))
    chunk = max(1, CHUNK_BYTES // (8 * max(1, len(e_v))))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        # nearest point on each edge: p - (e_a + t e_v), t clipped to [0, 1]
        d = [p[:, i, None] - e_a[:, i] for i in range(3)]
        t = d[0] * e_v[:, 0] + d[1] * e_v[:, 1] + d[2] * e_v[:, 2]
        # the vertex region of vertex e: before edge e and after the edge
        # entering it.  Its test has no normal in it, so it holds on
        # slivers, where the edge-line tests would pass points beyond a tip
        enter = t > after
        corner = (t < before) & np.concatenate([enter[:, 2 * k:], enter[:, :2 * k]], axis=1)
        inner = (p @ inward.T - a_in >= slop) & ~corner
        # on a zero-length edge t is left at its dot product, 0
        np.divide(t, e_vv, out=t, where=e_vv > 0.0)
        np.clip(t, 0.0, 1.0, out=t)
        for i in range(3):
            d[i] -= t * e_v[:, i]
            d[i] *= d[i]
        d_edge = np.sqrt((d[0] + d[1] + d[2]).min(axis=1))
        inside = inner[:, :k] & inner[:, k:2 * k] & inner[:, 2 * k:] & (n_len > 0.0)
        d_plane = np.divide(np.abs(p @ nrm.T - a_n), n_len, out=np.full(inside.shape, np.inf),
                            where=inside)
        out[lo:lo + chunk] = np.minimum(d_edge, d_plane.min(axis=1))
    return out


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def transform(band: RuledBand, motion: RigidMotion) -> RuledBand:
    """Apply an ambient isometry to the space data."""
    space = motion.apply(band.space.reshape(-1, 3)).reshape(band.space.shape)
    return replace(band, space=space)


def flip(band: RuledBand) -> RuledBand:
    """Reverse the flat band's transverse orientation: (x, y) -> (x, 1 - y).

    This is an isometry of the flat band compatible with the glide
    identification; it negates the displacement of every bend.  Endpoint
    rows are swapped to keep the [bottom, top] convention and the
    development is re-anchored at the new bends[0] bottom endpoint.
    """
    flat = band.flat[:, ::-1, :].copy()
    flat[:, :, 1] = 1.0 - flat[:, :, 1]
    flat[:, :, 0] -= flat[0, 0, 0]
    space = band.space[:, ::-1, :].copy()
    return replace(band, flat=flat, space=space)


def redevelop(band: RuledBand, alpha: float) -> RuledBand:
    """Develop the band cut open along the (possibly interpolated) leaf at
    parameter alpha in [0, N).  Bends before the cut move past the far end
    of the development via the glide map."""
    n = band.n_bends
    alpha = float(alpha) % n
    # a cut within 1e-12 of a stored bend is that bend
    if abs(alpha - round(alpha)) <= 1e-12:
        alpha = float(round(alpha) % n)
    # a cut in the wrap patch (N-1, N) gives i0 = N: every bend glides
    i0 = math.ceil(alpha)
    frac = alpha - math.floor(alpha)

    # bends i0.. as they are, then bends ..i0 glided: endpoints exchanged,
    # x -> x + lambda, y -> 1 - y
    glided = band.flat[:i0, ::-1].copy()
    glided[:, :, 0] += band.lam
    glided[:, :, 1] = 1.0 - glided[:, :, 1]
    flats = [band.flat[i0:], glided]
    spaces = [band.space[i0:], band.space[:i0, ::-1]]
    if frac > 0.0:
        leaf_flat, leaf_space = interpolate_bend(band, alpha)
        flats.insert(0, leaf_flat[None])
        spaces.insert(0, leaf_space[None])
    flat = np.concatenate(flats)
    space = np.concatenate(spaces)
    flat[:, :, 0] -= flat[0, 0, 0]
    return replace(band, flat=flat, space=space, meta=None)


def interpolate_bend(band: RuledBand, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Leaf of the foliation at fractional parameter p in [0, N], linearly
    interpolating endpoints between adjacent stored bends.  At p = N the
    glued copy of bends[0] is used, so the interpolation is continuous
    across the cut (with exchanged endpoints)."""
    n = band.n_bends
    if not (0.0 <= p <= n):
        raise StructureError("bend parameter out of range")
    i = int(math.floor(p))
    f = p - i
    if i >= n:
        i, f = n - 1, 1.0
    f0, s0 = band.flat[i], band.space[i]
    if i + 1 < n:
        f1, s1 = band.flat[i + 1], band.space[i + 1]
    else:
        f1, s1 = band.glued_first_bend()
    return (1.0 - f) * f0 + f * f1, (1.0 - f) * s0 + f * s1


def scale_bend(band: RuledBand, index: int, factor: float) -> RuledBand:
    """Copy of the band with one space segment scaled about its midpoint
    (an injected isometry defect, for negative controls)."""
    space = band.space.copy()
    mid = 0.5 * (space[index, 0] + space[index, 1])
    space[index] = mid + factor * (space[index] - mid)
    return replace(band, space=space, meta=None)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_json_dict(band: RuledBand) -> dict:
    mids = 0.5 * (band.flat[:, 0, 0] + band.flat[:, 1, 0])
    j = int(np.argmin(mids))
    out = band if j == 0 else redevelop(band, j)
    return {
        "format_version": FORMAT_VERSION,
        "lambda": out.lam,
        "closed": True,
        "bends": [
            {"flat": bf.tolist(), "space": bs.tolist()}
            for bf, bs in zip(out.flat, out.space)
        ],
    }


def write_json(band: RuledBand, path) -> None:
    # one write: json.dump with an indent writes each of its chunks apart
    with open(path, "w") as fh:
        fh.write(json.dumps(to_json_dict(band), indent=1) + "\n")


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
        flat = np.array([b["flat"] for b in bends], dtype=float)
        space = np.array([b["space"] for b in bends], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed band file: {exc}") from exc
    if version != FORMAT_VERSION:
        raise StructureError(f"unsupported format_version {version!r}")
    if closed is not True:
        raise StructureError(f"closed must be true, got {closed!r}")
    return RuledBand(lam=lam, flat=flat, space=space)


def read_json(path) -> RuledBand:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise StructureError(f"band file is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StructureError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)
