"""Numeric search for T-patterns and pose normalization.

A T-pattern is a pair of disjoint bends whose carrier lines are
perpendicular and intersecting.  On the parameter circle of the bend
foliation (with fractional interpolation between stored bends) we zero the
residual pair

    F1(a, b) = u_a . u_b                  (perpendicularity)
    F2(a, b) = (m_b - m_a) . n / |n|      (signed common-perpendicular
                                           length, n = u_a x u_b)

with a at the stored bends.  Between two bends the leaf vector is affine in
the interpolation fraction, so every zero of F1 comes in closed form from
the signs of one matrix of dot products.  One array pass then gives F1, F2
and the T/B roles of every zero, row by row with the arithmetic of the
one-zero computation; the zeros whose F2 also vanishes and whose bends take
roles are the candidates.  Both residuals flip sign when a bend's orientation is
reversed; traversing the full foliation once returns to the first bend
with reversed orientation, so the functions are evaluated on the
orientation double cover of the parameter circle.

Flat-folded bands are degenerate: whole sub-families of coplanar bends
make F2 vanish identically, so zeros of the pair come in one-parameter
families.  The normalization requirement that one segment contain the
line intersection in its interior while the other stays on one closed
side of it prunes these families down to finitely many valid patterns.
"""

import math
from typing import NamedTuple

import numpy as np

from .band import (
    RuledBand,
    ValidationReport,
    flip,
    interpolate_bend,
    leaf_between,
    redevelop,
    shared_ends,
    stored_bend,
    transform,
    validate,
)
from .flatmodel import FlatTrapezoid, glide
from .geom import (
    DEFAULT_TOL,
    RigidMotion,
    StructureError,
    ToleranceConfig,
    cross3,
    row_dot,
)

_DIAGONAL_EXCLUSION = 3  # minimal bend-step separation of a candidate pair
_FOOT_MARGIN = 1e-6      # relative margin classifying interior/endpoint feet


class NoTPatternError(StructureError):
    """The scan found no residual zero."""


class InvalidBandError(StructureError):
    """The band failed validation; `report` holds its residuals."""

    def __init__(self, report: ValidationReport):
        super().__init__("band failed validation; no T-pattern search attempted")
        self.report = report


class TPattern(NamedTuple):
    """A located T-pattern with its normalizing pose.

    param_t / param_b: foliation parameters of the two bends, with the
    T-role bend the one whose segment contains the line intersection in
    its interior and the B-role bend the one lying on one closed side.
    bend_t_flat / bend_b_flat: the two bends in the development, as
    `interpolate_bend(band, param_t)` and `(band, param_b)` give them with
    the bends in space; len_t / len_b: the lengths of the bends in space.
    pose: isometry carrying the band to the normalized position: the
    T bend in the X-axis with its midpoint at the origin, the B bend in
    the negative ray of the Y-axis (exactly so when the two bends'
    intersection sits at the T midpoint, as for the generated bands).
    """

    param_t: float
    param_b: float
    bend_t_flat: np.ndarray
    bend_b_flat: np.ndarray
    len_t: float
    len_b: float
    residual_perp: float
    residual_offset: float
    pose: RigidMotion
    alternates: tuple = ()


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


class _Candidate(NamedTuple):
    alpha: float
    beta: float
    perp: float
    offset: float
    seg_t_idx: int  # 1 if the alpha bend takes the T role, else 2
    len_t: float
    len_b: float
    p_star: np.ndarray


def _build_pose(bend_t_flat, bend_t_space, bend_b_space, p_star) -> RigidMotion:
    """Rigid motion normalizing the pattern: the T bend goes along the
    X-axis with its midpoint at the origin, and the B bend runs in the -Y
    direction from its end nearer p_star, where the carrier lines meet."""
    t_raw = bend_t_flat[1, 0] - bend_t_flat[0, 0]
    if t_raw >= 0.0:
        w_pt, x_pt = bend_t_space[0], bend_t_space[1]
    else:
        w_pt, x_pt = bend_t_space[1], bend_t_space[0]
    ex = _unit(w_pt - x_pt)
    d0 = np.linalg.norm(bend_b_space - p_star, axis=1)
    near, far = (bend_b_space[0], bend_b_space[1]) if d0[0] <= d0[1] else (bend_b_space[1], bend_b_space[0])
    ey = near - far
    ey = ey - (ey @ ex) * ex
    ny = np.linalg.norm(ey)
    if ny < 1e-9:
        raise StructureError("degenerate T-pattern: collinear bends")
    ey = ey / ny
    r = np.vstack([ex, ey, cross3(ex, ey)])
    t = -r @ p_star
    mid = (bend_t_space @ r.T + t).mean(axis=0)
    return RigidMotion(r, t + [-mid[0], 0.0, 0.0])


def _perp_roots(band: RuledBand) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every zero of F1(a, .) at a stored bend a, as arrays (a, k, b) with
    the root b in the bracket [k, k + 1] of lifted parameters.

    The leaf vector v(f) = (1 - f) v_k + f v_{k+1} is affine in f, so
    u_a . v(f) has the sign of F1 and its zero at f = g0 / (g0 - g1).  One
    product of the bend directions with the lifted leaf vectors (the bends,
    then the bends reversed) gives every sign.  Row a is scanned over the
    brackets a + _DIAGONAL_EXCLUSION <= k < a + N - _DIAGONAL_EXCLUSION,
    which end before the glued copy of bend 0 at 2N: two strided views of
    the product read that window directly."""
    n = band.n_bends
    lifted = band.lifted[1]
    v = lifted[:, 1] - lifted[:, 0]
    g = (v[:n] / np.linalg.norm(v[:n], axis=1, keepdims=True)) @ v.T
    # g0[a, j], g1[a, j] = g[a, k], g[a, k + 1] at k = a + _DIAGONAL_EXCLUSION + j
    shape, strides = (n, n - 2 * _DIAGONAL_EXCLUSION), (g.strides[0] + g.strides[1], g.strides[1])
    g0, g1 = (np.ndarray(shape, g.dtype, g, (_DIAGONAL_EXCLUSION + s) * g.itemsize, strides)
              for s in (0, 1))
    # row-major, as np.nonzero of the mask lists them
    a, j = np.divmod(np.flatnonzero((g0 == 0.0) | ((g0 < 0.0) != (g1 < 0.0))), shape[1])
    d0, d1 = g0[a, j], g1[a, j]
    # where d0 != 0 the signs of d0 and d1 differ, so d0 - d1 != 0
    k = a + _DIAGONAL_EXCLUSION + j
    return a, k, k + np.divide(d0, d0 - d1, out=np.zeros_like(d0), where=d0 != 0.0)


def _classify(a: np.ndarray, b: np.ndarray, sa: np.ndarray, sb: np.ndarray,
              tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, list[_Candidate]]:
    """F1 and F2 at every root (a, b) with segments (sa, sb), and the roots
    whose F1 and F2 are within tol.root_residual and whose bends take T/B
    roles, in root order.

    Roles are assigned by where the carrier lines meet: the T segment must
    contain the intersection strictly inside, the B segment must lie on one
    closed side of it.  Lines with 1 - c^2 < 1e-18, c = u_a . u_b, count as
    parallel and take no roles.  Each row has the arithmetic of the 1-D
    computation (row_dot), so every value is the one a root computed alone
    would give."""
    va, vb = sa[:, 1] - sa[:, 0], sb[:, 1] - sb[:, 0]
    la, lb = np.sqrt(row_dot(va, va)), np.sqrt(row_dot(vb, vb))
    ua, ub = va / la[:, None], vb / lb[:, None]
    perp = row_dot(ua, ub)
    normal = cross3(ua, ub)
    nn = np.sqrt(row_dot(normal, normal))
    gap = 0.5 * (sb[:, 0] + sb[:, 1]) - 0.5 * (sa[:, 0] + sa[:, 1])
    # closest points sa[0] + s1 ua and sb[0] + s2 ub of the two lines
    w0 = sb[:, 0] - sa[:, 0]
    p, q = row_dot(ua, w0), row_dot(ub, w0)
    denom = 1.0 - perp * perp
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.where(nn < 1e-12, math.inf, row_dot(gap, normal) / nn)
        s1, s2 = (p - perp * q) / denom, (perp * p - q) / denom
    r1, r2 = s1 / la, s2 / lb
    p_star = 0.5 * ((sa[:, 0] + s1[:, None] * ua) + (sb[:, 0] + s2[:, None] * ub))
    interior1, interior2 = ((_FOOT_MARGIN < r) & (r < 1.0 - _FOOT_MARGIN) for r in (r1, r2))
    found = ((np.abs(perp) <= tol.root_residual) & (np.abs(off) <= tol.root_residual)
             & (denom >= 1e-18) & (interior1 != interior2))
    t_first = interior1[found]

    def pick(x, y):
        return np.where(t_first, x[found], y[found]).tolist()

    rows = zip(a[found].astype(float).tolist(), b[found].tolist(), perp[found].tolist(),
               off[found].tolist(), np.where(t_first, 1, 2).tolist(), pick(la, lb), pick(lb, la),
               p_star[found])
    return perp, off, [_Candidate(*row) for row in rows]


def _candidates(band: RuledBand, tol: ToleranceConfig) -> list[_Candidate]:
    """Every root whose F1 and F2 are within tol.root_residual and whose
    bends take T/B roles, in root order.  The roots come in closed form
    from one sign matrix (_perp_roots), and one array pass (_classify)
    computes the residuals and roles of all of them."""
    a, _, b = _perp_roots(band)
    lifted = band.lifted[1]
    i = np.floor(b).astype(np.intp)
    sb = leaf_between(lifted[i], lifted[i + 1], (b - i)[:, None, None])
    perp, off, candidates = _classify(a, b, lifted[a], sb, tol)
    if not candidates:
        near = np.hypot(perp, off).min(initial=math.inf)
        raise NoTPatternError(f"no T-pattern detected (minimal residual {near:.3e})")
    return candidates


def find_tpattern(band: RuledBand, tol: ToleranceConfig = DEFAULT_TOL) -> TPattern:
    """Locate a T-pattern from the exact zeros of F1 at every stored bend.

    Zeros that take T/B roles (_candidates) are ranked by decreasing B-bend
    length, then T-bend length, then with a T leaf inside a fan last, then
    by parameters.  The deck transformation b -> b + N lists each bend pair
    twice; the best is returned, the other pairs are reported once each as
    alternates.
    """
    report = validate(band, tol)
    if not report.passed:
        raise InvalidBandError(report)
    n = band.n_bends
    # a T leaf inside a fan: a leaf strictly between two lifted bends that
    # share an end, or a bend that shares one of its ends with both
    # neighbours (bend 0 is lifted bend N, between N - 1 and N + 1)
    shared = shared_ends(band.lifted[0][:-1], band.lifted[0][1:])
    both = shared[:-1] & shared[1:]
    leaf_in_fan, bend_in_fan = shared[:, 0] | shared[:, 1], both[:, 0] | both[:, 1]

    def rank(c: _Candidate):
        p = c.alpha if c.seg_t_idx == 1 else c.beta
        j = stored_bend(band, p)
        in_fan = leaf_in_fan[math.floor(p)] if j is None else bend_in_fan[(j % n or n) - 1]
        return (-round(c.len_b / 1e-9), -round(c.len_t / 1e-9), bool(in_fan), c.alpha, c.beta)

    # the first candidate of each unordered bend pair {alpha, beta mod N}
    patterns = {}
    for c in sorted(_candidates(band, tol), key=rank):
        b = stored_bend(band, c.beta)
        patterns.setdefault(frozenset((c.alpha, (c.beta if b is None else b) % n)), c)
    best, *others = patterns.values()
    p_t, p_b = (best.alpha, best.beta) if best.seg_t_idx == 1 else (best.beta, best.alpha)
    p_t, p_b = p_t % n, p_b % n
    bend_t_flat, bend_t_space = interpolate_bend(band, p_t)
    bend_b_flat, bend_b_space = interpolate_bend(band, p_b)
    pose = _build_pose(bend_t_flat, bend_t_space, bend_b_space, best.p_star)
    alternates = tuple({key: getattr(c, key) for key in ("alpha", "beta", "len_t", "len_b", "perp", "offset")}
                       for c in others)
    return TPattern(param_t=p_t, param_b=p_b, bend_t_flat=bend_t_flat, bend_b_flat=bend_b_flat,
                    len_t=float(np.linalg.norm(bend_t_space[1] - bend_t_space[0])),
                    len_b=float(np.linalg.norm(bend_b_space[1] - bend_b_space[0])),
                    residual_perp=best.perp, residual_offset=best.offset, pose=pose,
                    alternates=alternates)


def normalize_pose(band: RuledBand, tp: TPattern) -> RuledBand:
    """The band moved by the pattern's normalizing pose: T bend into the
    X-axis with its midpoint translated to the origin, B bend into the
    negative Y-ray."""
    if tp.len_t < 1e-12 or tp.len_b < 1e-12:
        raise StructureError("degenerate (zero-length) T-pattern bends")
    return transform(band, tp.pose)


def develop_for(band: RuledBand, tp: TPattern) -> tuple[FlatTrapezoid, RuledBand]:
    """Cut the band open along the T bend and develop it, re-orienting the
    flat band if needed so the cut displacement t is nonnegative.

    Returns the labeled trapezoid (u, v are the B-bend endpoints) and the
    re-developed band (space data unchanged up to row order)."""
    dev = redevelop(band, tp.param_t)
    x0 = tp.bend_t_flat[0, 0]
    # the B leaf before the cut lies past the far end of the development
    b_flat = glide(tp.bend_b_flat, band.lam) if tp.param_b < tp.param_t else tp.bend_b_flat.copy()
    b_flat[:, 0] -= x0

    if dev.cut_displacement() < 0.0:
        b_flat = glide(b_flat, -dev.flat[0, 1, 0])
        dev = flip(dev)

    t = dev.cut_displacement()
    v, u = b_flat[0], b_flat[1]
    return FlatTrapezoid(lam=band.lam, t=t, u=u, v=v), dev
