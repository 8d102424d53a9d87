"""Reference paths for the fixed-cost stages of `verify`, `tpattern` and
the curve sweep of `bounds`.

Each reference below is the straightforward form of a stage that the
package computes in fewer numpy calls: the per-point `_Chain` filter, the
per-edge `boundary_deviation` with its arc lengths re-summed from the chain
points, the root scan over the full sign matrix, and the random curves and
their chord comparisons on (n, 3) point arrays, with the chord deviation
that decides each curve attempt.  `reference_curve_with_forced_deviation`
is the attempt loop as it was when it built a validated CurveGraphPair
from every attempt, discarded or not.  The boundary loop with its
near-duplicate points dropped is the loop the package built before it read
the loop straight from the bend ends.  The two winding sums, the wrapped
angle differences of the loop's vertices and the counted arctan2 angles of
the flat layer's boundary cycle, are how the package summed each cycle
before one `winding_number` took both.  The glued copy of bend 0 in the
boundary chains and the wrap bracket of `interpolate_bend`, the glided
bends of `redevelop`, `flip`, and the glided and flipped B leaf of
`develop_for` are the five copies of the glide (x, y) -> (x + dx, 1 - y)
written out by hand, as the package had them before `flatmodel.glide`.
The root segments of the T-pattern search are interpolated on the bends
and their reversals stacked by hand, as the package did before it read
them from `RuledBand.lifted`.
`reference_from_json_dict` is the band file reader as it was before it
checked each bend's shape itself: it let numpy find the shapes of the
nested coordinate lists, then checked their types in a second pass.
The package must give bitwise the same values and leave the random
generator in the same state.
`TestCliOutputs` and `TestSweepOutputs` swap every reference in at once and
compare the CLI's outputs; a later change that rewrites a stage for speed
can add its old form here as a reference.
"""

import copy
import hashlib
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband import bounds
from moebiusband import tpattern as tpattern_mod
from moebiusband import verify as verify_mod
from moebiusband.band import (
    FORMAT_VERSION,
    INCENTER,
    RuledBand,
    build_triangular,
    build_wrinkle,
    flip,
    from_json_dict,
    interpolate_bend,
    read_json,
    redevelop,
    to_json_dict,
    transform,
    write_json,
)
from moebiusband.cli import main as cli_main
from moebiusband.flatmodel import FlatTrapezoid
from moebiusband.geom import DEFAULT_TOL, RigidMotion, StructureError, row_dot, winding_number
from moebiusband.tpattern import _DIAGONAL_EXCLUSION, develop_for, find_tpattern, normalize_pose
from moebiusband.verify import BoundaryDeviation, boundary_deviation, prepare

from conftest import boundary_loop, random_motion

# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------


class ReferenceChain:
    """A boundary chain filtered one point at a time: a point is kept where
    its x exceeds the last kept x by more than 1e-13, and a dropped point
    must lie within 1e-7 of the last kept point."""

    def __init__(self, xs, pts):
        keep = [0]
        for i in range(1, len(xs)):
            if xs[i] - xs[keep[-1]] > 1e-13:
                keep.append(i)
            elif np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-7:
                raise StructureError("boundary chain is not a function of x")
        self.xs = xs[keep]
        self.pts = pts[keep]

    def eval(self, x):
        x = np.clip(np.atleast_1d(x), self.xs[0], self.xs[-1])
        j = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        f = (x - self.xs[j]) / (self.xs[j + 1] - self.xs[j])
        return self.pts[j] + f[:, None] * (self.pts[j + 1] - self.pts[j])

    def arc_between(self, x0, x1):
        p0 = self.eval(np.array([x0]))[0]
        p1 = self.eval(np.array([x1]))[0]
        inner = (self.xs > x0 + 1e-13) & (self.xs < x1 - 1e-13)
        chain = np.vstack([p0, self.pts[inner], p1])
        return float(np.linalg.norm(np.diff(chain, axis=0), axis=1).sum())


def reference_chains(dev):
    """The (bottom, top) boundary chains of a developed band, as reference
    chains."""
    bottom, top = dev.boundary_chains()
    return ReferenceChain(*bottom), ReferenceChain(*top)


def reference_boundary_deviation(trap, chains):
    """The sups edge by edge, three chain evaluations per edge, and the
    images of u and v evaluated on their own."""
    bottom, top = chains
    per_edge = {}
    sup_dev = sup_istar = sup_i0_star = 0.0
    for name, start, end in zip(verify_mod._BOUNDARY_EDGES, *trap.boundary_edges()):
        chain = bottom if name.startswith("D") else top
        x0, dx = start[0], end[0] - start[0]
        lo, hi = sorted((start[0], end[0]))
        inner = chain.xs[(chain.xs > lo) & (chain.xs < hi)]
        f = np.concatenate([[0.0], (inner - x0) / dx, [1.0]])
        img0_a, img0_b = verify_mod._I0_EDGE_IMAGES[name]
        i0_pts = img0_a + f[:, None] * (img0_b - img0_a)
        i_pts = chain.eval(x0 + f * dx)
        istar_pts = i_pts[0] + f[:, None] * (i_pts[-1] - i_pts[0])
        dev_edge = float(np.linalg.norm(i0_pts - i_pts, axis=1).max())
        istar_edge = float(np.linalg.norm(i_pts - istar_pts, axis=1).max())
        i0_star_edge = float(np.linalg.norm(i0_pts - istar_pts, axis=1).max())
        arc = chain.arc_between(float(start[0]), float(end[0]))
        chord = float(np.linalg.norm(i_pts[-1] - i_pts[0]))
        per_edge[name] = {
            "sup_dev": dev_edge,
            "sup_istar": istar_edge,
            "sup_i0_vs_istar": i0_star_edge,
            "flat_length": float(np.linalg.norm(end - start)),
            "arc_length": arc,
            "chord_length": chord,
            "slack": arc - chord,
        }
        sup_dev = max(sup_dev, dev_edge)
        sup_istar = max(sup_istar, istar_edge)
        sup_i0_star = max(sup_i0_star, i0_star_edge)
    u_image = top.eval(np.array([trap.u[0]]))[0]
    v_image = bottom.eval(np.array([trap.v[0]]))[0]
    return BoundaryDeviation(sup_dev, sup_istar, sup_i0_star, per_edge, u_image, v_image)


def loop_without_duplicates(pts):
    """The points of a closed loop without its near-duplicates: a point
    within 1e-14 of the last point kept is dropped.  An exact repeat of its
    predecessor always is, and leaves the last point kept as it was.  Of
    the rest, every point is kept up to the first whose step from its
    predecessor is at most 1e-14; from there on, each is compared with the
    last point kept."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) < 2:
        return pts
    moved = np.concatenate([[0], np.flatnonzero((pts[1:] != pts[:-1]).any(axis=1)) + 1])
    step = pts[moved[1:]] - pts[moved[:-1]]
    near = np.flatnonzero(np.sqrt(row_dot(step, step)) <= 1e-14)
    first = near[0] + 1 if len(near) else len(moved)
    keep = list(moved[:first])
    for i in moved[first:]:
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-14:
            keep.append(i)
    if np.linalg.norm(pts[keep[-1]] - pts[keep[0]]) <= 1e-14 and len(keep) > 1:
        keep.pop()
    return pts[keep]


def reference_loop(state):
    """PipelineState.loop from the boundary loop in space without its
    near-duplicate points."""
    return loop_without_duplicates(boundary_loop(state.developed))[:, :2]


def reference_loop_winding(loop, point):
    """The winding number of a closed loop about a point off it, summed from
    the angles of its vertices about the point: their consecutive
    differences, wrapped into [-pi, pi)."""
    rel = loop - point
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    inc = (np.diff(np.concatenate([ang, ang[:1]])) + np.pi) % (2.0 * np.pi) - np.pi
    return round(float(inc.sum()) / (2.0 * np.pi))


def reference_cycle_winding(ends, count, point):
    """The winding number about a point off it of a cycle of directed edges,
    (k, 2, 2) ends, edge i counted count[i] times: the counted arctan2
    angles of the edges, summed."""
    a, b = ends[:, 0] - point, ends[:, 1] - point
    turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.einsum("kj,kj->k", a, b))
    return round(float(count @ turn) / (2.0 * math.pi))


def reference_winding_number(starts, ends, point, weights=None):
    """`winding_number` for its two callers, each with its own sum: the
    boundary loop (no weights; the ends are the loop rolled by one) and the
    flat layer's boundary cycle."""
    if weights is None:
        return reference_loop_winding(starts, point)
    return reference_cycle_winding(np.stack([starts, ends], axis=1), weights, point)


def flat_cycle_windings(patches):
    """The winding number about the incenter of the boundary cycle of the
    flat layer of `patches`, from `winding_number` and from the reference."""
    ends, count = verify_mod._flat_cycle(patches)
    return (winding_number(ends[:, 0], ends[:, 1], INCENTER[:2], count),
            reference_cycle_winding(ends, count, INCENTER[:2]))


def reference_perp_roots(band):
    """The sign changes of the full N x (2N - 1) bracket matrix, masked to
    the window _DIAGONAL_EXCLUSION <= k - a < N - _DIAGONAL_EXCLUSION."""
    n = band.n_bends
    v = band.space[:, 1] - band.space[:, 0]
    g = (v / np.linalg.norm(v, axis=1, keepdims=True)) @ np.concatenate([v, -v]).T
    g0, g1 = g[:, :-1], g[:, 1:]
    step = np.arange(2 * n - 1) - np.arange(n)[:, None]
    window = (step >= _DIAGONAL_EXCLUSION) & (step < n - _DIAGONAL_EXCLUSION)
    a, k = np.nonzero(window & ((g0 == 0.0) | ((g0 < 0.0) != (g1 < 0.0))))
    d0, d1 = g0[a, k], g1[a, k]
    return a, k, k + np.divide(d0, d0 - d1, out=np.zeros_like(d0), where=d0 != 0.0)


def reference_root_segments(band, a, b):
    """The space segments at every root (a, b): bend a, and the leaf at
    lifted parameter b of the bends followed by the bends reversed."""
    lifted = np.concatenate([band.space, band.space[:, ::-1]])
    i = np.floor(b).astype(np.intp)
    f = (b - i)[:, None, None]
    s0, s1 = lifted[i], lifted[i + 1]
    return band.space[a], np.where(s0 == s1, s0, (1.0 - f) * s0 + f * s1)


def reference_candidates(band, tol):
    """tpattern._candidates with the reference root segments."""
    a, _, b = tpattern_mod._perp_roots(band)
    perp, off, candidates = tpattern_mod._classify(a, b, *reference_root_segments(band, a, b), tol)
    if not candidates:
        raise tpattern_mod.NoTPatternError("no T-pattern detected")
    return candidates


def reference_glued_first_bend(band):
    """The copy of bends[0] re-attached at the far end of the development:
    x + lambda with the endpoints exchanged, y written as 0 and 1."""
    g_flat = np.empty((2, 2))
    g_flat[0] = [band.flat[0, 1, 0] + band.lam, 0.0]
    g_flat[1] = [band.flat[0, 0, 0] + band.lam, 1.0]
    return g_flat, band.space[0, ::-1].copy()


def reference_boundary_chains(band):
    g_flat, g_space = reference_glued_first_bend(band)
    return tuple((np.append(band.flat[:, side, 0], g_flat[side, 0]),
                  np.vstack([band.space[:, side], g_space[side][None, :]])) for side in (0, 1))


def reference_interpolate_bend(band, p):
    """interpolate_bend with the glued first bend closing the wrap bracket."""
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
        f1, s1 = reference_glued_first_bend(band)
    return (np.where(f0 == f1, f0, (1.0 - f) * f0 + f * f1),
            np.where(s0 == s1, s0, (1.0 - f) * s0 + f * s1))


def reference_flip(band):
    flat = band.flat[:, ::-1, :].copy()
    flat[:, :, 1] = 1.0 - flat[:, :, 1]
    flat[:, :, 0] -= flat[0, 0, 0]
    space = band.space[:, ::-1, :].copy()
    return RuledBand(band.lam, flat, space)


def reference_redevelop(band, alpha):
    n = band.n_bends
    alpha = float(alpha) % n
    if abs(alpha - round(alpha)) <= 1e-12:
        alpha = float(round(alpha) % n)
    i0 = math.ceil(alpha)
    frac = alpha - math.floor(alpha)
    glided = band.flat[:i0, ::-1].copy()
    glided[:, :, 0] += band.lam
    glided[:, :, 1] = 1.0 - glided[:, :, 1]
    flats = [band.flat[i0:], glided]
    spaces = [band.space[i0:], band.space[:i0, ::-1]]
    if frac > 0.0:
        leaf_flat, leaf_space = reference_interpolate_bend(band, alpha)
        flats.insert(0, leaf_flat[None])
        spaces.insert(0, leaf_space[None])
    flat = np.concatenate(flats)
    space = np.concatenate(spaces)
    flat[:, :, 0] -= flat[0, 0, 0]
    return RuledBand(band.lam, flat, space)


def reference_develop_for(band, tp):
    dev = reference_redevelop(band, tp.param_t)
    x0 = tp.bend_t_flat[0, 0]
    b_flat = tp.bend_b_flat.copy()
    if tp.param_b < tp.param_t:
        b_flat = b_flat[::-1].copy()
        b_flat[:, 0] += band.lam
        b_flat[:, 1] = 1.0 - b_flat[:, 1]
    b_flat[:, 0] -= x0
    if dev.cut_displacement() < 0.0:
        shift = dev.flat[0, 1, 0]
        dev = reference_flip(dev)
        b_flat = b_flat[::-1].copy()
        b_flat[:, 0] -= shift
        b_flat[:, 1] = 1.0 - b_flat[:, 1]
    return FlatTrapezoid(lam=band.lam, t=dev.cut_displacement(), u=b_flat[1], v=b_flat[0]), dev


def reference_unit_speed_curve(rng, length, tilt, n=1200):
    """random_unit_speed_curve on an (n, 3) array: the steps are the rows of
    a stacked tangent, summed down each column."""
    coeffs = np.zeros((2, 7))
    coeffs[0, 0] = tilt * rng.uniform(0.7, 1.0) * rng.choice([-1.0, 1.0])
    for k in range(2, 5):
        for row in coeffs:
            amp = 0.25 * tilt * rng.normal() / k
            phase = rng.uniform(0.0, 2.0 * math.pi)
            row[2 * k - 3] = amp * math.cos(phase)
            row[2 * k - 2] = amp * math.sin(phase)
    angles = np.einsum("ij,jk->ik", coeffs, bounds._curve_tables(n))
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    tangent = np.stack([cos_a[0] * cos_a[1], sin_a[0] * cos_a[1], sin_a[1]], axis=1)
    steps = (length / (n - 1)) * tangent
    pts = np.zeros((n, 3))
    np.cumsum(steps, axis=0, out=pts[1:])
    return pts


class ReferenceCurveGraphPair(bounds.CurveGraphPair):
    """CurveGraphPair on the (n, 3) samples: np.linalg.norm over the rows,
    the chord map from its formula, and |speed - 1| at every step."""

    def __init__(self, samples, speed_tol=1e-6):
        s = np.asarray(samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 2 or s.shape[1] != 3:
            raise StructureError("need (n, 3) curve samples with n >= 2")
        if not np.isfinite(s).all():
            raise StructureError("non-finite curve samples")
        steps = np.linalg.norm(np.diff(s, axis=0), axis=1)
        length = float(steps.sum())
        resid = np.abs(steps / (length / (len(s) - 1)) - 1.0).max()
        if not resid <= speed_tol:
            raise StructureError(f"samples are not unit speed (max |speed-1| = {resid:.3e})")
        t = np.linspace(0.0, 1.0, len(s))[:, None]
        chord = (1.0 - t) * s[0] + t * s[-1]
        self._store(samples=s, domain_length=length,
                    chord_length=float(np.linalg.norm(s[-1] - s[0])),
                    deviation=float(np.linalg.norm(s - chord, axis=1).max()),
                    _steps=steps, _chord=chord)

    def graph_lengths(self):
        n = len(self.samples)
        dx = np.full(n - 1, self.domain_length / (n - 1))
        d_chord = np.linalg.norm(np.diff(self._chord, axis=0), axis=1)
        return (float(np.sqrt(dx * dx + self._steps * self._steps).sum()),
                float(np.sqrt(dx * dx + d_chord * d_chord).sum()))


def reference_deviation(rows, chord):
    """bounds._deviation on the (n, 3) samples of the curve whose rows are
    `rows`, from the chord map's formula, whatever `chord` is given."""
    s = rows.T
    t = np.linspace(0.0, 1.0, len(s))[:, None]
    return float(np.linalg.norm(s - ((1.0 - t) * s[0] + t * s[-1]), axis=1).max())


def reference_curve_with_forced_deviation(rng, eps):
    """curve_with_forced_deviation as it was when it validated every attempt
    as a CurveGraphPair and read the pair's deviation."""
    target = 3.0 * math.sqrt(eps)
    lo = max(1.6, 2.7 * target)
    if lo >= 2.85:
        raise StructureError("eps too large to force the deviation on a domain < 3")
    length = bounds._uniform(rng, lo, 2.85)
    tilt = 3.0 * target / length
    for _ in range(80):
        cg = bounds.CurveGraphPair(bounds.random_unit_speed_curve(rng, length, tilt),
                                   speed_tol=1e-8)
        if cg.deviation >= target:
            return cg
        tilt *= 1.35
        if tilt > 2.6:
            length = bounds._uniform(rng, lo, 2.85)
            tilt = 3.0 * target / length
    raise RuntimeError("failed to force the deviation threshold")


def reference_uniform(rng, low, high):
    return rng.uniform(low, high)


def reference_from_json_dict(data: dict) -> RuledBand:
    try:
        version = data["format_version"]
        lam = data["lambda"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)):
            raise TypeError(f"lambda must be a number, not {json.dumps(lam)}")
        lam = float(lam)
        closed = data.get("closed", True)
        bends = data["bends"]
        flat_rows = [b["flat"] for b in bends]
        space_rows = [b["space"] for b in bends]
        flat = np.array(flat_rows, dtype=float)
        space = np.array(space_rows, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"malformed band file: {exc}") from exc
    for what, keys, known in (("key", data.keys(), {"format_version", "lambda", "closed", "bends"}),
                              ("bend key", set().union(*bends), {"flat", "space"})):
        if unknown := sorted(keys - known):
            raise StructureError(f"malformed band file: unknown {what} "
                                 + ", ".join(map(repr, unknown)))
    if type(version) is not int or version != FORMAT_VERSION:
        raise StructureError(f"unsupported format_version {version!r}")
    if closed is not True:
        raise StructureError(f"closed must be true, got {closed!r}")
    if flat.ndim == space.ndim == 3 and (
            not_numbers := [x for rows in (flat_rows, space_rows) for bend in rows for row in bend
                            for x in row if type(x) not in (float, int)]):
        raise StructureError("malformed band file: coordinates must be numbers, "
                             f"not {json.dumps(not_numbers[0])}")
    band = RuledBand(lam=lam, flat=flat, space=space)
    if max(np.abs(flat).max(), np.abs(space).max()) >= 2.0 ** 510:
        raise StructureError("malformed band file: coordinates must lie below 2**510 "
                             "in magnitude, where squared lengths stay finite")
    return band


# ---------------------------------------------------------------------------
# The bands and their copies
# ---------------------------------------------------------------------------

BANDS = ["tri", "wrinkle3", "wrinkle4", "wrinkle5"]
COPIES = ["unposed", "flipped", "recut", "flipped_recut"]


@pytest.fixture(scope="module")
def bands():
    return {"tri": build_triangular(), "wrinkle3": build_wrinkle(1e-3),
            "wrinkle4": build_wrinkle(1e-4), "wrinkle5": build_wrinkle(1e-5)}


def _copy(band, name, kind, posed):
    """A flipped and/or re-cut copy of the band at a cut fixed per band, in
    a rigid pose (improper for the flipped copies) if `posed`."""
    rng = np.random.default_rng(BANDS.index(name))
    cut = float(rng.uniform(0.0, band.n_bends))
    if "flipped" in kind:
        band = flip(band)
    if "recut" in kind:
        band = redevelop(band, cut)
    if posed:
        motion = random_motion(rng, scale=1.5)
        if "flipped" in kind:
            motion = RigidMotion(-motion.rotation, motion.translation)
        band = transform(band, motion)
    return band


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


# one step of a chain: an exact repeat of the previous x, a tiny step
# (negative ones included) that the filter drops, or an ordinary step
_STEPS = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-13), st.floats(1e-13, 1e-12),
                   st.floats(1e-3, 0.5))


class TestChain:
    @given(st.lists(_STEPS, min_size=1, max_size=40), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 5e-8, 2e-7]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_point_filter(self, steps, seed, wobble):
        # points move by at most `wobble` where x moves by at most 1e-12, so
        # a dropped point lies within 1e-7 of the kept one or beyond it
        rng = np.random.default_rng(seed)
        xs = np.concatenate([[0.0], np.cumsum(steps)])
        moves = rng.normal(size=(len(steps), 3))
        small = np.abs(steps) <= 1e-12
        moves[small] *= wobble * rng.uniform(size=(int(small.sum()), 1)) / np.linalg.norm(
            moves[small], axis=1, keepdims=True)
        pts = np.vstack([np.zeros(3), np.cumsum(moves, axis=0)])
        try:
            want = ReferenceChain(xs, pts)
        except StructureError as exc:
            with pytest.raises(StructureError, match=str(exc)):
                verify_mod._Chain(xs, pts)
            return
        got = verify_mod._Chain(xs, pts)
        assert _bits(got.xs) == _bits(want.xs)
        assert _bits(got.pts) == _bits(want.pts)
        assert _bits(got.seg) == _bits(np.linalg.norm(np.diff(want.pts, axis=0), axis=1))

    def test_repeat_after_a_tiny_step(self):
        # every point after x = 1 up to x = 2 is dropped against the kept
        # point at 1, the one after a step of 5.5e-13 from its predecessor too
        xs = np.array([0.0, 1.0, 1.0 - 5e-13, 1.0 - 5e-13, 1.0 + 5e-14, 1.0 + 5e-14, 2.0])
        pts = np.outer(xs, [1.0, 2.0, 0.0])
        got, want = verify_mod._Chain(xs, pts), ReferenceChain(xs, pts)
        assert _bits(got.xs) == _bits(want.xs) == _bits(np.array([0.0, 1.0, 2.0]))
        pts[4, 2] = 2e-7
        for chain in (verify_mod._Chain, ReferenceChain):
            with pytest.raises(StructureError, match="not a function of x"):
                chain(xs, pts)


@pytest.mark.parametrize("posed", [False, True])
@pytest.mark.parametrize("kind", COPIES)
@pytest.mark.parametrize("name", BANDS)
class TestStages:
    def test_boundary_deviation(self, bands, name, kind, posed):
        state = prepare(_copy(bands[name], name, kind, posed))
        got = boundary_deviation(state.trapezoid, state.boundary)
        want = reference_boundary_deviation(state.trapezoid, reference_chains(state.developed))
        for name in BoundaryDeviation._fields:
            if name != "per_edge":
                assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert list(got.per_edge) == list(want.per_edge)
        for edge, record in want.per_edge.items():
            assert list(got.per_edge[edge]) == list(record)
            for key, value in record.items():
                assert _bits(got.per_edge[edge][key]) == _bits(value), (edge, key)

    def test_boundary_loop(self, bands, name, kind, posed):
        # the fan vertices repeat along the loop, and the reference drops them
        state = prepare(_copy(bands[name], name, kind, posed))
        want = reference_loop(state)
        assert len(want) < len(state.loop)
        assert _bits(state.annulus_max) == _bits(verify_mod._annulus_max(want))
        assert state.winding == reference_loop_winding(want, INCENTER[:2])
        assert state.winding == reference_loop_winding(state.loop, INCENTER[:2])

    def test_flat_cycle_winding(self, bands, name, kind, posed):
        got, want = flat_cycle_windings(prepare(_copy(bands[name], name, kind, posed)).patches)
        assert got == want == 1

    def test_perp_roots(self, bands, name, kind, posed):
        band = _copy(bands[name], name, kind, posed)
        got, want = tpattern_mod._perp_roots(band), reference_perp_roots(band)
        assert len(got[0]) > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and _bits(g) == _bits(w)

    def test_root_segments(self, bands, name, kind, posed, monkeypatch):
        # the segments that _candidates hands to _classify, read off the lift
        seen = []

        def classify(a, b, sa, sb, tol, real=tpattern_mod._classify):
            seen.append((a, b, sa, sb))
            return real(a, b, sa, sb, tol)

        monkeypatch.setattr(tpattern_mod, "_classify", classify)
        band = _copy(bands[name], name, kind, posed)
        tpattern_mod._candidates(band, DEFAULT_TOL)
        (a, b, *got), = seen
        for g, w in zip(got, reference_root_segments(band, a, b)):
            assert g.shape == w.shape and _bits(g) == _bits(w)


def _same_band(got, want):
    return (got.lam == want.lam and _bits(got.flat) == _bits(want.flat)
            and _bits(got.space) == _bits(want.space))


@pytest.mark.parametrize("posed", [False, True])
@pytest.mark.parametrize("kind", COPIES)
@pytest.mark.parametrize("name", BANDS)
class TestGlide:
    """flatmodel.glide in place of the copies written out by hand."""

    def test_chains_and_leaves(self, bands, name, kind, posed):
        band = _copy(bands[name], name, kind, posed)
        n = band.n_bends
        for got, want in zip(band.boundary_chains(), reference_boundary_chains(band)):
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        # the last three lie in the wrap bracket (N - 1, N]
        for p in (0.0, 17.25, n - 1.0, n - 0.5, n - 1e-9, float(n)):
            got, want = interpolate_bend(band, p), reference_interpolate_bend(band, p)
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1]), p

    def test_flip_and_redevelop(self, bands, name, kind, posed):
        band = _copy(bands[name], name, kind, posed)
        n = band.n_bends
        assert _same_band(flip(band), reference_flip(band))
        # cuts at a bend, inside a patch, inside the wrap patch and at p = N
        for cut in (1.0, 17.25, 0.3 * n, n - 0.5, n - 1e-7, float(n)):
            assert _same_band(redevelop(band, cut), reference_redevelop(band, cut)), cut


def test_develop_for_equals_the_reference():
    """Both B-leaf branches of develop_for, the glide past the far end and
    the flip of a negative cut displacement, run on these copies."""
    bands = {"tri": build_triangular(), "wrinkle4": build_wrinkle(1e-4)}
    branches = set()
    for name, band in bands.items():
        for kind in COPIES:
            for posed in (False, True):
                for cut in (0.0, 0.3, 0.999):
                    copy = redevelop(_copy(band, name, kind, posed), cut * band.n_bends)
                    tp = find_tpattern(copy)
                    moved = normalize_pose(copy, tp)
                    (trap, dev), (want_trap, want_dev) = (develop_for(moved, tp),
                                                          reference_develop_for(moved, tp))
                    assert _same_band(dev, want_dev)
                    for field in ("lam", "t", "u", "v"):
                        assert _bits(getattr(trap, field)) == _bits(getattr(want_trap, field))
                    branches.add((tp.param_b < tp.param_t,
                                  reference_redevelop(moved, tp.param_t).cut_displacement() < 0.0))
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


def cli_digest(path, tmp) -> str:
    """sha256 of the exit codes and outputs of `verify --report --csv` and
    `tpattern` on one band file, run in this process."""
    digest = hashlib.sha256()
    report, summary = tmp / "report.json", tmp / "summary.csv"
    for argv in (["verify", "--input", str(path), "--report", str(report), "--csv", str(summary)],
                 ["tpattern", "--input", str(path)]):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli_main(argv)
        digest.update(f"{code}\n{stdout.getvalue()}".encode())
    digest.update(report.read_bytes() + summary.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", COPIES)
@pytest.mark.parametrize("name", BANDS)
class TestCliOutputs:
    """verify's stdout, report and CSV and tpattern's stdout are
    byte-identical with every reference path swapped in."""

    def test_byte_identical(self, bands, name, kind, tmp_path):
        for posed in (False, True):
            path = tmp_path / f"{posed}.json"
            write_json(_copy(bands[name], name, kind, posed), path)
            got = cli_digest(path, tmp_path)
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(verify_mod, "_Chain", ReferenceChain)
                patched.setattr(verify_mod, "boundary_deviation", reference_boundary_deviation)
                patched.setattr(verify_mod.PipelineState, "loop", property(reference_loop))
                patched.setattr(tpattern_mod, "_perp_roots", reference_perp_roots)
                patched.setattr(tpattern_mod, "_candidates", reference_candidates)
                patched.setattr(RuledBand, "boundary_chains", reference_boundary_chains)
                patched.setattr(tpattern_mod, "interpolate_bend", reference_interpolate_bend)
                patched.setattr(verify_mod, "develop_for", reference_develop_for)
                patched.setattr(verify_mod, "winding_number", reference_winding_number)
                assert isinstance(prepare(bands[name]).boundary[0], ReferenceChain)
                want = cli_digest(path, tmp_path)
            assert got == want, posed


# ---------------------------------------------------------------------------
# The curve sweep of `bounds`
# ---------------------------------------------------------------------------


def _pair_fields(cg, chord):
    return {"samples": cg.samples, "steps": cg._steps, "chord": chord,
            "deviation": cg.deviation, "domain_length": cg.domain_length,
            "chord_length": cg.chord_length, "graph_lengths": cg.graph_lengths()}


class TestCurvePath:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("tilt", [0.05, 0.9, 2.6])
    @pytest.mark.parametrize("n", [1200, 40, 2])
    def test_curve_and_pair(self, seed, tilt, n):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in (1.6, 2.85):
            got = bounds.random_unit_speed_curve(fast, length, tilt, n=n)
            want = reference_unit_speed_curve(slow, length, tilt, n=n)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert got.shape == want.shape == (n, 3) and got.T.flags.c_contiguous
            assert _bits(got) == _bits(want)
            got_pair = bounds.CurveGraphPair(got, speed_tol=1e-8)
            want_pair = ReferenceCurveGraphPair(want, speed_tol=1e-8)
            got_fields = _pair_fields(got_pair, got_pair._chord.T)
            want_fields = _pair_fields(want_pair, want_pair._chord)
            for key, value in want_fields.items():
                assert _bits(got_fields[key]) == _bits(value), key

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.floats(-16.0, -1.0))
    @settings(max_examples=200, deadline=None)
    def test_speed_residual(self, seed, n, log_noise):
        # the residual is the reference's bitwise: the pair accepts a
        # tolerance equal to it and rejects the next float below
        rng = np.random.default_rng(seed)
        pts = bounds.random_unit_speed_curve(rng, 2.0, 0.9, n=n)
        pts = pts + 10.0 ** log_noise * rng.normal(size=pts.shape)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        resid = float(np.abs(steps / (steps.sum() / (n - 1)) - 1.0).max())
        assert bounds.CurveGraphPair(pts, speed_tol=resid).domain_length == float(steps.sum())
        with pytest.raises(StructureError, match="not unit speed"):
            bounds.CurveGraphPair(pts, speed_tol=float(np.nextafter(resid, -1.0)))


class TestForcedDeviation:
    """Each accept decision on the chord deviation alone is the decision of
    the loop that validated every attempt."""

    @pytest.mark.parametrize("seed, attempts", [(7, 2640), (1234, 2672)])
    def test_equals_the_loop_that_validates_every_attempt(self, seed, attempts,
                                                           monkeypatch, capsys):
        draw, forced = bounds.random_unit_speed_curve, bounds.curve_with_forced_deviation
        draws, per_draw = [], []

        def counting(rng, length, tilt, n=1200):
            draws.append(n)
            return draw(rng, length, tilt, n)

        def checked(rng, eps):
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            want = reference_curve_with_forced_deviation(twin, eps)
            before = len(draws)
            got = forced(rng, eps)
            per_draw.append(len(draws) - before)
            assert rng.bit_generator.state == twin.bit_generator.state
            for field in ("samples", "deviation", "domain_length", "chord_length"):
                assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
            assert _bits(got.graph_lengths()) == _bits(want.graph_lengths())
            return got

        monkeypatch.setattr(bounds, "random_unit_speed_curve", counting)
        monkeypatch.setattr(bounds, "curve_with_forced_deviation", checked)
        assert cli_main(["bounds-sweep", "--grid", "1000", "--seed", str(seed)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert len(per_draw) == 1000 and sum(per_draw) == attempts


# every fixed range the sweeps draw from: the eps of the offset and curve
# sweeps; the offset sweep's half base and offset factor; the curve sweep's
# first angle swing, phases, and domain lengths (lo, 2.85) with
# lo = max(1.6, 8.1 sqrt(eps)) for eps up to 0.1
@pytest.mark.parametrize("low, high", [(0.001, 0.24), (0.001, 0.1), (0.2, 0.7), (1.0, 3.0),
                                       (0.7, 1.0), (0.0, 2.0 * math.pi), (1.6, 2.85),
                                       (8.1 * math.sqrt(0.05), 2.85),
                                       (8.1 * math.sqrt(0.1), 2.85)])
def test_uniform_equals_rng_uniform(low, high):
    fast, slow = np.random.default_rng(17), np.random.default_rng(17)
    got = [bounds._uniform(fast, low, high) for _ in range(10_000)]
    want = [slow.uniform(low, high) for _ in range(10_000)]
    assert _bits(got) == _bits(want)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_uniform_equals_rng_uniform_on_the_triangle_height():
    # the offset sweep draws the height from (half_base * 1.05, 1.4), a low
    # end that the draw before it sets
    def draws(rng, uniform):
        out = []
        for _ in range(10_000):
            half_base = uniform(rng, 0.2, 0.7)
            out += [half_base, uniform(rng, half_base * 1.05, 1.4)]
        return out

    fast, slow = np.random.default_rng(19), np.random.default_rng(19)
    assert _bits(draws(fast, bounds._uniform)) == _bits(draws(slow, reference_uniform))
    assert fast.bit_generator.state == slow.bit_generator.state


class TestSweepOutputs:
    """bounds-sweep's stdout and report are byte-identical with the curve
    references and numpy's uniform draws swapped in."""

    @pytest.mark.parametrize("argv", [["--grid", "1000", "--seed", "7"],
                                      ["--grid", "10", "--seed", "3"]])
    def test_byte_identical(self, argv, tmp_path):
        def run():
            report = tmp_path / "sweep.json"
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli_main(["bounds-sweep", *argv, "--report", str(report)])
            return code, stdout.getvalue(), report.read_bytes()

        got = run()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(bounds, "random_unit_speed_curve", reference_unit_speed_curve)
            patched.setattr(bounds, "CurveGraphPair", ReferenceCurveGraphPair)
            patched.setattr(bounds, "_deviation", reference_deviation)
            patched.setattr(bounds, "_uniform", reference_uniform)
            want = run()
        assert got == want and got[0] == 0


# ---------------------------------------------------------------------------
# The band file reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("posed", [False, True])
@pytest.mark.parametrize("kind", COPIES)
@pytest.mark.parametrize("name", BANDS)
def test_read_json_equals_the_reference(bands, name, kind, posed, tmp_path):
    """Band files written by `write_json` and by a compact json.dump."""
    band = _copy(bands[name], name, kind, posed)
    indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
    write_json(band, indented)
    with open(compact, "w") as fh:
        json.dump(to_json_dict(band), fh)
    for path in (indented, compact):
        with open(path) as fh:
            want = reference_from_json_dict(json.load(fh))
        assert _same_band(read_json(path), want), path.name


# what a mutation puts in place of a leaf, a row or a bend
_REPLACEMENTS = ["0.5", "ab", True, False, None, {"x": 0.5, "y": 1.0}, [[0.5, 1.0]],
                 1e308, 2 ** 70, 10 ** 400]
# (level, bend, key, row, leaf, operation): the bend index is taken modulo
# the bend count, the row and leaf indices modulo their lengths
_MUTATION = st.tuples(st.sampled_from(["bend", "row", "leaf"]), st.integers(0, 10 ** 6),
                      st.sampled_from(["flat", "space"]), st.integers(0, 3), st.integers(0, 3),
                      st.sampled_from(["drop", "repeat", "empty", *_REPLACEMENTS]))


def _mutate(data: dict, mutation) -> None:
    """Replace, drop or repeat one bend, row or leaf of a band dict in
    place, or empty its bends.  A mutation whose target an earlier one
    replaced or removed does nothing."""
    level, i, key, r, c, op = mutation
    bends = data["bends"]
    if op == "empty":
        bends.clear()
        return
    container, index = bends, i
    try:
        if level != "bend":
            container, index = bends[i % len(bends)][key], r
        if level == "leaf":
            container, index = container[r % len(container)], c
    except (TypeError, KeyError, ZeroDivisionError):
        return
    if type(container) is not list or not container:
        return
    index %= len(container)
    if op == "drop":
        del container[index]
    elif op == "repeat":
        container.insert(index, copy.deepcopy(container[index]))
    else:
        container[index] = copy.deepcopy(op)


def _read(reader, data: dict) -> RuledBand | None:
    """The band a reader makes of a band dict, None where it raises
    StructureError; any other exception propagates."""
    try:
        return reader(data)
    except StructureError:
        return None


@given(st.sampled_from(BANDS), st.sampled_from(COPIES), st.booleans(),
       st.lists(_MUTATION, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_band_dicts_read_as_the_reference(bands, name, kind, posed, mutations):
    """Both readers accept a mutated band dict with bitwise the same band,
    or both raise StructureError."""
    data = to_json_dict(_copy(bands[name], name, kind, posed))
    for mutation in mutations:
        _mutate(data, mutation)
    got = _read(from_json_dict, copy.deepcopy(data))
    want = _read(reference_from_json_dict, data)
    assert (got is None) == (want is None)
    assert got is None or _same_band(got, want)
