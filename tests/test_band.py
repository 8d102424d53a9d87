import io
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebiusband.band import (
    CANONICAL_TRIANGLE,
    WRINKLE_EPS_MAX,
    WRINKLE_EPS_MIN,
    RuledBand,
    WrinkleConfig,
    build_triangular,
    build_wrinkle,
    boundary_polyline,
    from_json_dict,
    interpolate_bend,
    points_to_triangles_distance,
    redevelop,
    sample_surface,
    scale_bend,
    surface_triangles,
    to_json_dict,
    flip,
    validate,
    write_json,
)
from moebiusband.geom import DEFAULT_TOL, StructureError
from moebiusband.verify import prepare, verify_eff

SQRT3 = math.sqrt(3.0)


class TestTriangular:
    def test_validation_exact(self, tri_band):
        rep = validate(tri_band)
        assert rep.passed
        assert rep.max_ruling_residual < 1e-10
        assert rep.max_boundary_residual < 1e-10
        assert rep.foliation_violations == 0

    def test_aspect_and_cut(self, tri_band):
        assert tri_band.lam == pytest.approx(SQRT3, abs=1e-15)
        assert tri_band.cut_displacement() == pytest.approx(1.0 / SQRT3, abs=1e-15)

    def test_boundary_is_canonical_triangle(self, tri_band, loop_hausdorff):
        loop = boundary_polyline(tri_band)
        # perimeter equals the full boundary length 2*lambda
        assert loop.length() == pytest.approx(2.0 * SQRT3, abs=1e-9)
        eta = 1e-4
        assert loop_hausdorff(loop.points, CANONICAL_TRIANGLE, eta) <= 2.0 * eta

    def test_cut_bend_is_base(self, tri_band):
        sp = tri_band.space[0]
        assert np.allclose(sp[0], [1.0 / SQRT3, 0.0, 0.0], atol=1e-15)
        assert np.allclose(sp[1], [-1.0 / SQRT3, 0.0, 0.0], atol=1e-15)

    def test_all_bends_cross_width(self, tri_band):
        assert tri_band.flat_lengths().min() >= 1.0 - 1e-12

    def test_surface_inside_triangle(self, tri_band):
        pts = sample_surface(tri_band, 1e-2)
        d = points_to_triangles_distance(pts, CANONICAL_TRIANGLE[None])
        assert d.max() < 1e-12

    def test_odd_fan_count_rejected(self):
        with pytest.raises(StructureError):
            build_triangular(n_per_fan=7)


class TestSampling:
    def test_sample_counts(self, tri_band):
        eta = 0.05
        pts = sample_surface(tri_band, eta)
        min_count = int(np.ceil(tri_band.space_lengths() / eta).sum()) + tri_band.n_bends
        assert len(pts) >= min_count

    def test_wrinkle_max_height_matches_crack(self, wrinkle4):
        eta = 1e-3
        pts = sample_surface(wrinkle4, eta)
        zmax = np.abs(pts[:, 2]).max()
        assert zmax == pytest.approx(wrinkle4.meta["crack_height"], abs=eta)

    def test_surface_triangles_shape(self, tri_band):
        tris = surface_triangles(tri_band)
        assert tris.shape == (2 * tri_band.n_bends, 3, 3)


class TestValidationNegative:
    def test_scaled_bend_fails(self, tri_band):
        bad = scale_bend(tri_band, 10, 1.01)
        rep = validate(bad)
        assert not rep.passed
        assert rep.max_ruling_residual == pytest.approx(0.01, rel=0.3)

    def test_too_few_bends(self, tri_band):
        with pytest.raises(StructureError, match="at least 8"):
            validate(RuledBand(tri_band.lam, tri_band.flat[:4], tri_band.space[:4]))

    def test_nonfinite_rejected(self, tri_band):
        flat = tri_band.flat.copy()
        flat[3, 0, 0] = np.nan
        with pytest.raises(StructureError):
            RuledBand(tri_band.lam, flat, tri_band.space)

    def test_interior_endpoint_rejected(self, tri_band):
        flat = tri_band.flat.copy()
        flat[5, 0, 1] = 0.2
        with pytest.raises(StructureError, match="boundary"):
            validate(RuledBand(tri_band.lam, flat, tri_band.space))


class TestWrinkleFamily:
    def test_closure_residual(self, wrinkle4):
        assert wrinkle4.meta["closure_residual"] < 1e-10

    def test_validation(self, wrinkle4):
        rep = validate(wrinkle4)
        assert rep.passed
        assert rep.max_ruling_residual < 1e-10

    def test_aspect_excess_linear_in_eps(self):
        for eps in (1e-4, 1e-3):
            band = build_wrinkle(eps)
            excess = band.lam - SQRT3
            assert 0.0 < excess <= 0.5 * eps

    def test_lambda_monotone_in_eps(self):
        grid = [1e-5, 1e-4, 1e-3, 3e-3, 1e-2]
        lams = [build_wrinkle(e).lam for e in grid]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_contains_canonical_triangle(self, wrinkle4):
        # the two untouched fans each cover the full triangle
        tris = surface_triangles(wrinkle4)
        corners = np.vstack([CANONICAL_TRIANGLE, [[0.0, -0.4, 0.0]], [[0.1, -0.2, 0.0]]])
        d = points_to_triangles_distance(corners, tris)
        assert d.max() < 1e-12

    def test_height_scales_like_sqrt_eps(self):
        eps = np.array([1e-3, 1e-4, 1e-5])
        heights = []
        for e in eps:
            band = build_wrinkle(float(e))
            heights.append(np.abs(band.space[:, :, 2]).max())
        slope = np.polyfit(np.log(eps), np.log(heights), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)

    def test_hausdorff_to_triangle_vanishes(self):
        dists = []
        for e in (1e-3, 1e-4, 1e-5):
            band = build_wrinkle(e)
            pts = sample_surface(band, 1e-3)
            dists.append(points_to_triangles_distance(pts, CANONICAL_TRIANGLE[None]).max())
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 2e-3

    def test_epsilon_range(self):
        for eps in (0.0, 0.5, math.nan, float(np.nextafter(WRINKLE_EPS_MIN, 0.0)),
                    float(np.nextafter(WRINKLE_EPS_MAX, 1.0))):
            with pytest.raises(StructureError, match="epsilon must lie in"):
                build_wrinkle(eps)

    def test_every_accepted_epsilon_validates(self):
        # a dense log scan, densest next to the floor, where the closure's
        # rounding is largest (a scan below it found failing bands up to 2.99e-6)
        scan = np.concatenate([np.geomspace(WRINKLE_EPS_MIN, 2.0 * WRINKLE_EPS_MIN, 120),
                               np.geomspace(2.0 * WRINKLE_EPS_MIN, WRINKLE_EPS_MAX, 120)])
        for eps in scan:
            rep = validate(build_wrinkle(float(eps)), DEFAULT_TOL)
            assert rep.passed, (eps, rep.max_boundary_residual)
            assert rep.max_boundary_residual < 0.5 * DEFAULT_TOL.isometry, eps

    def test_closure_failure_is_a_structure_error(self):
        with pytest.raises(StructureError, match="wrinkle closure failed"):
            build_wrinkle(1e-4, WrinkleConfig(max_iter=1))

    def test_frozen_solved_constants(self, wrinkle4):
        # regression values of the closure solve at eps = 1e-4
        meta = wrinkle4.meta
        assert meta["theta"] == pytest.approx(1e-2, abs=0.0)
        assert meta["width"] == pytest.approx(4.3300909356e-05, rel=1e-9)
        assert meta["crease_offset"] == pytest.approx(1.0825221482e-05, rel=1e-9)
        assert meta["crack_height"] == pytest.approx(4.9999166671e-03, rel=1e-9)
        assert meta["excess_coeff"] == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-4)

    def test_surface_within_containment_budget(self, wrinkle4):
        eps_excess = wrinkle4.lam - SQRT3
        pts = sample_surface(wrinkle4, 1e-3)
        d = points_to_triangles_distance(pts, CANONICAL_TRIANGLE[None])
        assert d.max() <= 6.0 * math.sqrt(eps_excess)


def _sub(u, v):
    return [x - y for x, y in zip(u, v)]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _along(a, v, t):
    return [x + t * y for x, y in zip(a, v)]


def _exact_triangle_distance(p, tri) -> float:
    """Distance from p to the triangle tri: the closest point of Ericson,
    "Real-Time Collision Detection", 5.1.5, in exact rational arithmetic,
    so every region test and the closest point are exact and only the
    final square root rounds.  A triangle whose exact normal is 0 (collinear
    or repeated vertices) has no interior, and Ericson's divisions can be
    0/0 there: its distance is the least over its three edges."""
    p = [Fraction(float(x)) for x in p]
    a, b, c = ([Fraction(float(x)) for x in v] for v in tri)
    ab, ac, ap = _sub(b, a), _sub(c, a), _sub(p, a)
    normal = [ab[1] * ac[2] - ab[2] * ac[1], ab[2] * ac[0] - ab[0] * ac[2],
              ab[0] * ac[1] - ab[1] * ac[0]]

    def gap(q):
        d = _sub(p, q)
        return _dot(d, d)

    if _dot(normal, normal) == 0:
        def to_edge(u, v):
            uv = _sub(v, u)
            vv = _dot(uv, uv)
            t = 0 if vv == 0 else min(max(_dot(_sub(p, u), uv) / vv, 0), 1)
            return gap(_along(u, uv, t))
        return math.sqrt(min(to_edge(a, b), to_edge(b, c), to_edge(c, a)))
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return math.sqrt(gap(a))
    bp = _sub(p, b)
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return math.sqrt(gap(b))
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return math.sqrt(gap(_along(a, ab, d1 / (d1 - d3))))
    cp = _sub(p, c)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return math.sqrt(gap(c))
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return math.sqrt(gap(_along(a, ac, d2 / (d2 - d6))))
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return math.sqrt(gap(_along(b, _sub(c, b), w)))
    denom = va + vb + vc
    return math.sqrt(gap(_along(_along(a, ab, vb / denom), ac, vc / denom)))


_COORD = st.floats(-2.0, 2.0)
_VEC = st.tuples(_COORD, _COORD, _COORD).map(np.array)


def _triangle(draw) -> np.ndarray:
    """A random, sliver or degenerate triangle, in a random vertex order."""
    kind = draw(st.sampled_from(["random", "sliver", "collinear", "repeated"]))
    a, b = draw(_VEC), draw(_VEC)
    if kind == "random":
        c = draw(_VEC)
    elif kind == "sliver":
        side = np.cross(b - a, draw(_VEC))
        side = side / max(np.linalg.norm(side), 1e-300)
        c = a + draw(st.floats(-0.5, 1.5)) * (b - a) + 10.0 ** draw(st.floats(-15.0, -2.0)) * side
    elif kind == "collinear":
        # dyadic coordinates, so that c lies on the line ab exactly
        lattice = st.tuples(*[st.integers(-1024, 1024)] * 3).map(lambda v: np.array(v) / 512.0)
        a, b = draw(lattice), draw(lattice)
        c = a + draw(st.integers(-4, 12)) / 8.0 * (b - a)
    else:
        c = a.copy()
    return np.array(draw(st.permutations([a, b, c])))


@st.composite
def _triangles_and_points(draw):
    """One to three triangles, and points on or near their vertices and
    edge lines, or anywhere."""
    tris = np.array([_triangle(draw) for _ in range(draw(st.integers(1, 3)))])
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        tri = tris[draw(st.integers(0, len(tris) - 1))]
        i = draw(st.integers(0, 2))
        u, v = tri[i], tri[(i + 1) % 3]
        base = draw(st.sampled_from([u, u + draw(st.floats(-0.2, 1.2)) * (v - u), draw(_VEC)]))
        off = draw(_VEC)
        off = off / max(np.linalg.norm(off), 1e-300) * 10.0 ** draw(st.floats(-16.0, 0.0))
        pts.append(base + off * draw(st.booleans()))
    return tris, np.array(pts)


def _distance_bound(p, tri) -> float:
    """The bound of `TestTriangleDistance.test_matches_exact_closest_point`."""
    e0, e1 = tri[1] - tri[0], tri[2] - tri[0]
    n = np.linalg.norm(np.cross(e0, e1))
    r = math.sqrt(3.0) * max(np.abs(p).max(), np.abs(tri).max())
    bound = 128 * 2.0 ** -53 * r
    if n > 0.0:
        bound += 128 * 2.0 ** -53 * r * np.linalg.norm(e0) * np.linalg.norm(e1) / n + 1.5e-12
    return bound


class TestTriangleDistance:
    @given(_triangles_and_points())
    @settings(max_examples=300, deadline=None)
    # points past the tip of slivers 1e-14 and 4e-6 wide, but outside no
    # edge line by more than 1e-12
    @example(([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-14, 0.0]]], [[-100.0, 0.0, 0.0]]))
    @example(([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 4e-6, 0.0]]], [[-2e-7, 0.0, 0.0]]))
    def test_matches_exact_closest_point(self, case):
        """The distance to each triangle is within

            B = 128 u R (1 + |e0| |e1| / |n|) + 1.5e-12

        of the exact distance, where u = 2^-53, R bounds the norm of the
        point and of every vertex, e0 = b - a, e1 = c - a and n = e0 x e1 as
        the kernel computes them; B = 128 u R where n = 0.  So the least
        over the triangles is within the largest B.

        Edge distances from differences are off by a few u R.  The plane
        distance |p.n - a.n| / |n| is off by about 6 u R from its dot
        products, and by |p - a| <= 2 R times the angle between the computed
        and the exact normal, at most 16 u |e0| |e1| / |n|.  The edge-line
        tests move by the same amounts, so a point they misplace lies within
        that of an edge line.  The 1e-12 slop passes points at most 1e-12
        outside an edge line, and the vertex regions, which need no normal,
        start 1e-12 past both edges at a vertex, so a point they leave out
        there lies within sqrt(2) 1e-12 of it.  All of these read the plane
        distance, whose shortfall is at most their distance from the
        triangle.  The leading terms sum to 64 u R |e0| |e1| / |n| + 24 u R +
        sqrt(2) 1e-12, and B doubles the rounding terms."""
        tris, pts = (np.asarray(x, dtype=float) for x in case)
        got = points_to_triangles_distance(pts, tris)
        for p, d in zip(pts, got):
            want = min(_exact_triangle_distance(p, tri) for tri in tris)
            assert abs(d - want) <= max(_distance_bound(p, tri) for tri in tris)


def _redevelop_loop(band: RuledBand, alpha: float) -> RuledBand:
    """The per-bend loop that `redevelop` replaced, kept as its reference."""
    n = band.n_bends
    alpha = float(alpha) % n
    if abs(alpha - round(alpha)) <= 1e-12:
        alpha = float(round(alpha) % n)
    i0 = math.ceil(alpha)
    frac = alpha - math.floor(alpha)

    def glide(fl, sp):
        out = fl[::-1].copy()
        out[:, 0] = fl[::-1, 0] + band.lam
        out[:, 1] = 1.0 - fl[::-1, 1]
        return out, sp[::-1].copy()

    flats, spaces = [], []
    if frac > 0.0:
        lf, ls = interpolate_bend(band, alpha)
        flats.append(lf)
        spaces.append(ls)
    for k, i in enumerate(list(range(i0, n)) + list(range(0, i0))):
        if k < n - i0:
            flats.append(band.flat[i].copy())
            spaces.append(band.space[i].copy())
        else:
            gf, gs = glide(band.flat[i], band.space[i])
            flats.append(gf)
            spaces.append(gs)
    flat = np.stack(flats)
    space = np.stack(spaces)
    flat[:, :, 0] -= flat[0, 0, 0]
    return replace(band, flat=flat, space=space, meta=None)


class TestDevelopment:
    @pytest.mark.parametrize("band_name", ["tri_band", "wrinkle4"])
    def test_redevelop_matches_loop(self, band_name, request):
        # integer, near-integer, wrap-patch and random cuts
        band = request.getfixturevalue(band_name)
        n = band.n_bends
        cuts = [0, 1, n // 2, n - 1, n, -3.25, 5 - 1e-13, 5 + 1e-13, 7 - 2e-12, 7 + 2e-12,
                9 - 1e-9, 9 + 1e-9, n - 1e-13, n - 1e-6, n - 0.5, n - 0.9]
        cuts += list(np.random.default_rng(11).uniform(0.0, n, 40))
        for alpha in cuts:
            got, want = redevelop(band, alpha), _redevelop_loop(band, alpha)
            assert np.array_equal(got.flat, want.flat) and np.array_equal(got.space, want.space), alpha
            assert got.lam == want.lam and got.meta is None

    def test_redevelop_at_integer_keeps_validity(self, tri_band):
        for k in (1, 40, 100):
            dev = redevelop(tri_band, k)
            rep = validate(dev, DEFAULT_TOL)
            assert rep.passed
            assert np.allclose(dev.flat[0, 0], [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("band_name", ["tri", "wrinkle4"])
    def test_redevelop_in_wrap_patch(self, band_name, request):
        # a cut in (N-1, N) lies between the last bend and the glued bends[0]
        band = request.getfixturevalue("tri_band" if band_name == "tri" else band_name)
        ref = verify_eff(band, state=request.getfixturevalue(f"{band_name}_state"))
        n = band.n_bends
        for alpha in (n - 0.9, n - 0.5, n - 1e-6):
            dev = redevelop(band, alpha)
            assert validate(dev, DEFAULT_TOL).passed, alpha
            state = prepare(dev)
            assert state.trapezoid.t == pytest.approx(1.0 / SQRT3, abs=1e-12)
            rep = verify_eff(dev, state=state)
            assert abs(rep.measured["deviation"] - ref.measured["deviation"]) <= 1e-8

    @pytest.mark.parametrize("alpha", [5 - 1e-13, 127.9999999999999])
    def test_redevelop_just_below_a_bend(self, alpha):
        # a cut within 1e-12 of a stored bend is that bend, not a second
        # leaf coincident with it
        band = build_wrinkle(1e-3)
        dev = redevelop(band, alpha)
        assert dev.n_bends == band.n_bends
        assert validate(dev, DEFAULT_TOL).passed
        assert np.array_equal(dev.space, redevelop(band, round(alpha)).space)

    def test_redevelop_identity(self, tri_band):
        dev = redevelop(tri_band, 0)
        assert np.allclose(dev.flat, tri_band.flat, atol=1e-12)
        assert np.allclose(dev.space, tri_band.space, atol=0.0)

    def test_flip_negates_displacement(self, tri_band):
        flipped = flip(tri_band)
        assert flipped.cut_displacement() == pytest.approx(
            -tri_band.cut_displacement(), abs=1e-15
        )
        assert validate(flipped).passed


class TestBoundaryChains:
    @pytest.mark.parametrize("copy", ["plain", "flip", "recut"])
    @pytest.mark.parametrize("band_name", ["tri_band", "wrinkle4"])
    def test_chains_end_with_glued_first_bend(self, band_name, copy, request):
        band = request.getfixturevalue(band_name)
        band = {"plain": band, "flip": flip(band), "recut": redevelop(band, 17.25)}[copy]
        g_flat, g_space = band.glued_first_bend()
        for side, (xs, pts) in enumerate(band.boundary_chains()):
            assert np.array_equal(xs, np.append(band.flat[:, side, 0], g_flat[side, 0]))
            assert np.array_equal(pts, np.vstack([band.space[:, side], g_space[side][None, :]]))
        tris = surface_triangles(band)
        (_, bot), (_, top) = band.boundary_chains()
        assert np.array_equal(tris[: band.n_bends], np.stack([bot[:-1], bot[1:], top[1:]], axis=1))


class TestSerialization:
    def test_round_trip_exact(self, wrinkle4, tmp_path):
        data = to_json_dict(wrinkle4)
        back = from_json_dict(json.loads(json.dumps(data)))
        assert back.lam == wrinkle4.lam
        assert np.array_equal(back.flat, wrinkle4.flat)
        assert np.array_equal(back.space, wrinkle4.space)

    def test_write_json_bytes(self, wrinkle4, tmp_path):
        path = tmp_path / "w.json"
        write_json(wrinkle4, path)
        # the bytes that json.dump writes chunk by chunk
        want = io.StringIO()
        json.dump(to_json_dict(wrinkle4), want, indent=1)
        assert path.read_text() == want.getvalue() + "\n"

    def test_bend_order_starts_at_min_midpoint(self, tri_band):
        data = to_json_dict(tri_band)
        mids = [0.5 * (b["flat"][0][0] + b["flat"][1][0]) for b in data["bends"]]
        assert int(np.argmin(mids)) == 0

    def test_malformed_rejected(self):
        with pytest.raises(StructureError, match="malformed"):
            from_json_dict({"format_version": 1, "bends": []})
        with pytest.raises(StructureError, match="format_version"):
            from_json_dict({"format_version": 99, "lambda": 2.0, "bends": []})
