import inspect
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebiusband.band import (
    APEX,
    CANONICAL_TRIANGLE,
    WRINKLE_EPS_MAX,
    WRINKLE_EPS_MIN,
    RuledBand,
    WrinkleConfig,
    build_triangular,
    build_wrinkle,
    from_json_dict,
    interpolate_bend,
    points_to_triangles_distance,
    read_json,
    redevelop,
    sample_surface,
    surface_triangles,
    to_json_dict,
    flip,
    transform,
    validate,
    write_json,
)
from moebiusband.flatmodel import glide
from moebiusband.geom import DEFAULT_TOL, RigidMotion, StructureError
from moebiusband.verify import _flat_layer_covers, prepare, verify_eff

from conftest import (
    boundary_loop,
    random_motion,
    reference_triangles_distance,
    replace,
    scale_bend,
)

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
        loop = boundary_loop(tri_band)
        # perimeter equals the full boundary length 2*lambda
        perimeter = np.linalg.norm(np.roll(loop, -1, axis=0) - loop, axis=1).sum()
        assert perimeter == pytest.approx(2.0 * SQRT3, abs=1e-9)
        eta = 1e-4
        assert loop_hausdorff(loop, CANONICAL_TRIANGLE, eta) <= 2.0 * eta

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
        # the crack height at eps = 1e-4
        assert zmax == pytest.approx(0.5 * math.sin(math.sqrt(1e-4)), abs=eta)

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


def _plug_constants(eps):
    """The crack angle gamma, the strip width w = 2 tan(gamma/2) and the
    crease offset c = tan(gamma/4) of the wrinkle's plug at eps.  Each door
    turns by theta = sqrt(eps) about a side of the triangle, 1/2 from the
    slit's top end, which so moves (sqrt(3)/4)(1 - cos theta) off the plane
    x = 0.  The slit edge has length 1, so the crack V opens by gamma with
    sin(gamma/2) = (sqrt(3)/2) sin(theta/2)^2."""
    theta = math.sqrt(eps)
    gamma = 2.0 * math.asin(0.5 * SQRT3 * math.sin(0.5 * theta) ** 2)
    return gamma, 2.0 * math.tan(0.5 * gamma), math.tan(0.25 * gamma)


def _strip_fold(width, c):
    """Reference strip fold, computed step by step: the strip
    [-w/2, w/2] x [0, 1] folded along the creases from its top
    midpoint to (+-c, 0).  Returns the opening angle of the V of its folded
    vertical edges and where its two bottom corners land."""
    def reflect(p, a, b):
        d = (b - a) / np.linalg.norm(b - a)
        rel = p - a
        return a + 2.0 * (rel @ d) * d - rel

    t0, k1, k2 = np.array([0.0, 1.0]), np.array([-c, 0.0]), np.array([c, 0.0])
    corner_l = reflect(np.array([-width / 2, 0.0]), t0, k1)
    corner_r = reflect(np.array([width / 2, 0.0]), t0, k2)
    e_l = reflect(np.array([-width / 2, 1.0]), t0, k1) - corner_l
    e_r = reflect(np.array([width / 2, 1.0]), t0, k2) - corner_l
    angle = math.atan2(abs(e_l[0] * e_r[1] - e_l[1] * e_r[0]), float(e_l @ e_r))
    return angle, corner_l, corner_r


class TestWrinkleFamily:
    def test_closed_form_plug_matches_strip_fold(self):
        # w = 2 tan(gamma/2) and c = tan(gamma/4) close the plug to rounding
        # over the whole accepted range
        for eps in np.geomspace(WRINKLE_EPS_MIN, WRINKLE_EPS_MAX, 60):
            band = build_wrinkle(float(eps))
            gamma, width, c = _plug_constants(float(eps))
            angle, corner_l, corner_r = _strip_fold(width, c)
            # the folded V opens by the crack angle (measured within 8.7e-16 relative)
            assert abs(angle - gamma) <= 4e-15 * gamma, eps
            assert abs(width * c * c + 4.0 * c - width) <= 1e-15 * width, eps
            # lambda reads the closed form to 2.1e-16: its own rounding (half
            # an ulp of sqrt(3) is 1.1e-16) and that of the generator's
            # gamma, read off the rotated door tips to about 1e-16
            assert abs(band.lam - SQRT3 - 2.0 * math.tan(gamma / 2.0)) <= 2.3e-16, eps
            assert np.abs(corner_l - corner_r).max() <= 1e-17, eps
            # the bends from the two seam feet (the only shared bottom feet)
            # all start at APEX: the doors' by construction, the plug's
            # through the fold and the mirror
            feet, count = np.unique(band.flat[:, 0, 0], return_counts=True)
            assert len(feet[count > 1]) == 2, eps
            seam = np.isin(band.flat[:, 0, 0], feet[count > 1])
            assert np.abs(band.space[seam, 0] - APEX).max() <= 1e-17, eps

    def test_fans_are_the_triangular_bands(self):
        # the wrinkle's fans fold the triangular band's flap coordinates and
        # move only the flat band, so their space points are bitwise the
        # triangular band's
        n = WrinkleConfig().n_fan
        tri = build_triangular(n)
        for eps in (WRINKLE_EPS_MIN, 1e-4, WRINKLE_EPS_MAX):
            band = build_wrinkle(eps)
            assert band.space[:n + 1].tobytes() == tri.space[:n + 1].tobytes(), eps
            assert band.space[-(n - 1):].tobytes() == tri.space[-(n - 1):].tobytes(), eps

    def test_flat_layer_certifies_coverage(self):
        # the flat fans meet the triangle's edge lines within _RIM at every
        # eps, down to the floor, so the flat layer certifies the coverage
        failed = [eps for eps in np.geomspace(1e-8, 1e-5, 200)
                  if not _flat_layer_covers(prepare(build_wrinkle(float(eps))).patches)]
        assert failed == []

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
        d = reference_triangles_distance(corners, tris)
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
        # a dense log scan, densest next to the floor; the residual bound
        # keeps out any closure error that grows like 1/eps
        scan = np.concatenate([np.geomspace(WRINKLE_EPS_MIN, 2.0 * WRINKLE_EPS_MIN, 120),
                               np.geomspace(2.0 * WRINKLE_EPS_MIN, WRINKLE_EPS_MAX, 120)])
        for eps in scan:
            rep = validate(build_wrinkle(float(eps)), DEFAULT_TOL)
            assert rep.passed, (eps, rep.max_boundary_residual)
            assert rep.max_boundary_residual < 1e-14, eps

    def test_frozen_solved_constants(self, wrinkle4):
        # regression values of the closed-form plug at eps = 1e-4, and the
        # band's lambda - sqrt(3), which is the plug's width
        _, width, c = _plug_constants(1e-4)
        assert width == pytest.approx(4.3300909356e-05, rel=1e-9)
        assert wrinkle4.lam - SQRT3 == pytest.approx(4.3300909356e-05, rel=1e-9)
        assert c == pytest.approx(1.0825227338e-05, rel=1e-9)
        assert 0.5 * math.sin(math.sqrt(1e-4)) == pytest.approx(4.9999166671e-03, rel=1e-9)
        assert (wrinkle4.lam - SQRT3) / 1e-4 == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-4)

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


def _exact_sqrt(q: Fraction) -> float:
    """sqrt(q) for a Fraction q >= 0, rounded from float(q / 4^k) as
    math.sqrt(q) rounds from float(q): q / 4^k lies in [1/2, 4), so a q
    below the least float does not read 0, and the root of 4^k is 2^k."""
    if q == 0:
        return 0.0
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(q / Fraction(4) ** k), k)


def _exact_normal(tri) -> list:
    """(b - a) x (c - a) of the triangle (a, b, c), as Fractions."""
    a, b, c = ([Fraction(float(x)) for x in v] for v in tri)
    ab, ac = _sub(b, a), _sub(c, a)
    return [ab[1] * ac[2] - ab[2] * ac[1], ab[2] * ac[0] - ab[0] * ac[2],
            ab[0] * ac[1] - ab[1] * ac[0]]


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
    normal = _exact_normal(tri)

    def gap(q):
        d = _sub(p, q)
        return _dot(d, d)

    if _dot(normal, normal) == 0:
        def to_edge(u, v):
            uv = _sub(v, u)
            vv = _dot(uv, uv)
            t = 0 if vv == 0 else min(max(_dot(_sub(p, u), uv) / vv, 0), 1)
            return gap(_along(u, uv, t))
        return _exact_sqrt(min(to_edge(a, b), to_edge(b, c), to_edge(c, a)))
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return _exact_sqrt(gap(a))
    bp = _sub(p, b)
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return _exact_sqrt(gap(b))
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return _exact_sqrt(gap(_along(a, ab, d1 / (d1 - d3))))
    cp = _sub(p, c)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return _exact_sqrt(gap(c))
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return _exact_sqrt(gap(_along(a, ac, d2 / (d2 - d6))))
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return _exact_sqrt(gap(_along(b, _sub(c, b), w)))
    denom = va + vb + vc
    return _exact_sqrt(gap(_along(_along(a, ab, vb / denom), ac, vc / denom)))


_COORD = st.floats(-2.0, 2.0)
_VEC = st.tuples(_COORD, _COORD, _COORD).map(np.array)


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v|, with v scaled by its largest component first: the norm of
    a vector below about 1e-154 underflows to 0.  The zero vector stays 0."""
    top = np.abs(v).max()
    if top == 0.0:
        return v
    v = v / top
    return v / np.linalg.norm(v)


def _triangle(draw) -> np.ndarray:
    """A random, sliver or degenerate triangle, in a random vertex order."""
    kind = draw(st.sampled_from(["random", "sliver", "collinear", "repeated"]))
    a, b = draw(_VEC), draw(_VEC)
    if kind == "random":
        c = draw(_VEC)
    elif kind == "sliver":
        side = _unit(np.cross(b - a, draw(_VEC)))
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
        off = _unit(off) * 10.0 ** draw(st.floats(-16.0, 0.0))
        pts.append(base + off * draw(st.booleans()))
    return tris, np.array(pts)


def _distance_bound(p, tri) -> float:
    """The bound of `TestTriangleDistance.test_matches_exact_closest_point`.
    |n| is taken from the exact normal: its float square can underflow to 0
    on a triangle with an interior."""
    e0, e1 = tri[1] - tri[0], tri[2] - tri[0]
    normal = _exact_normal(tri)
    n = _exact_sqrt(_dot(normal, normal))
    r = math.sqrt(3.0) * max(np.abs(p).max(), np.abs(tri).max())
    bound = 128 * 2.0 ** -53 * r
    if n > 0.0:
        bound += 128 * 2.0 ** -53 * r * np.linalg.norm(e0) * np.linalg.norm(e1) / n + 1.5e-12
    return bound


class TestTriangleDistance:
    def test_unit_of_a_tiny_vector(self):
        # the sliver side of a = 0, b = (1, 1, 0) and a drawn (0, 0, 1.9e-182):
        # its norm underflows to 0, and dividing by a floored 1e-300 put the
        # vertex c near 1.9e118, where the kernel's products overflow
        side = _unit(np.cross([1.0, 1.0, 0.0], [0.0, 0.0, 1.91070346e-182]))
        assert np.allclose(side, [math.sqrt(0.5), -math.sqrt(0.5), 0.0], rtol=0.0, atol=1e-15)
        assert not _unit(np.zeros(3)).any()

    @given(_triangles_and_points())
    @settings(max_examples=300, deadline=None)
    # points past the tip of slivers 1e-14 and 4e-6 wide, but outside no
    # edge line by more than 1e-12
    @example(([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-14, 0.0]]], [[-100.0, 0.0, 0.0]]))
    @example(([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 4e-6, 0.0]]], [[-2e-7, 0.0, 0.0]]))
    # a point 5.9e-295 above a point triangle, whose square underflows
    @example(([[[0.0, 0.0, 0.0]] * 3], [[0.0, 0.0, 5.9e-295]]))
    def test_matches_exact_closest_point(self, case):
        """The distance to each triangle is within

            B = 128 u R (1 + |e0| |e1| / |n|) + 1.5e-12

        of the exact distance, where u = 2^-53, R bounds the norm of the
        point and of every vertex, e0 = b - a and e1 = c - a as the kernel
        computes them, and n = e0 x e1 exactly; B = 128 u R where n = 0.  So the least
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
        got = reference_triangles_distance(pts, tris)
        for p, d in zip(pts, got):
            want = min(_exact_triangle_distance(p, tri) for tri in tris)
            assert abs(d - want) <= max(_distance_bound(p, tri) for tri in tris)


# coordinates on the dyadic lattice of pitch 2^-19 over [-2, 2]: no square
# that the exact distance or its bound takes underflows.  The slivers, the
# offsets and the lifts bring the small scales
_DYADIC = st.integers(-2 ** 20, 2 ** 20).map(lambda i: i / 2.0 ** 19)
_PLANAR = st.tuples(_DYADIC, _DYADIC, st.just(0.0)).map(np.array)
_SMALL = st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e)


def _planar_triangle(draw) -> np.ndarray:
    """A random, sliver (1e-12 to 1e-2 wide) or degenerate triangle in the
    plane z = 0, in a random vertex order, so of either orientation."""
    kind = draw(st.sampled_from(["random", "sliver", "collinear", "repeated"]))
    a, b = draw(_PLANAR), draw(_PLANAR)
    if kind == "random":
        c = draw(_PLANAR)
    elif kind == "sliver":
        side = _unit(np.array([a[1] - b[1], b[0] - a[0], 0.0]))
        c = a + draw(st.floats(-0.5, 1.5)) * (b - a) + 10.0 ** draw(st.floats(-12.0, -2.0)) * side
    elif kind == "collinear":
        c = a + draw(st.integers(-4, 12)) / 8.0 * (b - a)
    else:
        c = a.copy()
    return np.array(draw(st.permutations([a, b, c])))


@st.composite
def _planar_triangles_and_points(draw):
    """One to three triangles in z = 0, and points whose xy lies on or near
    their vertices and edge lines, or anywhere, at z = 0 or a random z."""
    tris = np.array([_planar_triangle(draw) for _ in range(draw(st.integers(1, 3)))])
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        tri = tris[draw(st.integers(0, len(tris) - 1))]
        i = draw(st.integers(0, 2))
        u, v = tri[i], tri[(i + 1) % 3]
        base = draw(st.sampled_from([u, u + draw(st.floats(-0.2, 1.2)) * (v - u), draw(_PLANAR)]))
        off = _unit(draw(_PLANAR)) * draw(_SMALL)
        lift = draw(st.sampled_from([0.0, draw(_DYADIC), draw(_SMALL)]))
        pts.append(base + off * draw(st.booleans()) + [0.0, 0.0, lift])
    return tris, np.array(pts)


@pytest.fixture(scope="module")
def prepared_ends(tri_band, wrinkle4):
    """The bend ends of 168 prepared copies, each with its band's name:
    seven bands, each as is, flipped and re-cut at six random cuts, each of
    those unposed, under a proper and under an improper pose."""
    bands = {"tri": tri_band, "wrinkle4": wrinkle4}
    bands |= {f"wrinkle{e:g}": build_wrinkle(e) for e in (1e-3, 1e-5, 1e-7, 3e-8, 1e-2)}
    rng = np.random.default_rng(33)
    out = []
    for name, band in bands.items():
        cuts = rng.uniform(0.0, band.n_bends - 1, 6)
        for copy in [band, flip(band)] + [redevelop(band, c) for c in cuts]:
            proper = random_motion(rng, scale=1.5)
            improper = random_motion(rng, scale=1.5)
            improper = RigidMotion(-improper.rotation, improper.translation)
            for moved in (copy, transform(copy, proper), transform(copy, improper)):
                out.append((name, prepare(moved).developed.space.reshape(-1, 3)))
    return out


class TestPlanarTriangleDistance:
    """`points_to_triangles_distance`, the closed form for triangles in
    z = 0, against the general reference kernel and exact arithmetic."""

    def test_matches_reference_on_prepared_copies(self, prepared_ends):
        # the maximum is band_to_triangle.  On the wrinkle copies it is a
        # plane distance, |z| here; it agrees bitwise.  On the triangular
        # copies it is the pose's rounding of z, about 2e-16, which the
        # reference's |z n| / |n| moves by up to an ulp (once in 24 here).
        # Each point agrees within 2^-53 (3.5e-18 seen)
        assert len(prepared_ends) == 168
        for k, (name, ends) in enumerate(prepared_ends):
            got = points_to_triangles_distance(ends, CANONICAL_TRIANGLE[None])
            want = reference_triangles_distance(ends, CANONICAL_TRIANGLE[None])
            if name == "tri":
                assert abs(got.max() - want.max()) <= np.spacing(want.max()), k
            else:
                assert got.max() == want.max(), (name, k)
            assert np.abs(got - want).max() <= 2.0 ** -53, (name, k)

    @given(_planar_triangles_and_points())
    @settings(max_examples=300, deadline=None)
    # points past the tip of slivers 1e-14 and 4e-6 wide, outside no edge
    # line by more than 1e-12, and one 5e-8 past the tip of a sliver 1e-9
    # wide, whose edge-line tests, taken from the edges' far ends, round it inside
    @example(([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-14, 0.0]]], [[-100.0, 0.0, 0.0]]))
    @example(([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 4e-6, 0.0]]], [[-2e-7, 0.0, 0.5]]))
    @example(([[[0.1, 0.2, 0.0], [1.3, 0.9, 0.0], [0.09999999949612898, 0.20000000086377892, 0.0]]],
              [[1.3000000431889451, 0.9000000251935513, 0.0]]))
    # a point 9.9e-225 above a point triangle, whose square underflows, and
    # one 1e-12 from a sliver 2e-258 wide, whose normal's square underflows
    @example(([[[0.0, 0.0, 0.0]] * 3], [[0.0, 0.0, 9.9e-225]]))
    @example(([[[0.0, 0.0, 0.0], [0.0, 2e-258, 0.0], [1.0, 0.0, 0.0]]], [[0.0, 1e-12, 0.0]]))
    def test_matches_exact_closest_point(self, case):
        """The closed form stays within the bound B of
        `TestTriangleDistance` of the exact distance.

        Edge distances from differences are off by a few u R, and hypot
        adds no more.  The 1e-12 slop reads 0 at most 1e-12 from the
        triangle.  Each edge-line test is taken at the edge's nearer end, so
        it is off by a few u times the point's distance from that end: a
        point it misplaces lies within a few u R of an edge, or, past a
        vertex of angle theta at a distance r, only where sin(theta / 2) is
        a few u, which no sliver here reaches."""
        tris, pts = (np.asarray(x, dtype=float) for x in case)
        got = points_to_triangles_distance(pts, tris)
        for p, d in zip(pts, got):
            want = min(_exact_triangle_distance(p, tri) for tri in tris)
            assert abs(d - want) <= max(_distance_bound(p, tri) for tri in tris)

    def test_lifted_triangle_rejected(self):
        pts = np.array([[0.0, -0.5, 0.1]])
        # -0.0 lies in the plane
        assert points_to_triangles_distance(pts, CANONICAL_TRIANGLE[None] * [1.0, 1.0, -1.0]) == 0.1
        for k in range(3):
            lifted = CANONICAL_TRIANGLE.copy()
            lifted[k, 2] = 1e-300
            with pytest.raises(StructureError, match="triangles in the plane z = 0"):
                points_to_triangles_distance(pts, np.stack([CANONICAL_TRIANGLE, lifted]))


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
    return replace(band, flat=flat, space=space)


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
            assert got.lam == want.lam

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
        ref = verify_eff(request.getfixturevalue(f"{band_name}_state"))
        n = band.n_bends
        for alpha in (n - 0.9, n - 0.5, n - 1e-6):
            dev = redevelop(band, alpha)
            assert validate(dev, DEFAULT_TOL).passed, alpha
            state = prepare(dev)
            assert state.trapezoid.t == pytest.approx(1.0 / SQRT3, abs=1e-12)
            rep = verify_eff(state)
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

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_cut_beside_a_bend_validates(self, eps):
        # neighbouring plug bends lie about 3.6e-7 apart in x at eps 1e-5,
        # so a cut up to 1e-7 from one can give a leaf whose ends both lie
        # within 1e-14 of that bend's in x, a duplicate to validate;
        # redevelop reads such a cut as that bend
        band = build_wrinkle(eps)
        n = band.n_bends
        failed = [(k, s * d) for k in range(n) for d in (1e-11, 1e-10, 5e-10, 1e-9, 1e-8, 1e-7)
                  for s in (-1, 1) if not validate(redevelop(band, (k + s * d) % n)).passed]
        assert not failed
        # 55 is a plug bend; the leaf 1e-10 past it lies within 3.6e-15 of it in x
        assert np.array_equal(redevelop(band, 55 + 1e-10).space, redevelop(band, 55).space)

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
        g_flat, g_space = glide(band.flat[0], band.lam), band.space[0, ::-1]
        for side, (xs, pts) in enumerate(band.boundary_chains()):
            assert np.array_equal(xs, np.append(band.flat[:, side, 0], g_flat[side, 0]))
            assert np.array_equal(pts, np.vstack([band.space[:, side], g_space[side][None, :]]))
        tris = surface_triangles(band)
        (_, bot), (_, top) = band.boundary_chains()
        assert np.array_equal(tris[: band.n_bends], np.stack([bot[:-1], bot[1:], top[1:]], axis=1))

    def test_wrap_leaf_is_the_glided_first_bend(self, tri_band):
        # bend 0's ends sit 1e-10 off the boundary lines, which validation
        # allows.  The leaf at p = N is bend 0 glided, y -> 1 - y included,
        # as redevelop appends it past the far end of the development
        flat = tri_band.flat.copy()
        flat[0, :, 1] = [1e-10, 1.0 - 1e-10]
        band = replace(tri_band, flat=flat)
        assert validate(band).passed
        leaf_flat, leaf_space = interpolate_bend(band, band.n_bends)
        dev = redevelop(band, 1)
        assert np.array_equal(leaf_flat[:, 1], dev.flat[-1, :, 1])
        assert np.array_equal(leaf_flat[:, 1], [1.0 - (1.0 - 1e-10), 1.0 - 1e-10])
        # redevelop re-anchors x at bend 1's bottom end
        assert np.array_equal(leaf_flat[:, 0] - band.flat[1, 0, 0], dev.flat[-1, :, 0])
        assert np.array_equal(leaf_space, dev.space[-1])


class TestSerialization:
    def test_round_trip_exact(self, tri_band, wrinkle4, tmp_path):
        # a band holds what its file holds: reading a band file back gives
        # every constructor argument of the band written, bitwise.  The last
        # copy, the triangular band with bend 1 made a copy of bend 0 whose
        # bottom end is moved to x = -5e-13, validates and has its least bend
        # midpoint at bend 1; its file keeps bend 0 first
        bands = [tri_band, build_wrinkle(1e-3), wrinkle4, build_wrinkle(1e-5)]
        flat, space = tri_band.flat.copy(), tri_band.space.copy()
        flat[1], space[1] = flat[0], space[0]
        flat[1, 0, 0] = -5e-13
        moved = replace(tri_band, flat=flat, space=space)
        assert validate(moved).passed and int(np.argmin(flat[:, 0, 0] + flat[:, 1, 0])) == 1
        copies = (bands + [flip(b) for b in bands]
                  + [redevelop(wrinkle4, 0.3 * wrinkle4.n_bends), moved])
        for k, band in enumerate(copies):
            write_json(band, tmp_path / "band.json")
            back = read_json(tmp_path / "band.json")
            for name in inspect.signature(RuledBand).parameters:
                got, want = getattr(back, name), getattr(band, name)
                if isinstance(want, np.ndarray):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, name)
                else:
                    assert type(got) is type(want) and got == want, (k, name)

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

    def test_unknown_keys_rejected_by_name(self, tri_band):
        data = to_json_dict(tri_band)
        data["bends"][5]["weight"] = 1.0
        with pytest.raises(StructureError, match="unknown bend key 'weight'$"):
            from_json_dict(data)
        data.update(colour="red", closed=True)
        with pytest.raises(StructureError, match="unknown key 'colour'$"):
            from_json_dict(data)
