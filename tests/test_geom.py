import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband.geom import (
    RigidMotion,
    StructureError,
    cross3,
    point_segment_distance,
    rotation_about_line,
    row_dot,
    winding_number,
)

from conftest import densify_segment, random_motion
from test_reference_paths import loop_without_duplicates


def scalar_point_segment_distance(p, a, b) -> float:
    """Euclidean distance from point p to the segment a-b."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def _edges(loop):
    """The directed edges of a closed loop of (n, 2) vertices, as starts
    and ends."""
    loop = np.asarray(loop, dtype=float)
    return loop, np.roll(loop, -1, axis=0)


def loop_winding(loop, point):
    return winding_number(*_edges(loop), point)


class TestWinding:
    SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

    def test_ccw_square_origin(self):
        assert loop_winding(self.SQUARE, [0.0, 0.0]) == 1

    def test_point_outside(self):
        assert loop_winding(self.SQUARE, [5.0, 5.0]) == 0

    def test_cw_square_origin(self):
        assert loop_winding(self.SQUARE[::-1], [0.0, 0.0]) == -1

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_invariant_under_start_rotation(self, k):
        loop = np.roll(self.SQUARE, -k, axis=0)
        assert loop_winding(loop, [0.2, -0.3]) == 1

    def test_point_on_loop_rejected(self):
        with pytest.raises(StructureError, match="on the loop"):
            loop_winding(self.SQUARE, [1.0, 0.0])

    def test_near_collinear_edges(self):
        # many collinear vertices along each side must not confuse the count
        side = np.linspace(0.0, 1.0, 50)
        bot = np.stack([side, np.zeros_like(side)], axis=1)
        top = np.stack([side[::-1], np.ones_like(side)], axis=1)
        assert loop_winding(np.vstack([bot, top]), [0.5, 0.5]) == 1


class TestRigidMotion:
    def test_identity(self):
        m = RigidMotion(np.eye(3), np.zeros(3))
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(m.apply(p), p, atol=0.0)

    def test_distance_invariance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = random_motion(rng, scale=2.0)
            p = rng.normal(size=(10, 3))
            q = rng.normal(size=(10, 3))
            d0 = np.linalg.norm(p - q, axis=1)
            d1 = np.linalg.norm(m.apply(p) - m.apply(q), axis=1)
            assert np.abs(d0 - d1).max() < 1e-12

    def test_improper_isometry_allowed(self):
        m = RigidMotion(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        assert np.allclose(m.apply([0.0, 0.0, 2.0]), [0.0, 0.0, -2.0])

    def test_non_orthogonal_rejected(self):
        with pytest.raises(StructureError, match="orthogonal"):
            RigidMotion(np.eye(3) * 1.1, np.zeros(3))

    def test_rotation_about_line(self):
        rot = rotation_about_line([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], math.pi / 2)
        assert np.allclose(rot.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
        # points on the axis stay fixed
        assert np.allclose(rot.apply([0.0, 0.0, 5.0]), [0.0, 0.0, 5.0], atol=1e-15)


class TestSegments:
    def test_point_segment_distance(self):
        assert point_segment_distance([0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]) == 1.0
        assert point_segment_distance([2.0, 0.0], [-1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_densify_spacing(self):
        pts = densify_segment([0.0, 0.0], [1.0, 0.0], 0.3)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert gaps.max() <= 0.3 + 1e-12
        assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [1, 0])


def _reference_loop_points(pts):
    """The duplicate drop as a scalar loop over the points."""
    pts = np.asarray(pts, dtype=float)
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-14:
            keep.append(i)
    if np.linalg.norm(pts[keep[-1]] - pts[keep[0]]) <= 1e-14 and len(keep) > 1:
        keep.pop()
    return pts[keep]


def _reference_winding(starts, ends, point, weights=None):
    """The winding number with the scalar point-on-loop test, one edge at a
    time: each edge's weight times the difference of the angles of its ends
    about the point, wrapped into [-pi, pi), summed."""
    weights = np.ones(len(starts)) if weights is None else weights
    point = np.asarray(point, dtype=float)
    total = 0.0
    for a, b, w in zip(np.asarray(starts, dtype=float) - point,
                       np.asarray(ends, dtype=float) - point, weights):
        if scalar_point_segment_distance(np.zeros(2), a, b) < 1e-12:
            raise StructureError("point lies on the loop")
        turn = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
        total += w * ((turn + math.pi) % (2.0 * math.pi) - math.pi)
    return round(total / (2.0 * math.pi))


def _outcome(f, *args):
    try:
        return f(*args)
    except StructureError as exc:
        return str(exc)


def _assert_winding_as_reference(starts, ends, point, weights=None):
    assert (_outcome(winding_number, starts, ends, point, weights)
            == _outcome(_reference_winding, starts, ends, point, weights))


class TestScreens:
    """The array passes of winding_number, and of the duplicate drop that
    the reference boundary loop keeps, decide every threshold exactly as
    the scalar loops over points and edges."""

    SQUARE = TestWinding.SQUARE

    @pytest.mark.parametrize("offset, on_loop", [
        (0.5e-12, True), (1.5e-12, False), (0.0, True), (-0.5e-12, True), (-1.5e-12, False),
    ])
    def test_point_near_an_edge(self, offset, on_loop):
        # the right edge of the square runs along x = 1
        point = [1.0 - offset, 0.3]
        expected = "point lies on the loop" if on_loop else int(offset > 0)
        assert _outcome(_reference_winding, *_edges(self.SQUARE), point) == expected
        _assert_winding_as_reference(*_edges(self.SQUARE), point)

    @pytest.mark.parametrize("vertex", range(4))
    def test_point_at_a_vertex(self, vertex):
        with pytest.raises(StructureError, match="on the loop"):
            loop_winding(self.SQUARE, self.SQUARE[vertex])
        _assert_winding_as_reference(*_edges(self.SQUARE), self.SQUARE[vertex])

    @given(st.integers(-8, 8), st.sampled_from([1e-3, 1.0, 1e3]),
           st.floats(0.0, 1.0), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_threshold_decided_as_scalar(self, ulps, scale, f, edge):
        # a point at 1e-12 * (1 + ulps * 2**-52) from an edge of a scaled,
        # rotated square: within rounding of the threshold
        angle = 0.3 + edge
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        pts = scale * self.SQUARE @ rot.T
        a, b = pts[edge], pts[(edge + 1) % 4]
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
        point = a + f * (b - a) + 1e-12 * (1.0 + ulps * 2.0 ** -52) * normal
        _assert_winding_as_reference(*_edges(pts), point)

    @pytest.mark.parametrize("point, expected", [
        ([0.0, 0.0], (2, -1, 1)), ([0.8, 0.8], (2, -1, 2)), ([5.0, 0.0], (0, 0, 0)),
    ])
    def test_weighted_edges(self, point, expected):
        # the square counted twice, the square counted -1 times, and the
        # square counted twice with a half-size square inside it counted -1
        # times: the origin lies in both squares, (0.8, 0.8) in the big one
        starts, ends = _edges(self.SQUARE)
        inner = 0.5 * starts, 0.5 * ends
        cases = [(starts, ends, np.full(4, 2.0)), (starts, ends, np.full(4, -1.0)),
                 (np.vstack([starts, inner[0]]), np.vstack([ends, inner[1]]),
                  np.repeat([2.0, -1.0], 4))]
        for (s, e, w), want in zip(cases, expected):
            assert _reference_winding(s, e, point, w) == want
            _assert_winding_as_reference(s, e, point, w)

    @pytest.mark.parametrize("point", [[0.3, 0.2], [0.5, 0.0], [2.0, -1.0]])
    def test_cancelling_edges(self, point):
        # an edge and its reversal wind 0 times about a point off them; on
        # them, the point is rejected all the same
        starts = np.array([[0.0, 0.0], [1.0, 0.0]])
        ends = starts[::-1]
        want = "point lies on the loop" if point[1] == 0.0 and 0.0 <= point[0] <= 1.0 else 0
        assert _outcome(_reference_winding, starts, ends, point, [1.0, 1.0]) == want
        _assert_winding_as_reference(starts, ends, point, [1.0, 1.0])

    def test_empty_cycle(self):
        none = np.zeros((0, 2))
        assert winding_number(none, none, [0.0, 0.0]) == 0
        assert winding_number(none, none, [0.0, 0.0], np.zeros(0)) == 0
        assert _reference_winding(none, none, [0.0, 0.0]) == 0

    @pytest.mark.parametrize("case", ["exact", "chain", "closing", "near_threshold"])
    def test_duplicate_drop_as_scalar(self, case):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        if case == "exact":
            pts = base[[0, 0, 1, 1, 1, 2, 3, 3]]
        elif case == "chain":
            # steps of 0.6e-14 each: every one is below 1e-14, their sum is not
            chain = base[1] + np.arange(5)[:, None] * [0.6e-14, 0.0]
            pts = np.vstack([base[:1], chain, base[2:]])
        elif case == "closing":
            pts = np.vstack([base, base[:1] + [0.5e-14, 0.0]])
        else:
            steps = 1e-14 * (1.0 + np.arange(-4, 5) * 2.0 ** -52)
            pts = np.vstack([base[:1], base[1] + np.cumsum(steps)[:, None] * [1.0, 0.0], base[2:]])
        assert np.array_equal(loop_without_duplicates(pts), _reference_loop_points(pts))

    @given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.0, 0.3e-14, 0.9e-14, 1e-14,
                                                                1.1e-14, 2e-14, 1e-3])),
                    min_size=1, max_size=12),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_random_duplicates_as_scalar(self, inserts, seed, dim):
        rng = np.random.default_rng(seed)
        pts = list(rng.normal(size=(6, dim)))
        for where, step in sorted(inserts, reverse=True):
            direction = rng.normal(size=dim)
            pts.insert(where + 1, pts[where] + step * direction / np.linalg.norm(direction))
        pts = np.array(pts)
        assert np.array_equal(loop_without_duplicates(pts), _reference_loop_points(pts))


def _rows(seed: int, n: int, d: int) -> np.ndarray:
    """n random rows of dimension d with magnitudes over 16 decades, signs
    mixed, and every tenth row (from the tenth on) zero."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, d))
    rows[9::10] = 0.0
    return rows


class TestRowDot:
    """row_dot rounds like the 1-D dot of each row, and its sqrt like the
    1-D norm; point_segment_distance on rows is the scalar test on each."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 10_000])
    def test_matches_one_dimensional_dot_and_norm(self, n, d):
        p, w = _rows(n, n, d), _rows(n + 1, n, d)
        dots = row_dot(p, w)
        norms = np.sqrt(row_dot(p, p))
        assert dots.shape == norms.shape == (n,)
        assert all(dots[i] == p[i] @ w[i] for i in range(n))
        assert all(norms[i] == np.linalg.norm(p[i]) for i in range(n))

    @pytest.mark.parametrize("n", [None, 1, 10_000])
    def test_cross3_matches_np_cross(self, n):
        a, b = (_rows(seed, 1 if n is None else n, 3) for seed in (3, 4))
        if n is None:
            a, b = a[0], b[0]
        a[..., 0] = -0.0   # the signs of zero products are kept too
        got, want = cross3(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 10_000])
    def test_distance_matches_scalar(self, n, d):
        p, a, b = _rows(2 * n, 1, d)[0], _rows(2 * n + 1, n, d), _rows(2 * n + 2, n, d)
        b[6::7] = a[6::7]   # zero-length segments
        dist = point_segment_distance(p, a, b)
        assert all(dist[i] == scalar_point_segment_distance(p, a[i], b[i]) for i in range(n))
        rows = _rows(2 * n + 3, n, d)
        dist = point_segment_distance(rows, a, b)
        assert all(dist[i] == scalar_point_segment_distance(rows[i], a[i], b[i]) for i in range(n))
