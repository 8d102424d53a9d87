import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband.geom import (
    PolylineLoop,
    RigidMotion,
    StructureError,
    densify_segment,
    point_segment_distance,
    rotation_about_line,
    winding_number,
)


class TestWinding:
    SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

    def test_ccw_square_origin(self):
        assert winding_number(self.SQUARE, [0.0, 0.0]) == 1

    def test_point_outside(self):
        assert winding_number(self.SQUARE, [5.0, 5.0]) == 0

    def test_cw_square_origin(self):
        assert winding_number(self.SQUARE[::-1], [0.0, 0.0]) == -1

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_invariant_under_start_rotation(self, k):
        loop = PolylineLoop(np.roll(self.SQUARE, -k, axis=0))
        assert winding_number(loop, [0.2, -0.3]) == 1

    def test_point_on_loop_rejected(self):
        with pytest.raises(StructureError, match="on the loop"):
            winding_number(self.SQUARE, [1.0, 0.0])

    def test_near_collinear_edges(self):
        # many collinear vertices along each side must not confuse the count
        side = np.linspace(0.0, 1.0, 50)
        bot = np.stack([side, np.zeros_like(side)], axis=1)
        top = np.stack([side[::-1], np.ones_like(side)], axis=1)
        assert winding_number(np.vstack([bot, top]), [0.5, 0.5]) == 1


class TestRigidMotion:
    def test_identity(self):
        m = RigidMotion.identity()
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(m.apply(p), p, atol=0.0)

    def test_distance_invariance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = RigidMotion.random(rng, scale=2.0)
            p = rng.normal(size=(10, 3))
            q = rng.normal(size=(10, 3))
            d0 = np.linalg.norm(p - q, axis=1)
            d1 = np.linalg.norm(m.apply(p) - m.apply(q), axis=1)
            assert np.abs(d0 - d1).max() < 1e-12

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(3)
        a = RigidMotion.random(rng)
        b = RigidMotion.random(rng)
        p = rng.normal(size=(5, 3))
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)
        assert np.allclose(a.compose(a.inverse()).apply(p), p, atol=1e-12)

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


class TestPolylineLoop:
    def test_dedupe_and_length(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        loop = PolylineLoop(pts, closed=True)
        assert len(loop) == 3
        assert loop.length() == pytest.approx(2.0 + math.sqrt(2.0))
