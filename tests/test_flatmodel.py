import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband.flatmodel import FlatTrapezoid
from moebiusband.geom import StructureError

from conftest import midline_trapezoid

SQRT3 = math.sqrt(3.0)


def _edge_lengths(trap):
    """The lengths of D1, D2, H1 and H2."""
    starts, ends = trap.boundary_edges()
    return np.linalg.norm(ends - starts, axis=1).tolist()


class TestMakeTrapezoid:
    def test_optimal_cut_lengths(self):
        trap = midline_trapezoid(SQRT3, 1.0 / SQRT3)
        assert trap.len_h == pytest.approx(2.0 / SQRT3, abs=1e-12)
        assert trap.len_d == pytest.approx(4.0 / SQRT3, abs=1e-12)

    def test_zero_displacement_rectangle(self):
        trap = midline_trapezoid(2.0, 0.0)
        assert trap.len_h == 2.0
        assert trap.len_d == 2.0

    def test_displacement_identity(self):
        trap = midline_trapezoid(SQRT3 + 0.01, 0.5)
        assert trap.len_d - trap.len_h == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(StructureError, match="degenerate trapezoid"):
            midline_trapezoid(1.0, 1.0)
        with pytest.raises(StructureError, match="degenerate trapezoid"):
            midline_trapezoid(1.0, -1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vertex,coord,message", [
        ("u", 0, "u outside the top side"),
        ("u", 1, "u must lie on the top side, v on the bottom side"),
        ("v", 0, "v outside the bottom side"),
        ("v", 1, "u must lie on the top side, v on the bottom side"),
    ])
    def test_non_finite_vertex_rejected(self, vertex, coord, message, bad):
        # NaN fails every comparison and an infinity lies off either side,
        # so the range tests reject a non-finite vertex
        ends = {"u": np.array([1.0, 1.0]), "v": np.array([1.0, 0.0])}
        ends[vertex][coord] = bad
        with pytest.raises(StructureError, match=f"^{message}$"):
            FlatTrapezoid(lam=SQRT3, t=0.5, **ends)

    @pytest.mark.parametrize("u,v,name", [
        ([1.0, 1.0, math.nan], [1.0, 0.0, 7.0, 8.0], "u"),
        ([1.0, 1.0], [1.0, 0.0, 7.0], "v"),
        ([1.0], [1.0, 0.0], "u"),
        ([1.0, 1.0], [[1.0, 0.0]], "v"),
    ])
    def test_vertex_of_wrong_shape_rejected(self, u, v, name):
        # the range tests read entries 0 and 1 alone, and boundary_edges
        # could not stack a vertex of another shape
        with pytest.raises(StructureError, match=f"^{name} must be a point"):
            FlatTrapezoid(1.8, 0.5, u, v)

    def test_measured_edges_match_closed_forms(self):
        trap = midline_trapezoid(1.9, 0.3)
        d1, d2, h1, h2 = _edge_lengths(trap)
        assert d1 + d2 == pytest.approx(trap.len_d, abs=1e-12)
        assert h1 + h2 == pytest.approx(trap.len_h, abs=1e-12)

    @given(
        lam=st.floats(min_value=0.2, max_value=5.0),
        frac=st.floats(min_value=-0.95, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_length_sum_exact(self, lam, frac):
        trap = midline_trapezoid(lam, frac * lam)
        assert trap.len_h + trap.len_d == pytest.approx(2.0 * lam, abs=1e-12)
        d1, d2, h1, h2 = _edge_lengths(trap)
        assert d1 + d2 == pytest.approx(trap.len_d, abs=1e-12)
        assert h1 + h2 == pytest.approx(trap.len_h, abs=1e-12)


class TestBoundaryEdges:
    def test_four_edges(self):
        # D1, D2 on the bottom side y = 0, H1, H2 on the top side y = 1
        starts, ends = midline_trapezoid(SQRT3, 1.0 / SQRT3).boundary_edges()
        assert starts.shape == ends.shape == (4, 2)
        assert (starts[:, 1] == [0.0, 0.0, 1.0, 1.0]).all()
        assert (ends[:, 1] == [0.0, 0.0, 1.0, 1.0]).all()

    def test_boundary_length_excludes_cut(self):
        # the cut copies T1, T2 are glued to each other, not boundary
        for lam, t in ((SQRT3, 1.0 / SQRT3), (2.0, 0.0)):
            trap = midline_trapezoid(lam, t)
            assert sum(_edge_lengths(trap)) == pytest.approx(2.0 * lam, abs=1e-12)

    def test_chain_continuity(self):
        # the boundary walk is connected through the glued corners
        trap = midline_trapezoid(1.8, 0.4)
        starts, ends = trap.boundary_edges()
        assert (ends[0] == starts[1]).all() and (ends[0] == trap.v).all()
        assert (ends[2] == starts[3]).all() and (ends[2] == trap.u).all()
        # D ends at the glued copy g(x) of the cut's top corner x, where H starts
        assert (ends[1] == [1.8 + 0.4, 0.0]).all()
        assert (starts[2] == [0.4, 1.0]).all()
