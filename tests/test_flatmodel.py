import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband.geom import StructureError

from conftest import midline_trapezoid

SQRT3 = math.sqrt(3.0)


class TestMakeTrapezoid:
    def test_optimal_cut_lengths(self):
        trap = midline_trapezoid(SQRT3, 1.0 / SQRT3)
        assert trap.len_h() == pytest.approx(2.0 / SQRT3, abs=1e-12)
        assert trap.len_d() == pytest.approx(4.0 / SQRT3, abs=1e-12)
        # the cut length coincides with the short side at the optimum
        assert trap.len_t() == pytest.approx(2.0 / SQRT3, abs=1e-12)

    def test_zero_displacement_rectangle(self):
        trap = midline_trapezoid(2.0, 0.0)
        assert trap.len_h() == 2.0
        assert trap.len_d() == 2.0
        assert trap.len_t() == 1.0

    def test_displacement_identity(self):
        trap = midline_trapezoid(SQRT3 + 0.01, 0.5)
        assert trap.len_d() - trap.len_h() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(StructureError, match="degenerate trapezoid"):
            midline_trapezoid(1.0, 1.0)
        with pytest.raises(StructureError, match="degenerate trapezoid"):
            midline_trapezoid(1.0, -1.5)

    def test_measured_edges_match_closed_forms(self):
        trap = midline_trapezoid(1.9, 0.3)
        e = {edge.name: edge.length() for edge in trap.edges()}
        assert e["D1"] + e["D2"] == pytest.approx(trap.len_d(), abs=1e-12)
        assert e["H1"] + e["H2"] == pytest.approx(trap.len_h(), abs=1e-12)
        assert e["T1"] == pytest.approx(math.hypot(1.0, 0.3), abs=1e-12)
        assert e["T2"] == pytest.approx(e["T1"], abs=1e-12)

    @given(
        lam=st.floats(min_value=0.2, max_value=5.0),
        frac=st.floats(min_value=-0.95, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_length_sum_exact(self, lam, frac):
        trap = midline_trapezoid(lam, frac * lam)
        assert trap.len_h() + trap.len_d() == pytest.approx(2.0 * lam, abs=1e-12)
        trap.check_invariants(atol=1e-9)


class TestBoundaryEdges:
    def test_six_edges(self):
        trap = midline_trapezoid(SQRT3, 1.0 / SQRT3)
        edges = trap.edges()
        assert len(edges) == 6
        assert [e.name for e in edges] == ["D1", "D2", "T2", "H1", "H2", "T1"]

    def test_boundary_length_excludes_cut(self):
        # the cut copies T1, T2 are glued to each other, not boundary
        for lam, t in ((SQRT3, 1.0 / SQRT3), (2.0, 0.0)):
            trap = midline_trapezoid(lam, t)
            length = sum(e.length() for e in trap.edges() if not e.name.startswith("T"))
            assert length == pytest.approx(2.0 * lam, abs=1e-12)

    def test_chain_continuity(self):
        # the boundary walk is connected through the glued corners
        trap = midline_trapezoid(1.8, 0.4)
        edges = {e.name: e for e in trap.edges()}
        assert np.allclose(edges["D1"].end, edges["D2"].start)
        assert np.allclose(edges["H1"].end, edges["H2"].start)
        # D ends at the glued copy of the cut's top corner, H resumes there
        assert np.allclose(edges["D2"].end, trap.x_bar)
        assert np.allclose(edges["H1"].start, trap.x)

