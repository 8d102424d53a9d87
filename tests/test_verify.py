import math
from dataclasses import replace

import numpy as np
import pytest

from moebiusband import band as band_mod
from moebiusband import verify as verify_mod
from moebiusband.band import (
    CANONICAL_TRIANGLE,
    points_to_triangles_distance,
    scale_bend,
    surface_triangles,
    transform,
    write_json,
)
from moebiusband.cli import main as cli_main
from moebiusband.geom import RigidMotion, StructureError
from moebiusband.verify import (
    EPS_FLOOR,
    GRID_PITCH,
    OutOfScopeError,
    boundary_deviation,
    measured_eps,
    verify_all,
    verify_corollary,
    verify_eff,
    verify_eff2,
    write_csv_summary,
    write_report_json,
)

SQRT3 = math.sqrt(3.0)


class TestTriangularTheorems:
    def test_eff(self, tri_band, tri_state):
        rep = verify_eff(tri_band, state=tri_state)
        assert rep.passed
        assert rep.epsilon == EPS_FLOOR
        assert rep.measured["deviation"] < 1e-10
        assert all(c.passed for c in rep.checks)
        assert rep.details["slack_audit"]["ok"]

    def test_eff2(self, tri_band, tri_state):
        rep = verify_eff2(tri_band, state=tri_state)
        assert rep.passed
        assert rep.measured["containment_max"] < 1e-12
        assert rep.measured["winding"] in (-1, 1)
        assert rep.measured["c_grid_uncovered"] == 0
        assert rep.measured["triangle_coverage_max"] < 1e-12

    def test_corollary_zero_distance(self, tri_band, tri_state):
        rep = verify_corollary(tri_band, state=tri_state)
        assert rep.passed
        # sampled to eta, the flat-folded band IS the triangle
        assert rep.measured["hausdorff"] <= 2.0 * 1e-4


class TestWrinkleTheorems:
    def test_eff(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        rep = verify_eff(wrinkle4, state=wrinkle4_state)
        assert rep.passed
        dev = rep.measured["deviation"]
        assert dev < 6.0 * math.sqrt(eps)
        # sharpness: the crack forces a deviation of order sqrt(eps)
        assert dev >= 0.3 * math.sqrt(eps)
        assert rep.measured["istar_deviation"] < 3.0 * math.sqrt(eps)
        assert all(c.passed for c in rep.checks)
        assert rep.details["slack_audit"]["ok"]

    def test_est1_chain(self, wrinkle4, wrinkle4_state):
        rep = verify_eff(wrinkle4, state=wrinkle4_state)
        m = rep.measured
        assert m["deviation"] <= m["i0_vs_istar"] + m["istar_deviation"] + 1e-10

    def test_edge_slacks(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        dev_rep = boundary_deviation(wrinkle4_state.trapezoid, wrinkle4_state.boundary, eta=1e-4)
        for name, rec in dev_rep.per_edge.items():
            assert rec["flat_length"] < 3.0
            assert rec["slack"] <= eps + 1e-9, name

    def test_eff2(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        rep = verify_eff2(wrinkle4, state=wrinkle4_state)
        assert rep.passed
        assert rep.measured["containment_max"] <= 6.0 * math.sqrt(eps)
        assert rep.measured["containment_max"] == pytest.approx(
            wrinkle4.meta["crack_height"], rel=1e-3
        )
        assert rep.measured["winding"] in (-1, 1)
        assert rep.measured["c_grid_uncovered"] == 0
        assert rep.measured["triangle_coverage_max"] <= 18.0 * math.sqrt(eps)

    def test_corollary(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        rep = verify_corollary(wrinkle4, state=wrinkle4_state)
        assert rep.passed
        assert rep.measured["hausdorff"] < 18.0 * math.sqrt(eps)
        assert 0.4 <= rep.measured["ratio_to_sqrt_eps"] <= 18.0


def _dense_triangle_to_band(patches, pitch=GRID_PITCH):
    grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, pitch)
    return grid, float(points_to_triangles_distance(grid, patches).max())


class TestSharedGeometry:
    @pytest.mark.parametrize("name", ["tri", "wrinkle4"])
    def test_exact_distances_match_dense(self, name, request):
        band = request.getfixturevalue("tri_band" if name == "tri" else name)
        state = request.getfixturevalue(f"{name}_state")
        eff2 = verify_eff2(band, state=state).measured
        cor = verify_corollary(band, state=state).measured
        ends = state.developed.space.reshape(-1, 3)
        endpoint_max = float(points_to_triangles_distance(ends, CANONICAL_TRIANGLE[None]).max())
        assert eff2["containment_max"] == cor["band_to_triangle"] == endpoint_max
        _, dense = _dense_triangle_to_band(surface_triangles(state.developed))
        assert eff2["triangle_coverage_max"] == cor["triangle_to_band"] == dense

    @pytest.mark.parametrize("perturb", ["lift", "jitter"])
    def test_refine_path_matches_dense(self, perturb, wrinkle4_state, monkeypatch):
        patches = surface_triangles(wrinkle4_state.developed)
        if perturb == "lift":
            # lift every other patch, so that some grid points keep bound 0
            patches = patches.copy()
            patches[::2, :, 2] += 0.01
        else:
            rng = np.random.default_rng(7)
            patches = patches + rng.normal(scale=2e-3, size=patches.shape)
        grid, dense = _dense_triangle_to_band(patches, pitch=2e-2)
        refined = []

        def counting(pts, tris):
            refined.append(len(pts))
            return points_to_triangles_distance(pts, tris)

        monkeypatch.setattr(verify_mod, "points_to_triangles_distance", counting)
        shared = verify_mod._max_distance_to_patches(grid, patches)
        assert dense > 0.0
        assert abs(shared - dense) <= 1e-12
        assert len(refined) == 1 and 0 < refined[0] <= len(grid)
        if perturb == "lift":
            assert refined[0] < len(grid)

    def test_steep_patch_bound_stays_above_distance(self):
        # a sliver whose xy-projection is 1e-15 wide: its barycentric s, t
        # are rounding noise, so its heights would undershoot the distance
        a = np.array([3.0, 1.1, 0.0])
        d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        b = a + 0.5 * d
        c = a + 0.25 * d + np.array([-1e-15, 1e-15, 0.4])
        flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        patches = np.array([[a, b, c], flat])
        rng = np.random.default_rng(5)
        s, t = rng.uniform(0.0, 1.0, (2, 4000))
        keep = s + t <= 1.0
        pts = a + s[keep, None] * (b - a) + t[keep, None] * (c - a)
        pts[:, :2] += rng.normal(scale=1e-15, size=(len(pts), 2))
        pts[:, 2] = rng.uniform(-0.5, 0.5, len(pts))
        pts = np.vstack([pts, [[0.2, 0.3, 0.05], [0.5, 0.1, 0.0]]])
        bound = verify_mod._cover_heights(pts, patches)
        dist = points_to_triangles_distance(pts, patches)
        assert np.all(bound >= dist - 1e-12)
        assert np.isinf(bound[:-2]).all()
        assert np.allclose(bound[-2:], [0.05, 0.0])
        assert verify_mod._max_distance_to_patches(pts, patches) == dist.max()

    def _count(self, monkeypatch):
        calls = {"triangle_to_band": 0, "kernel": 0}
        real_grid_pass = verify_mod._max_distance_to_patches

        def grid_pass(pts, patches):
            calls["triangle_to_band"] += 1
            return real_grid_pass(pts, patches)

        def kernel(pts, tris):
            calls["kernel"] += 1
            return points_to_triangles_distance(pts, tris)

        monkeypatch.setattr(verify_mod, "_max_distance_to_patches", grid_pass)
        monkeypatch.setattr(verify_mod, "points_to_triangles_distance", kernel)
        return calls

    def test_verify_all_measures_once(self, tri_band, monkeypatch):
        calls = self._count(monkeypatch)
        assert [r.name for r in verify_all(tri_band)] == ["eff", "eff2", "corollary"]
        assert calls["triangle_to_band"] == 1

    def test_cli_measures_once_and_eff_never(self, wrinkle4, tmp_path, monkeypatch):
        path = tmp_path / "w.json"
        write_json(wrinkle4, path)
        calls = self._count(monkeypatch)
        assert cli_main(["verify", "--input", str(path)]) == 0
        assert calls["triangle_to_band"] == 1
        calls.update(triangle_to_band=0, kernel=0)
        assert cli_main(["verify", "--input", str(path), "--theorem", "eff"]) == 0
        assert calls == {"triangle_to_band": 0, "kernel": 0}

    def test_chunking_is_bitwise_neutral(self, wrinkle4_state, monkeypatch):
        patches = surface_triangles(wrinkle4_state.developed)
        grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, 2e-2)
        grid = grid + np.random.default_rng(3).normal(scale=1e-2, size=grid.shape)
        kernels = (
            lambda: points_to_triangles_distance(grid, patches),
            lambda: verify_mod._cover_heights(grid, patches),
            lambda: verify_mod._points_in_triangles_2d(grid[:, :2], patches),
        )
        wide = [k() for k in kernels]
        monkeypatch.setattr(band_mod, "CHUNK_BYTES", 8 * 3 * len(patches) * 7)
        for k, ref in zip(kernels, wide):
            assert np.array_equal(k(), ref)


class TestPoseInvariance:
    def test_deviation_stable_under_rigid_motion(self, wrinkle4, wrinkle4_state):
        base = verify_eff(wrinkle4, state=wrinkle4_state).measured["deviation"]
        rng = np.random.default_rng(99)
        for _ in range(5):
            moved = transform(wrinkle4, RigidMotion.random(rng, scale=1.0))
            dev = verify_eff(moved).measured["deviation"]
            assert abs(dev - base) < 1e-8


class TestScope:
    def test_eff_out_of_scope(self, tri_band):
        fat = replace(tri_band, lam=SQRT3 + 0.3)
        with pytest.raises(OutOfScopeError, match="out of theorem scope"):
            verify_eff(fat)

    def test_corollary_out_of_scope(self, tri_band):
        fat = replace(tri_band, lam=SQRT3 + 0.1)
        with pytest.raises(OutOfScopeError, match="out of theorem scope"):
            verify_corollary(fat)

    def test_verify_all_rejects_invalid(self, tri_band):
        with pytest.raises(StructureError):
            verify_all(scale_bend(tri_band, 4, 1.02))


class TestReports:
    def test_json_and_csv(self, tri_band, tri_state, tmp_path):
        reports = [
            verify_eff(tri_band, state=tri_state),
            verify_corollary(tri_band, state=tri_state),
        ]
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "summary.csv"
        write_report_json(reports, jpath)
        write_csv_summary(reports, cpath)
        import json as _json

        data = _json.loads(jpath.read_text())
        assert [d["name"] for d in data] == ["eff", "corollary"]
        assert all(d["passed"] for d in data)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("name,epsilon,deviation,hausdorff")
        assert len(lines) == 3

    def test_report_dict_fields(self, wrinkle4, wrinkle4_state):
        rep = verify_eff(wrinkle4, state=wrinkle4_state)
        d = rep.to_dict()
        assert set(d) >= {"name", "lambda", "epsilon", "passed", "bounds", "measured", "checks"}
        assert len(d["checks"]) == 7
