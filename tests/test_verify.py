import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband import band as band_mod
from moebiusband import verify as verify_mod
from moebiusband.band import (
    CANONICAL_TRIANGLE,
    INCENTER,
    build_wrinkle,
    flip,
    points_to_triangles_distance,
    redevelop,
    scale_bend,
    surface_triangles,
    transform,
    write_json,
)
from moebiusband.cli import main as cli_main
from moebiusband.flatmodel import T_OPT, make_trapezoid
from moebiusband.geom import (
    DEFAULT_TOL,
    PolylineLoop,
    RigidMotion,
    StructureError,
    point_segment_distance,
    winding_number,
)
from moebiusband.tpattern import find_tpattern
from moebiusband.verify import (
    EPS_FLOOR,
    GRID_PITCH,
    OutOfScopeError,
    boundary_deviation,
    measured_eps,
    prepare,
    verify_all,
    verify_corollary,
    verify_eff,
    verify_eff2,
    write_csv_summary,
    write_report_json,
)

from conftest import densify_polyline

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
        # the flat-folded band IS the triangle: both directed distances are
        # exact, and the flat layer certifies the coverage
        assert rep.measured["hausdorff"] <= 1e-12


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
        dev_rep = boundary_deviation(wrinkle4_state.trapezoid, wrinkle4_state.boundary)
        for name, rec in dev_rep.per_edge.items():
            assert rec["flat_length"] < 3.0
            assert rec["slack"] <= eps + 1e-9, name

    def test_eff2(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        rep = verify_eff2(wrinkle4, state=wrinkle4_state)
        assert rep.passed
        assert rep.measured["containment_max"] <= 6.0 * math.sqrt(eps)
        assert rep.measured["containment_max"] == pytest.approx(
            wrinkle4.meta["crack_height"], rel=1e-8
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
    return grid, float(points_to_triangles_distance(grid.points, patches).max())


def _dense_coverage(pts, tris, tol, steep_guard):
    """The barycentric rule of the dense pass that the lattice scan first
    replaced: the inclusion test s, t >= -tol, s + t <= 1 + tol on every
    (point, triangle) pair, with s and t from (points, triangles) matrix
    products.  Returns the covered mask and, for 3D points, the least
    height of a covering triangle."""
    a, b, c = tris[:, 0, :2], tris[:, 1, :2], tris[:, 2, :2]
    e0, e1 = b - a, c - a
    det = e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0]
    good = np.abs(det) > 1e-18
    inv = np.where(good, 1.0 / np.where(good, det, 1.0), np.nan)
    w_s = np.stack([e1[:, 1], -e1[:, 0]], axis=1)
    w_t = np.stack([-e0[:, 1], e0[:, 0]], axis=1)
    a_s = np.einsum("ij,ij->i", a, w_s)
    a_t = np.einsum("ij,ij->i", a, w_t)
    usable = np.ones(len(tris), dtype=bool)
    if steep_guard:
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        usable = np.abs(cross[:, 2]) > 1e-9 * np.linalg.norm(cross, axis=1)
    z0 = tris[:, 0, 2]
    dz_b, dz_c = tris[:, 1, 2] - z0, tris[:, 2, 2] - z0
    covered = np.zeros(len(pts), dtype=bool)
    heights = np.full(len(pts), np.inf)
    for lo in range(0, len(pts), 2048):
        p = pts[lo:lo + 2048]
        s = (p[:, :2] @ w_s.T - a_s[None, :]) * inv[None, :]
        t = (p[:, :2] @ w_t.T - a_t[None, :]) * inv[None, :]
        inside = usable[None, :] & (s >= -tol) & (t >= -tol) & (s + t <= 1.0 + tol)
        covered[lo:lo + 2048] = inside.any(axis=1)
        if p.shape[1] == 3:
            height = np.abs(z0[None, :] + s * dz_b[None, :] + t * dz_c[None, :] - p[:, 2][:, None])
            heights[lo:lo + 2048] = np.where(inside, height, np.inf).min(axis=1)
    return covered, heights


def _barycentric_masks(pts, tris):
    """The (covered, settled) masks of the barycentric rule: covered at the
    slop 1e-9 over all triangles, settled where the least height of a
    covering triangle at the slop 1e-12, steep triangles left out, is 0."""
    covered, _ = _dense_coverage(pts, tris, 1e-9, steep_guard=False)
    _, heights = _dense_coverage(pts, tris, 1e-12, steep_guard=True)
    return covered, heights == 0.0


def _lattice_coordinates(grid):
    """(i, j) of every grid point, in the grid's order."""
    i = np.repeat(np.arange(grid.m + 1), np.arange(grid.m + 1, 0, -1))
    j = np.concatenate([np.arange(grid.m + 1 - r) for r in range(grid.m + 1)])
    return np.stack([i, j], axis=1).astype(float)


def _dense_masks(grid, tris):
    """The (covered, settled) masks of the scan's rule, tested on every
    (point, triangle) pair: in the grid's lattice coordinates, the point's
    distance to each edge line, negative outside, is at least -_SCAN_TOL,
    and the point lies in the triangle's bounding box widened by _SCAN_TOL.
    Settled takes only the flat triangles, with every vertex within _FLAT_Z
    of z = 0.  An edge of length 0 holds every point."""
    tol = verify_mod._SCAN_TOL
    a, b, c = grid.vertices[:, :2]
    q = (tris[:, :, :2] - a) @ (grid.m * np.linalg.inv(np.stack([b - a, c - a])))
    edge = np.roll(q, -1, axis=1) - q
    length = np.linalg.norm(edge, axis=2)
    area2 = edge[:, 0, 0] * edge[:, 1, 1] - edge[:, 0, 1] * edge[:, 1, 0]
    orient = np.where(area2 < 0.0, -1.0, 1.0)[:, None]
    # distance to edge e of a point p: p @ normal[e] + offset[e]
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = orient[..., None] * np.stack([-edge[..., 1], edge[..., 0]], axis=2) / length[..., None]
        offset = np.where(length > 0.0, -np.einsum("kej,kej->ke", normal, q), np.inf)
    normal = np.nan_to_num(normal, nan=0.0)
    lo, hi = q.min(axis=1) - tol, q.max(axis=1) + tol
    flat = (np.abs(tris[:, :, 2]) <= verify_mod._FLAT_Z).all(axis=1)
    covered = np.zeros(len(grid.points), dtype=bool)
    settled = np.zeros(len(grid.points), dtype=bool)
    points = _lattice_coordinates(grid)
    for start in range(0, len(points), 4096):
        ij = points[start:start + 4096]
        inside = np.ones((len(ij), len(tris)), dtype=bool)
        for d in range(2):
            inside &= (ij[:, d:d + 1] >= lo[:, d]) & (ij[:, d:d + 1] <= hi[:, d])
        for e in range(3):
            inside &= ij @ normal[:, e].T + offset[:, e] >= -tol
        covered[start:start + 4096] = inside.any(axis=1)
        settled[start:start + 4096] = inside[:, flat].any(axis=1)
    return covered, settled


def _settled_bound(grid):
    """Bound on the distance of a settled point from the patches: 2 *
    _SCAN_TOL lattice units, stretched by the lattice map's largest
    singular value."""
    basis = (grid.vertices[1:, :2] - grid.vertices[0, :2]) / grid.m
    return 2.0 * verify_mod._SCAN_TOL * np.linalg.norm(basis, 2)


def _planar_distance(pts, tris):
    """Distance of points in the plane z = 0 to the union of triangles in
    that plane: 0 inside one by the signs of its edge functions, else the
    row-wise distance to the nearest edge.  It shares no arithmetic with
    the exact kernel, so the settled-point bounds do not rest on the code
    whose work they let the verifier skip."""
    p = pts[:, None, :2]
    a, ends = tris[:, :, :2], np.roll(tris[:, :, :2], -1, axis=1)
    edge = ends - a
    cross = edge[None, :, :, 0] * (p[:, :, None, 1] - a[None, :, :, 1]) \
        - edge[None, :, :, 1] * (p[:, :, None, 0] - a[None, :, :, 0])
    area2 = edge[:, 0, 0] * edge[:, 1, 1] - edge[:, 0, 1] * edge[:, 1, 0]
    inside = (area2 != 0.0) & np.all(np.sign(area2)[:, None] * cross >= 0.0, axis=2)
    to_edges = point_segment_distance(p, a.reshape(-1, 2), ends.reshape(-1, 2)).min(axis=1, initial=np.inf)
    return np.where(inside.any(axis=1), 0.0, to_edges)


def _scan_masks(grid, patches):
    """(covered, settled) masks of a grid from `verify._scan`: settled by
    the scan of the flat patches, covered by that or by the scan of the
    others.  This is the lattice rule that eff2's coverage test of C read
    before the annulus and winding premises certified it."""
    flat = verify_mod._flat(patches)
    settled = verify_mod._scan(grid, patches[flat])
    return settled | verify_mod._scan(grid, patches[~flat]), settled


def _assert_masks_equal(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.fixture(scope="module")
def band_states(tri_band, tri_state, wrinkle4, wrinkle4_state):
    """The four benchmark bands, each with its PipelineState."""
    w3, w5 = build_wrinkle(1e-3), build_wrinkle(1e-5)
    return {"tri": (tri_band, tri_state), "wrinkle3": (w3, prepare(w3)),
            "wrinkle4": (wrinkle4, wrinkle4_state), "wrinkle5": (w5, prepare(w5))}


@pytest.fixture(scope="module")
def dense_references(band_states):
    """Per band: the canonical grid, the dense masks of the scan's rule and
    those of the barycentric rule."""
    grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, GRID_PITCH)
    return {name: (grid, _dense_masks(grid, state.patches),
                   _barycentric_masks(grid.points, state.patches))
            for name, (_, state) in band_states.items()}


BAND_NAMES = ["tri", "wrinkle3", "wrinkle4", "wrinkle5"]


class TestLatticeScan:
    """The scan-converted lattice masks against the dense pass."""

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_bands_match_dense(self, name, band_states, dense_references):
        _, state = band_states[name]
        grid, dense, barycentric = dense_references[name]
        covered, settled = _scan_masks(grid, state.patches)
        _assert_masks_equal((covered, settled), dense)
        # the flat patches settle every point, as the certificate says
        assert settled.all() and verify_mod._flat_layer_covers(state.patches)
        # on the benchmark bands the barycentric rule gives the same masks
        _assert_masks_equal(dense, barycentric)

    @pytest.mark.parametrize("perturb", ["lift", "jitter", "overhang", "outside"])
    def test_perturbed_patches_match_dense(self, perturb, wrinkle4_state):
        patches = wrinkle4_state.patches.copy()
        if perturb == "lift":
            patches[::2, :, 2] += 0.01
        elif perturb == "jitter":
            patches += np.random.default_rng(7).normal(scale=2e-3, size=patches.shape)
        elif perturb == "overhang":
            patches[:, :, :2] = 1.5 * patches[:, :, :2] + [0.4, 0.2]
        else:
            patches[:, :, 0] += 3.0
        grid = verify_mod._canonical_grid()
        covered, settled = _scan_masks(grid, patches)
        _assert_masks_equal((covered, settled), _dense_masks(grid, patches))
        # some point is left unsettled, and the flat layer certifies nothing
        assert not settled.all() and not verify_mod._flat_layer_covers(patches)
        if perturb == "lift":
            assert 0 < settled.sum() < len(settled)
        elif perturb == "jitter":
            assert covered.any() and not settled.any()
        elif perturb == "overhang":
            assert 0 < covered.sum() < len(covered)
        elif perturb == "outside":
            assert not covered.any()

    def test_one_entry_blocks_are_bitwise_neutral(self, wrinkle4_state, monkeypatch):
        # a budget of one row or point per block: every row interval of more
        # than one point exceeds it on its own
        patches = wrinkle4_state.patches.copy()
        patches[:, :, :2] += np.random.default_rng(3).normal(scale=2e-3, size=patches[:, :, :2].shape)
        grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, 2e-2)
        wide = _scan_masks(grid, patches)
        assert 0 < wide[1].sum() < wide[0].sum()
        monkeypatch.setattr(band_mod, "CHUNK_BYTES", 1)
        _assert_masks_equal(_scan_masks(grid, patches), wide)

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_c_grid_is_the_shrunk_triangle(self, name, band_states):
        # eff2 reads no point of the shrunk triangle C: where the annulus
        # and winding premises hold, C is covered.  Check that against the
        # scan's rule, tested densely (_dense_masks), at the canonical grid
        # points of C, on the band and on perturbations of its bend endpoints
        band, state = band_states[name]
        d6 = 6.0 * math.sqrt(measured_eps(band))
        grid = verify_mod._canonical_grid()
        i, j = _lattice_coordinates(grid).T
        sample = np.minimum(np.minimum(i, j), grid.m - i - j) >= grid.m * d6
        # an independent barycentric test in C picks the same points
        tri2 = CANONICAL_TRIANGLE[:, :2]
        c_tri = INCENTER[:2] + (1.0 - 3.0 * d6) * (tri2 - INCENTER[:2])
        lhs = np.vstack([c_tri.T, np.ones(3)])
        rhs = np.vstack([grid.points[:, :2].T, np.ones(len(grid.points))])
        bary_min = np.linalg.solve(lhs, rhs).min(axis=0)
        assert np.abs(bary_min).min() > 1e-9     # no point within rounding of C's boundary
        assert np.array_equal(sample, bary_min >= 0.0)
        assert 0 < sample.sum() < len(grid.points)
        rep = verify_eff2(band, state=state)
        assert rep.measured["c_grid_uncovered"] == 0 and "c_grid_points" not in rep.details

        rng = np.random.default_rng(5)
        premises = {}
        for perturb in ("none", "lift", "jitter", "overhang", "shrink"):
            space = state.developed.space.copy()
            if perturb == "shrink":
                # toward the incenter: the image of the triangle's boundary
                # curve lies 1.1 d6 deep, and its corners 2.2 d6 from the
                # triangle's
                space[:, :, :2] = INCENTER[:2] + (1.0 - 3.3 * d6) * (space[:, :, :2] - INCENTER[:2])
            elif perturb == "lift":
                space[::2, :, 2] += 0.01
            elif perturb == "jitter":
                space += rng.normal(scale=2e-3, size=space.shape)
            elif perturb == "overhang":
                space[:, :, :2] = 1.5 * space[:, :, :2] + [0.4, 0.2]
            moved = replace(state, developed=replace(state.developed, space=space))
            loop = band_mod.boundary_polyline(moved.developed).points[:, :2]
            annulus_ok = verify_mod._annulus_max(loop, tri2) <= d6
            winding_ok = winding_number(PolylineLoop(loop, closed=True), INCENTER[:2]) in (-1, 1)
            premises[perturb] = annulus_ok and winding_ok
            if premises[perturb]:
                covered, _ = _dense_masks(grid, moved.patches)
                assert covered[sample].all(), perturb
            else:
                # eff2 fails and names the failed premise instead
                rep = verify_eff2(band, state=moved)
                assert not rep.passed and "c_grid_uncovered" not in rep.measured
                assert any(n.startswith("coverage of C not certified: fails") for n in rep.notes)
                if perturb == "shrink":
                    # the annulus premise alone fails eff2 here
                    assert rep.measured["containment_max"] <= d6
                    assert rep.measured["triangle_coverage_max"] <= 18.0 * math.sqrt(measured_eps(band))
        assert premises["none"] and premises["lift"] and not premises["overhang"]
        assert not premises["shrink"]


def _from_lattice(grid, ij):
    """Points at lattice coordinates ij of the grid, in the plane z = 0."""
    a, b, c = grid.vertices
    ij = np.asarray(ij, dtype=float)
    return a + ij[..., :1] / grid.m * (b - a) + ij[..., 1:] / grid.m * (c - a)


class TestSettledPoints:
    """A settled point lies on a patch, up to the scan's slop, and neither
    mask depends on the order of the patches."""

    @given(st.sampled_from(BAND_NAMES), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_patch_order_is_bitwise_neutral(self, band_states, dense_references, name, seed):
        patches = band_states[name][1].patches
        shuffled = patches[np.random.default_rng(seed).permutation(len(patches))]
        grid, masks, _ = dense_references[name]
        _assert_masks_equal(_scan_masks(grid, shuffled), masks)

    @given(st.sampled_from(BAND_NAMES), st.integers(0, 2 ** 32 - 1),
           st.floats(1e-9, 1e-2), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_settled_points_lie_on_the_patches(self, band_states, name, seed, scale, lifted, nudged):
        # xy-jittered patches, some of them lifted off z = 0 and some moved
        # off it by up to 2 * _FLAT_Z, vertex by vertex
        rng = np.random.default_rng(seed)
        patches = band_states[name][1].patches.copy()
        patches[:, :, :2] += rng.normal(scale=scale, size=patches[:, :, :2].shape)
        patches[rng.random(len(patches)) < lifted, :, 2] += rng.uniform(-1e-3, 1e-3)
        nudge = rng.random(len(patches)) < nudged
        patches[nudge, :, 2] += rng.uniform(-2.0, 2.0, (nudge.sum(), 3)) * verify_mod._FLAT_Z
        grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, 2e-2)
        _, settled = _scan_masks(grid, patches)
        flat = (np.abs(patches[:, :, 2]) <= verify_mod._FLAT_Z).all(axis=1)
        dist = _planar_distance(grid.points[settled], patches[flat])
        # within hypot(_settled_bound, _FLAT_Z) of the band in 3D
        assert np.all(dist <= _settled_bound(grid))

    def test_collinear_and_needle_patches(self):
        grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, 2e-2)
        tol, bound = verify_mod._SCAN_TOL, _settled_bound(grid)
        ij = _lattice_coordinates(grid)
        # three collinear vertices on the lattice diagonal i = j, from 5 to
        # 20, and on the lattice line i = 7, from j = 3 to 18
        for corners, on_segment in (
                ([[5, 5], [20, 20], [12, 12]],
                 (ij[:, 0] == ij[:, 1]) & (ij[:, 0] >= 5) & (ij[:, 0] <= 20)),
                ([[7, 3], [7, 18], [7, 10]],
                 (ij[:, 0] == 7) & (ij[:, 1] >= 3) & (ij[:, 1] <= 18))):
            collinear = _from_lattice(grid, corners)
            covered, settled = _scan_masks(grid, collinear[None])
            assert np.array_equal(settled, on_segment) and np.array_equal(covered, settled)
            assert np.all(_planar_distance(grid.points[settled], collinear[None]) <= bound)
            assert points_to_triangles_distance(grid.points[settled], collinear[None]).max() <= 1e-15
        # a needle along the lattice diagonal whose tip stops 1.4 * tol short
        # of the point (20, 20): the overshoot past the sharp corner, clamped
        # to the widened bounding box, still holds that point
        tip = 20.0 - 1.4 * tol / math.sqrt(2.0)
        needle = _from_lattice(grid, [[4, 4.5], [tip, tip], [4.5, 4]])
        covered, settled = _scan_masks(grid, needle[None])
        diagonal = (ij[:, 0] == ij[:, 1]) & (ij[:, 0] >= 5)
        assert np.array_equal(settled, diagonal & (ij[:, 0] <= 20))
        assert np.array_equal(covered, settled)
        dist = _planar_distance(grid.points[settled], needle[None])
        assert np.count_nonzero(dist) == 1 and 0.0 < dist.max() <= bound
        # a needle along i whose tip stops 3 * tol short of the point (20, 5):
        # that point lies past the widened bounding box
        far = 20.0 - 3.0 * tol
        row = _from_lattice(grid, [[4, 5 - 0.3], [4, 5 + 0.3], [far, 5]])
        _, settled = _scan_masks(grid, row[None])
        assert np.array_equal(settled, (ij[:, 1] == 5) & (ij[:, 0] >= 4) & (ij[:, 0] <= 19))

    @given(st.sampled_from(BAND_NAMES), st.floats(0.0, 1.0, exclude_max=True), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_coverage_invariant_under_recut_and_flip(self, band_states, name, cut, flipped):
        # hausdorff is band_to_triangle on these bands, read at the bend
        # endpoints after the pose normalization of each copy, which can
        # move it by an ulp
        band, state = band_states[name]
        moved = redevelop(band, cut * band.n_bends)
        moved = flip(moved) if flipped else moved
        base = (verify_eff2(band, state=state).measured, verify_corollary(band, state=state).measured)
        eff2, cor = verify_eff2(moved).measured, verify_corollary(moved).measured
        for key in ("c_grid_uncovered", "triangle_coverage_max"):
            assert eff2[key] == base[0][key], key
        assert abs(cor["hausdorff"] - base[1]["hausdorff"]) <= 4 * math.ulp(base[1]["hausdorff"])


def _state_with_patches(state, patches):
    """A fresh copy of `state` whose ruled patches are `patches`."""
    copy = replace(state)
    vars(copy)["patches"] = patches
    return copy


class TestSharedGeometry:
    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_exact_distances_match_dense(self, name, band_states):
        band, state = band_states[name]
        eff2 = verify_eff2(band, state=state).measured
        cor = verify_corollary(band, state=state).measured
        ends = state.developed.space.reshape(-1, 3)
        endpoint_max = float(points_to_triangles_distance(ends, CANONICAL_TRIANGLE[None]).max())
        assert eff2["containment_max"] == cor["band_to_triangle"] == endpoint_max
        _, dense = _dense_triangle_to_band(surface_triangles(state.developed))
        assert eff2["triangle_coverage_max"] == cor["triangle_to_band"] == dense

    def test_exact_near_zero_at_a_cut_beside_a_bend(self, tri_band):
        # the cut leaf 1.44e-10 past bend 0 becomes the T bend, so the pose
        # tilts, and grid points are refined against the slivers beside that
        # leaf; both distances are about 3e-12
        measured = verify_eff2(redevelop(tri_band, 1.44e-10)).measured
        assert measured["containment_max"] <= 1e-11
        assert measured["triangle_coverage_max"] <= 1e-11

    @pytest.mark.parametrize("perturb", ["lift", "jitter"])
    def test_refine_path_matches_dense(self, perturb, wrinkle4_state, monkeypatch):
        patches = surface_triangles(wrinkle4_state.developed)
        if perturb == "lift":
            # lift every other patch, so that some grid points stay settled
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

        monkeypatch.setattr(verify_mod, "_canonical_grid", lambda: grid)
        monkeypatch.setattr(verify_mod, "points_to_triangles_distance", counting)
        shared = _state_with_patches(wrinkle4_state, patches).triangle_to_band
        assert dense > 0.0
        assert abs(shared - dense) <= 1e-12
        assert len(refined) == 1 and 0 < refined[0] <= len(grid.points)
        if perturb == "lift":
            assert refined[0] < len(grid.points)

    def test_steep_patch_bound_stays_above_distance(self, wrinkle4_state, monkeypatch):
        # a sliver 0.1 to 0.5 above the plane z = 0, its xy-projection 1e-15
        # wide, and a patch in that plane
        a = np.array([3.0, 1.1, 0.1])
        d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        b = a + 0.5 * d
        c = a + 0.25 * d + np.array([-1e-15, 1e-15, 0.4])
        flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        patches = np.array([[a, b, c], flat])
        # lattice row i = 0 runs along the sliver's projection; the far
        # corner (i, j) = (0, m) sits over `flat`
        grid = verify_mod._triangle_grid(np.array([a, b, [0.2, 0.3, 0.1]]) * [1, 1, 0], 0.03)
        m, pts = grid.m, grid.points
        on_sliver = np.arange(m + 1) * (m + 1) - np.arange(m + 1) * np.arange(-1, m) // 2
        over_flat = (pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0) & (pts[:, 0] + pts[:, 1] <= 1.0)
        assert len(on_sliver) > 50 and over_flat.sum() >= 2
        covered, settled = _scan_masks(grid, patches)
        _assert_masks_equal((covered, settled), _dense_masks(grid, patches))
        assert covered[on_sliver].all() and not settled[on_sliver].any()
        assert np.array_equal(settled, over_flat) and settled[m]
        assert np.all(_planar_distance(pts[settled], flat[None]) <= _settled_bound(grid))
        dist = points_to_triangles_distance(pts, patches)
        assert dist[on_sliver].min() >= 0.1 - 1e-12
        monkeypatch.setattr(verify_mod, "_canonical_grid", lambda: grid)
        assert _state_with_patches(wrinkle4_state, patches).triangle_to_band == dist.max()
        # a lattice laid on the projection of a steep patch covers it and
        # settles none of it
        steep = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 2.0 ** -50, 1.0]])
        on_patch = verify_mod._triangle_grid(steep * [1, 1, 0], 0.15)
        covered, settled = _scan_masks(on_patch, steep[None])
        assert covered.all() and not settled.any()
        _assert_masks_equal((covered, settled), _dense_masks(on_patch, steep[None]))

    def _count(self, monkeypatch):
        calls = {"certificate": 0, "scan": 0, "kernel": 0}
        real_certificate, real_scan = verify_mod._flat_layer_covers, verify_mod._scan

        def certificate(patches):
            calls["certificate"] += 1
            return real_certificate(patches)

        def scan(grid, patches):
            calls["scan"] += 1
            return real_scan(grid, patches)

        def kernel(pts, tris):
            calls["kernel"] += 1
            return points_to_triangles_distance(pts, tris)

        monkeypatch.setattr(verify_mod, "_flat_layer_covers", certificate)
        monkeypatch.setattr(verify_mod, "_scan", scan)
        monkeypatch.setattr(verify_mod, "points_to_triangles_distance", kernel)
        return calls

    def test_verify_all_measures_once(self, tri_band, wrinkle4_state, monkeypatch):
        calls = self._count(monkeypatch)
        assert [r.name for r in verify_all(tri_band)] == ["eff", "eff2", "corollary"]
        assert calls["certificate"] == 1 and calls["scan"] == 0
        # a lifted band fails the certificate and scans its flat patches once
        lifted = wrinkle4_state.patches.copy()
        lifted[::2, :, 2] += 0.01
        state = _state_with_patches(wrinkle4_state, lifted)
        calls.update(certificate=0, scan=0)
        verify_eff2(wrinkle4_state.band, state=state)
        verify_corollary(wrinkle4_state.band, state=state)
        assert calls["certificate"] == 1 and calls["scan"] == 1

    def test_cli_measures_once_and_eff_never(self, wrinkle4, tmp_path, monkeypatch):
        path = tmp_path / "w.json"
        write_json(wrinkle4, path)
        calls = self._count(monkeypatch)
        assert cli_main(["verify", "--input", str(path)]) == 0
        assert calls["certificate"] == 1 and calls["scan"] == 0
        calls.update(certificate=0, kernel=0)
        assert cli_main(["verify", "--input", str(path), "--theorem", "eff"]) == 0
        assert calls == {"certificate": 0, "scan": 0, "kernel": 0}

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_cli_scans_once_per_band(self, name, band_states, tmp_path, monkeypatch):
        # one coverage certificate per band and verifier run, and no lattice scan
        path = tmp_path / "b.json"
        write_json(band_states[name][0], path)
        calls = self._count(monkeypatch)
        for theorem in (["--theorem", "eff2"], ["--theorem", "corollary"], []):
            calls["certificate"] = 0
            assert cli_main(["verify", "--input", str(path), *theorem]) == 0
            assert calls["certificate"] == 1 and calls["scan"] == 0, theorem

    def test_chunking_is_bitwise_neutral(self, wrinkle4_state, monkeypatch):
        patches = surface_triangles(wrinkle4_state.developed)
        grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, 2e-2)
        jittered = grid.points + np.random.default_rng(3).normal(scale=1e-2, size=grid.points.shape)
        kernels = (
            lambda: points_to_triangles_distance(jittered, patches),
            lambda: _scan_masks(grid, patches)[0],
            lambda: _scan_masks(grid, patches)[1],
        )
        wide = [k() for k in kernels]
        monkeypatch.setattr(band_mod, "CHUNK_BYTES", 8 * 3 * len(patches) * 7)
        for k, ref in zip(kernels, wide):
            assert np.array_equal(k(), ref)

    def test_canonical_grid_built_once(self, tri_band, wrinkle4, wrinkle4_state, monkeypatch):
        bands = [tri_band, wrinkle4]
        want = [(verify_eff2(b).measured, verify_corollary(b).measured) for b in bands]
        fresh = verify_mod._triangle_grid(CANONICAL_TRIANGLE, GRID_PITCH)
        build, calls = verify_mod._triangle_grid, []

        def counting(vertices, pitch):
            calls.append(pitch)
            return build(vertices, pitch)

        monkeypatch.setattr(verify_mod, "_triangle_grid", counting)
        verify_mod._canonical_grid.cache_clear()
        # the flat layers of these bands certify coverage: no grid is built
        assert [(verify_eff2(b).measured, verify_corollary(b).measured) for b in bands] == want
        assert calls == []
        # bands that fall back share one grid
        for lift in (0.01, 0.02):
            lifted = wrinkle4_state.patches.copy()
            lifted[::2, :, 2] += lift
            assert _state_with_patches(wrinkle4_state, lifted).triangle_to_band > 0.0
        assert calls == [GRID_PITCH]
        grid = verify_mod._canonical_grid()
        assert np.array_equal(grid.points, fresh.points) and grid.m == fresh.m
        assert not grid.points.flags.writeable

    def test_patches_built_once(self, tri_band, monkeypatch):
        calls = []

        def counting(band):
            calls.append(band)
            return surface_triangles(band)

        monkeypatch.setattr(verify_mod, "surface_triangles", counting)
        assert [r.name for r in verify_all(tri_band)] == ["eff", "eff2", "corollary"]
        assert len(calls) == 1


def _flat_area2(patches):
    """Twice the signed area of each flat patch's xy-projection, 0 for the
    other patches."""
    e0, e1 = patches[:, 1, :2] - patches[:, 0, :2], patches[:, 2, :2] - patches[:, 0, :2]
    return np.where(verify_mod._flat(patches), e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0], 0.0)


def _verify_outputs(path, out):
    """stdout, JSON report and CSV summary of `verify --report R --csv C`."""
    report, summary = out / "r.json", out / "c.csv"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli_main(["verify", "--input", str(path), "--report", str(report), "--csv", str(summary)])
    return code, stdout.getvalue(), report.read_bytes(), summary.read_bytes()


class TestFlatLayerCertificate:
    """`triangle_to_band` from the boundary cycle of the flat layer, with
    the lattice as its fallback and its reference."""

    def test_rim_is_the_settled_bound(self):
        # _RIM is the scan's settled-point slop at GRID_PITCH, to two digits
        bound = _settled_bound(verify_mod._triangle_grid(CANONICAL_TRIANGLE, GRID_PITCH))
        assert bound <= verify_mod._RIM == float(f"{bound:.1e}")

    @pytest.mark.parametrize("control", ["removed", "lifted", "chord"])
    def test_negative_controls_fall_back_to_the_lattice(self, control, band_states, monkeypatch):
        # each control breaks the flat layer's cover: the certificate fails,
        # and the fallback reads what the dense lattice reads
        grid = verify_mod._triangle_grid(CANONICAL_TRIANGLE, 2e-2)
        monkeypatch.setattr(verify_mod, "_canonical_grid", lambda: grid)
        if control == "chord":
            # the triangle, positively oriented, as two patches split along
            # the chord from a vertex to a point of the opposite side; with
            # the thinner patch missing, the cycle still winds once about
            # the incenter, but its chord lies on no edge line
            a, c, b = CANONICAL_TRIANGLE
            p = a + 0.1 * (b - a)
            whole = np.array([[a, p, c], [p, b, c]])
            assert verify_mod._flat_layer_covers(whole)
            cases = [(band_states["tri"][1], whole[1:])]
        else:
            cases = []
            for name in ("tri", "wrinkle4"):
                state = band_states[name][1]
                # the band, and its positively oriented flat layer alone
                for patches in (state.patches, state.patches[_flat_area2(state.patches) > 0.0]):
                    assert verify_mod._flat_layer_covers(patches)
                    k = int(np.argmax(_flat_area2(patches)))
                    if control == "removed":
                        patches = np.delete(patches, k, axis=0)
                    else:
                        patches = patches.copy()
                        patches[k, :, 2] += 2.0 * verify_mod._FLAT_Z
                    cases.append((state, patches))
        values = []
        for state, patches in cases:
            assert not verify_mod._flat_layer_covers(patches)
            got = _state_with_patches(state, patches).triangle_to_band
            assert got == float(points_to_triangles_distance(grid.points, patches).max())
            values.append(got)
        # the positive layer alone leaves a hole or a lifted patch
        assert max(values) > 0.0

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_paths_agree_on_bands(self, name, band_states, tmp_path, monkeypatch):
        self._assert_paths_agree(band_states[name][0], tmp_path, monkeypatch)

    @given(st.sampled_from(BAND_NAMES), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0, exclude_max=True),
           st.booleans(), st.sampled_from([None, True, False]))
    @settings(max_examples=25, deadline=None)
    def test_paths_agree_on_copies(self, band_states, tmp_path_factory, name, seed, cut, flipped, proper):
        # posed (proper or improper), re-cut and flipped copies
        band = redevelop(band_states[name][0], cut * band_states[name][0].n_bends)
        band = flip(band) if flipped else band
        if proper is not None:
            motion = RigidMotion.random(np.random.default_rng(seed), scale=1.5)
            band = transform(band, motion if proper else RigidMotion(-motion.rotation, motion.translation))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_paths_agree(band, tmp_path_factory.mktemp("copy"), monkeypatch)

    @staticmethod
    def _assert_paths_agree(band, tmp, monkeypatch):
        """The CLI's outputs are byte-identical with the certificate and
        with the lattice fallback alone.  Where the certificate holds, the
        dense lattice at pitch 2e-2 reads at most hypot(_RIM, _FLAT_Z)."""
        path = tmp / "band.json"
        write_json(band, path)
        patches = prepare(band).patches
        if verify_mod._flat_layer_covers(patches):
            bound = math.hypot(verify_mod._RIM, verify_mod._FLAT_Z)
            assert _dense_triangle_to_band(patches, pitch=2e-2)[1] <= bound
        certified = _verify_outputs(path, tmp)
        monkeypatch.setattr(verify_mod, "_flat_layer_covers", lambda patches: False)
        assert _verify_outputs(path, tmp) == certified


class TestPoseInvariance:
    @pytest.mark.parametrize("proper", [True, False])
    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_posed_band_settles_every_point(self, name, proper, band_states, monkeypatch):
        # pose normalization leaves the flat patches within _FLAT_Z of z = 0,
        # so they settle the grid and the exact kernel refines no point
        band, state = band_states[name]
        motion = RigidMotion.random(np.random.default_rng(17), scale=1.5)
        if not proper:
            motion = RigidMotion(-motion.rotation, motion.translation)
        moved = transform(band, motion)
        posed = prepare(moved)
        base = [r.passed for r in (verify_eff(band, state=state), verify_eff2(band, state=state),
                                   verify_corollary(band, state=state))]
        # band_to_triangle reads the bend endpoints with the exact kernel;
        # count only what triangle_to_band asks of it
        posed.band_to_triangle
        kernel_calls = []
        monkeypatch.setattr(verify_mod, "points_to_triangles_distance",
                            lambda pts, tris: kernel_calls.append(len(pts)))
        reports = [verify_eff(moved, state=posed), verify_eff2(moved, state=posed),
                   verify_corollary(moved, state=posed)]
        assert kernel_calls == []
        assert verify_mod._flat_layer_covers(posed.patches)
        assert [r.passed for r in reports] == base
        assert reports[1].measured["triangle_coverage_max"] == 0.0
        assert reports[1].measured["c_grid_uncovered"] == 0
        assert reports[2].measured["triangle_to_band"] == 0.0

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


class TestNegativeControls:
    @given(st.sampled_from(BAND_NAMES), st.integers(0, 2 ** 32 - 1), st.floats(10.0, 1e4))
    @settings(max_examples=12, deadline=None)
    def test_endpoint_jitter_fails(self, band_states, tmp_path_factory, name, seed, scale):
        # every bend endpoint moved at random by `scale` times tol.isometry
        band = band_states[name][0]
        noise = np.random.default_rng(seed).normal(size=band.space.shape)
        jittered = replace(band, space=band.space + scale * DEFAULT_TOL.isometry * noise, meta=None)
        assert not band_mod.validate(jittered).passed
        path = tmp_path_factory.mktemp("jitter") / "band.json"
        write_json(jittered, path)
        with redirect_stdout(io.StringIO()):
            assert cli_main(["validate", "--input", str(path)]) == 1
            assert cli_main(["verify", "--input", str(path)]) == 1

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_margins_move_continuously_under_scale_bend(self, name, band_states):
        # the T bend scaled about its midpoint by 1 + delta: every margin of
        # eff moves by O(delta), and some margin moves at each delta
        band = band_states[name][0]
        tol = DEFAULT_TOL.replace(isometry=1e-6)
        bend = round(find_tpattern(band).param_t) % band.n_bends
        base = {c.name: c.margin for c in verify_eff(band, tol).checks}
        for delta in (-1e-7, -1e-8, -1e-9, 1e-9, 1e-8, 1e-7):
            checks = verify_eff(scale_bend(band, bend, 1.0 + delta), tol).checks
            change = {c.name: abs(c.margin - base[c.name]) for c in checks}
            assert max(change.values()) <= 2.0 * abs(delta) + 1e-12, (delta, change)
            assert max(change.values()) >= 0.1 * abs(delta), (delta, change)


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
        # the bytes that json.dump writes chunk by chunk
        want = io.StringIO()
        json.dump([r.to_dict() for r in reports], want, indent=1)
        assert jpath.read_text() == want.getvalue() + "\n"

        data = json.loads(jpath.read_text())
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


def _sampled_sups(trap, boundary, eta):
    """The sampled sweep that the exact sups replaced: each edge at
    max(8, ceil(length / eta)) equal steps of its fraction.  Returns, per
    edge, the three sampled sups and a Lipschitz bound, in the fraction, on
    each of the three compared maps."""
    out = {}
    for name in verify_mod._BOUNDARY_EDGES:
        e = trap.edge(name)
        n = max(8, math.ceil(make_trapezoid(SQRT3, T_OPT).edge(name).length() / eta))
        f = np.linspace(0.0, 1.0, n + 1)
        img_a, img_b = verify_mod._I0_EDGE_IMAGES[name]
        i0 = img_a + f[:, None] * (img_b - img_a)
        chain = boundary.chain_for(name)
        dx = e.end[0] - e.start[0]
        i_pts = chain.eval(e.start[0] + f * dx)
        istar = i_pts[0] + f[:, None] * (i_pts[-1] - i_pts[0])
        slope = (np.linalg.norm(np.diff(chain.pts, axis=0), axis=1) / np.diff(chain.xs)).max()
        lip = {"i0": np.linalg.norm(img_b - img_a), "i": slope * abs(dx),
               "istar": np.linalg.norm(i_pts[-1] - i_pts[0])}
        out[name] = {
            "sup_dev": (np.linalg.norm(i0 - i_pts, axis=1).max(), lip["i0"] + lip["i"], n),
            "sup_istar": (np.linalg.norm(i_pts - istar, axis=1).max(), lip["i"] + lip["istar"], n),
            "sup_i0_vs_istar": (np.linalg.norm(i0 - istar, axis=1).max(),
                                lip["i0"] + lip["istar"], n),
        }
    return out


class TestExactSups:
    """eff's boundary sups and eff2's annulus maximum are taken at
    breakpoints, with no sampling pitch."""

    def test_break_between_samples(self):
        # a chain equal to I0 on every edge except a bump of height h at a
        # break between the 1e-4 samples at x = 0.5 and x = 0.5001 of D1
        trap = make_trapezoid(2.0, 0.5)
        trap = replace(trap, u=np.array([1.25, 1.0]), v=np.array([1.0, 0.0]))
        h = 2.0 ** -10
        samples = np.linspace(0.0, 1.0, 10_001)
        x_break = 0.5 + 2.0 ** -15
        assert samples[5000] < x_break < samples[5001]

        def i0(name, f):
            a, b = verify_mod._I0_EDGE_IMAGES[name]
            return a + np.atleast_1d(f)[:, None] * (b - a)

        d1 = [0.0, samples[5000], x_break, samples[5001], 1.0]
        bottom_pts = np.vstack([i0("D1", d1), i0("D2", 1.0)])
        bottom_pts[2, 2] = h
        bottom = verify_mod._Chain(np.array(d1 + [2.5]), bottom_pts)
        top = verify_mod._Chain(np.array([0.5, 1.25, 2.0]),
                                np.vstack([i0("H1", [0.0, 1.0]), i0("H2", 1.0)]))
        boundary = SimpleNamespace(chain_for=lambda name: bottom if name[0] == "D" else top)

        dev = boundary_deviation(trap, boundary)
        assert dev.deviation == h
        assert dev.per_edge["D1"]["sup_dev"] == h
        assert dev.istar_deviation == pytest.approx(h, abs=1e-15)
        assert dev.i0_vs_istar < 1e-15
        # the 1e-4 sweep sees nothing of the bump
        sampled = np.linalg.norm(i0("D1", samples) - bottom.eval(samples), axis=1).max()
        assert sampled < 1e-15

    def test_annulus_bisector_crossing(self):
        # a loop inside the (equilateral) triangle whose first segment runs
        # from the top side through the incenter (0, -1/3): there the three
        # bisectors cross and the distance to the boundary peaks at the
        # inradius 1/3; the rest of the loop stays near the boundary
        tri2 = CANONICAL_TRIANGLE[:, :2]
        assert np.allclose(INCENTER[:2], [0.0, -1.0 / 3.0], atol=1e-15)
        top = np.array([0.05, 0.0])
        loop = np.array([top, top + 2.5 * (INCENTER[:2] - top), tri2[0]])
        assert verify_mod._annulus_max(loop, tri2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        sampled = verify_mod._triangle_curve_distance_2d(
            densify_polyline(loop, 1e-3, closed=True), tri2).max()
        assert sampled < 1.0 / 3.0 - 1e-6

    @pytest.mark.parametrize("name", ["tri", "wrinkle3", "wrinkle4", "wrinkle5"])
    def test_eff_at_or_above_dense_samples(self, name, band_states):
        _, state = band_states[name]
        exact = boundary_deviation(state.trapezoid, state.boundary)
        sampled = _sampled_sups(state.trapezoid, state.boundary, 2e-5)
        for edge, sups in sampled.items():
            for key, (value, lip, n) in sups.items():
                got = exact.per_edge[edge][key]
                assert value - 1e-15 <= got <= value + lip / (2 * n) + 1e-15, (edge, key)

    @pytest.mark.parametrize("name", ["tri", "wrinkle3", "wrinkle4", "wrinkle5"])
    def test_annulus_at_or_above_dense_samples(self, name, band_states):
        _, state = band_states[name]
        loop = band_mod.boundary_polyline(state.developed).points
        tri2 = CANONICAL_TRIANGLE[:, :2]
        exact = verify_mod._annulus_max(loop[:, :2], tri2)
        eta = 1e-4
        sampled = verify_mod._triangle_curve_distance_2d(
            densify_polyline(loop, eta, closed=True)[:, :2], tri2).max()
        # the distance to a curve is 1-Lipschitz
        assert sampled - 1e-15 <= exact <= sampled + eta / 2 + 1e-15
