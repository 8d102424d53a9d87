import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebiusband import band as band_mod
from moebiusband import verify as verify_mod
from moebiusband.band import (
    CANONICAL_TRIANGLE,
    INCENTER,
    build_wrinkle,
    flip,
    redevelop,
    surface_triangles,
    transform,
    write_json,
)
from moebiusband.cli import main as cli_main
from moebiusband.flatmodel import T_OPT
from moebiusband.geom import (
    DEFAULT_TOL,
    RigidMotion,
    StructureError,
    point_segment_distance,
    winding_number,
)
from moebiusband.tpattern import find_tpattern
from moebiusband.verify import (
    EPS_FLOOR,
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

from conftest import (
    boundary_loop,
    densify_polyline,
    midline_trapezoid,
    random_motion,
    reference_triangles_distance,
    replace,
    scale_bend,
)
from test_reference_paths import flat_cycle_windings, reference_loop_winding

SQRT3 = math.sqrt(3.0)


class TestTriangularTheorems:
    def test_eff(self, tri_state):
        rep = verify_eff(tri_state)
        assert rep.passed
        assert rep.epsilon == EPS_FLOOR
        assert rep.measured["deviation"] < 1e-10
        assert all(c.passed for c in rep.checks)
        assert rep.details["slack_audit"]["ok"]

    def test_eff2(self, tri_state):
        rep = verify_eff2(tri_state)
        assert rep.passed
        assert rep.measured["containment_max"] < 1e-12
        assert rep.measured["winding"] in (-1, 1)
        assert rep.measured["c_grid_uncovered"] == 0
        assert rep.measured["triangle_coverage_max"] < 1e-12

    def test_corollary_zero_distance(self, tri_state):
        rep = verify_corollary(tri_state)
        assert rep.passed
        # the flat-folded band IS the triangle: both directed distances are
        # exact, and the flat layer certifies the coverage
        assert rep.measured["hausdorff"] <= 1e-12


class TestWrinkleTheorems:
    def test_eff(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        rep = verify_eff(wrinkle4_state)
        assert rep.passed
        dev = rep.measured["deviation"]
        assert dev < 6.0 * math.sqrt(eps)
        # sharpness: the crack forces a deviation of order sqrt(eps)
        assert dev >= 0.3 * math.sqrt(eps)
        assert rep.measured["istar_deviation"] < 3.0 * math.sqrt(eps)
        assert all(c.passed for c in rep.checks)
        assert rep.details["slack_audit"]["ok"]

    def test_est1_chain(self, wrinkle4_state):
        rep = verify_eff(wrinkle4_state)
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
        rep = verify_eff2(wrinkle4_state)
        assert rep.passed
        assert rep.measured["containment_max"] <= 6.0 * math.sqrt(eps)
        # the wrinkle's crack height, 0.5 sin(sqrt(eps)) at eps = 1e-4
        assert rep.measured["containment_max"] == pytest.approx(
            0.5 * math.sin(math.sqrt(1e-4)), rel=1e-8
        )
        assert rep.measured["winding"] in (-1, 1)
        assert rep.measured["c_grid_uncovered"] == 0
        assert rep.measured["triangle_coverage_max"] <= 18.0 * math.sqrt(eps)

    def test_corollary(self, wrinkle4, wrinkle4_state):
        eps = measured_eps(wrinkle4)
        rep = verify_corollary(wrinkle4_state)
        assert rep.passed
        assert rep.measured["hausdorff"] < 18.0 * math.sqrt(eps)
        assert 0.4 <= rep.measured["ratio_to_sqrt_eps"] <= 18.0


def _canonical_lattice(pitch=2e-2):
    """The lattice a + (i/m)(b - a) + (j/m)(c - a), i, j >= 0, i + j <= m,
    over CANONICAL_TRIANGLE = (a, b, c) at the given pitch: (points, i, j, m)."""
    m = math.ceil(band_mod.SIDE / pitch)
    i, j = np.array([(i, j) for i in range(m + 1) for j in range(m + 1 - i)], dtype=float).T
    a, b, c = CANONICAL_TRIANGLE
    return a + np.outer(i / m, b - a) + np.outer(j / m, c - a), i, j, m


def _dense_triangle_to_band(patches, pitch=2e-2):
    """Largest distance from the lattice to the patches: a lower bound on
    the supremum over the triangle."""
    return float(reference_triangles_distance(_canonical_lattice(pitch)[0], patches).max())


@pytest.fixture(scope="module")
def band_states(tri_band, tri_state, wrinkle4, wrinkle4_state):
    """The four benchmark bands, each with its PipelineState."""
    w3, w5 = build_wrinkle(1e-3), build_wrinkle(1e-5)
    return {"tri": (tri_band, tri_state), "wrinkle3": (w3, prepare(w3)),
            "wrinkle4": (wrinkle4, wrinkle4_state), "wrinkle5": (w5, prepare(w5))}


BAND_NAMES = ["tri", "wrinkle3", "wrinkle4", "wrinkle5"]
LOOP_NOTE = "triangle_to_band from the boundary loop: 2 annulus_max + max|z|"


class TestCoverage:
    """eff2's coverage of the shrunk triangle C, and the coverage of the
    triangle under re-cutting and flipping."""

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_c_grid_is_the_shrunk_triangle(self, name, band_states):
        # eff2 reads no point of the shrunk triangle C: where the annulus
        # and winding premises hold, C is covered.  Check that against the
        # reference kernel on the xy-projected patches, at the lattice points of
        # C, on the band and on perturbations of its bend endpoints
        band, state = band_states[name]
        d6 = 6.0 * math.sqrt(measured_eps(band))
        points, i, j, m = _canonical_lattice()
        sample = np.minimum(np.minimum(i, j), m - i - j) >= m * d6
        # an independent barycentric test in C picks the same points
        tri2 = CANONICAL_TRIANGLE[:, :2]
        c_tri = INCENTER[:2] + (1.0 - 3.0 * d6) * (tri2 - INCENTER[:2])
        lhs = np.vstack([c_tri.T, np.ones(3)])
        rhs = np.vstack([points[:, :2].T, np.ones(len(points))])
        bary_min = np.linalg.solve(lhs, rhs).min(axis=0)
        assert np.abs(bary_min).min() > 1e-9     # no point within rounding of C's boundary
        assert np.array_equal(sample, bary_min >= 0.0)
        assert 0 < sample.sum() < len(points)
        rep = verify_eff2(state)
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
            premises[perturb] = moved.annulus_max <= d6 and moved.winding in (-1, 1)
            if premises[perturb]:
                projected = moved.patches * [1.0, 1.0, 0.0]
                assert (reference_triangles_distance(points[sample], projected) <= 1e-12).all(), perturb
            else:
                # eff2 fails and names the failed premise instead
                rep = verify_eff2(moved)
                assert not rep.passed and "c_grid_uncovered" not in rep.measured
                assert any(n.startswith("coverage of C not certified: fails") for n in rep.notes)
                if perturb == "shrink":
                    # the annulus premise alone fails eff2 here
                    assert rep.measured["containment_max"] <= d6
                    assert rep.measured["triangle_coverage_max"] <= 18.0 * math.sqrt(measured_eps(band))
        assert premises["none"] and premises["lift"] and not premises["overhang"]
        assert not premises["shrink"]

    @given(st.sampled_from(BAND_NAMES), st.floats(0.0, 1.0, exclude_max=True), st.booleans())
    @example("wrinkle4", 0.23451020166982395, False)   # the cut 30.017305813737465 of 128
    # the cut 1.44e-10 beside bend 0, the T bend, whose leaf ties it
    @example("tri", 1e-12, False)
    @example("tri", 1e-12, True)
    @settings(max_examples=10, deadline=None)
    def test_coverage_invariant_under_recut_and_flip(self, band_states, name, cut, flipped):
        # hausdorff is band_to_triangle on these bands, read at the bend
        # endpoints after the pose normalization of each copy
        band, state = band_states[name]
        moved = redevelop(band, cut * band.n_bends)
        moved = flip(moved) if flipped else moved
        base = (verify_eff2(state).measured, verify_corollary(state).measured)
        moved = prepare(moved)
        eff2, cor = verify_eff2(moved).measured, verify_corollary(moved).measured
        for key in ("c_grid_uncovered", "triangle_coverage_max"):
            assert eff2[key] == base[0][key], key
        assert cor["hausdorff"] == base[1]["hausdorff"]

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_coverage_invariant_under_cuts_beside_pattern_bends(self, name, band_states):
        # a cut leaf beside a bend of a pattern ties that bend at the rank's
        # 1e-9 rounding and lies inside a fan, so it loses the tie: every
        # copy chooses a pattern of the uncut band's class, and reads its
        # numbers bitwise
        band, state = band_states[name]
        n, tp = band.n_bends, state.pattern
        base = (verify_corollary(state).measured["hausdorff"],
                verify_eff2(state).measured["triangle_coverage_max"])
        params = [tp.param_t, tp.param_b] + [a[key] for a in tp.alternates for key in ("alpha", "beta")]
        for k in sorted({round(p) % n for p in params}):
            for delta in (-5e-10, 1e-11, 1e-9):
                for flipped in (False, True):
                    copy = prepare(redevelop(flip(band) if flipped else band, (k + delta) % n))
                    got = (verify_corollary(copy).measured["hausdorff"],
                           verify_eff2(copy).measured["triangle_coverage_max"])
                    assert got == base, (k, delta, flipped)


def _state_with_patches(state, patches):
    """A fresh copy of `state` whose ruled patches are `patches`."""
    copy = replace(state)
    vars(copy)["patches"] = patches
    return copy


def _state_with_space(state, space, flat=None):
    """A fresh copy of `state` whose developed band has the bend endpoints
    `space` (and, if given, the flat endpoints `flat`)."""
    flat = state.developed.flat if flat is None else flat
    return replace(state, developed=replace(state.developed, space=space, flat=flat))


class TestSharedGeometry:
    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_exact_distances_match_dense(self, name, band_states):
        band, state = band_states[name]
        eff2 = verify_eff2(state).measured
        cor = verify_corollary(state).measured
        ends = state.developed.space.reshape(-1, 3)
        endpoint_max = float(reference_triangles_distance(ends, CANONICAL_TRIANGLE[None]).max())
        assert eff2["containment_max"] == cor["band_to_triangle"] == endpoint_max
        dense = _dense_triangle_to_band(surface_triangles(state.developed))
        assert eff2["triangle_coverage_max"] == cor["triangle_to_band"] == dense

    def test_exact_near_zero_at_a_cut_beside_a_bend(self, tri_band):
        # the cut leaf 1.44e-10 past bend 0 ties the T bend 0 and lies inside
        # the left fan, so bend 0 stays the T bend, the pose stays the uncut
        # band's and the flat layer certifies the coverage
        measured = verify_eff2(prepare(redevelop(tri_band, 1.44e-10))).measured
        assert measured["containment_max"] == 0.0
        assert measured["triangle_coverage_max"] == 0.0

    def _count(self, monkeypatch):
        # winding_number counts as "winding" for the loop and as "cycle" for
        # the flat layer's boundary cycle, the one caller that passes weights
        calls = {"certificate": 0, "annulus": 0, "winding": 0, "cycle": 0, "kernel": 0,
                 "chains": 0}
        for key, name in (("certificate", "_flat_layer_covers"), ("annulus", "_annulus_max"),
                          ("winding", "winding_number"), ("kernel", "points_to_triangles_distance"),
                          ("chains", "_Chain")):
            def counting(*args, key=key, real=getattr(verify_mod, name)):
                calls["cycle" if key == "winding" and len(args) == 4 else key] += 1
                return real(*args)

            monkeypatch.setattr(verify_mod, name, counting)
        return calls

    def test_verify_all_measures_once(self, tri_band, wrinkle4_state, monkeypatch):
        calls = self._count(monkeypatch)
        assert [r.name for r in verify_all(tri_band)] == ["eff", "eff2", "corollary"]
        assert calls["certificate"] == calls["annulus"] == calls["winding"] == calls["cycle"] == 1
        # a lifted band fails the certificate's edge-line test before its winding;
        # eff2 and corollary share its loop bound
        lifted = wrinkle4_state.patches.copy()
        lifted[::2, :, 2] += 0.01
        state = _state_with_patches(wrinkle4_state, lifted)
        calls.update(certificate=0, annulus=0, winding=0, cycle=0)
        verify_eff2(state)
        verify_corollary(state)
        assert calls["certificate"] == calls["annulus"] == calls["winding"] == 1
        assert calls["cycle"] == 0
        assert state.coverage[1] == LOOP_NOTE

    def test_cli_measures_once_and_eff_never(self, wrinkle4, tmp_path, monkeypatch):
        path = tmp_path / "w.json"
        write_json(wrinkle4, path)
        calls = self._count(monkeypatch)
        assert cli_main(["verify", "--input", str(path)]) == 0
        assert calls["certificate"] == calls["annulus"] == calls["winding"] == calls["cycle"] == 1
        assert calls["chains"] == 2
        calls.update(certificate=0, annulus=0, winding=0, cycle=0, kernel=0, chains=0)
        assert cli_main(["verify", "--input", str(path), "--theorem", "eff"]) == 0
        assert calls == {"certificate": 0, "annulus": 0, "winding": 0, "cycle": 0, "kernel": 0,
                         "chains": 2}
        # only eff reads the boundary chains
        for argv in (["verify", "--theorem", "eff2"], ["verify", "--theorem", "corollary"],
                     ["tpattern"]):
            calls["chains"] = 0
            assert cli_main([argv[0], "--input", str(path), *argv[1:]]) == 0
            assert calls["chains"] == 0, argv

    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_cli_scans_once_per_band(self, name, band_states, tmp_path, monkeypatch):
        # one coverage certificate per band and verifier run; corollary alone
        # reads no loop where the certificate holds
        path = tmp_path / "b.json"
        write_json(band_states[name][0], path)
        calls = self._count(monkeypatch)
        for theorem in (["--theorem", "eff2"], ["--theorem", "corollary"], []):
            calls.update(certificate=0, winding=0, cycle=0)
            assert cli_main(["verify", "--input", str(path), *theorem]) == 0
            assert calls["certificate"] == calls["cycle"] == 1, theorem
            assert calls["winding"] == (0 if "corollary" in theorem else 1), theorem

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
    """`triangle_to_band` from the boundary cycle of the flat layer, and
    from the boundary loop where that certificate fails."""

    @pytest.mark.parametrize("control", ["removed", "lifted", "chord"])
    def test_negative_controls_fail_the_certificate(self, control, band_states):
        # each control breaks the flat layer's cover, and the certificate
        # fails
        if control == "chord":
            # the triangle, positively oriented, as two patches split along
            # the chord from a vertex to a point of the opposite side; with
            # the thinner patch missing, the cycle still winds once about
            # the incenter, but its chord lies on no edge line
            a, c, b = CANONICAL_TRIANGLE
            p = a + 0.1 * (b - a)
            whole = np.array([[a, p, c], [p, b, c]])
            assert verify_mod._flat_layer_covers(whole)
            cases = [whole[1:]]
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
                    cases.append(patches)
        for patches in cases:
            assert not verify_mod._flat_layer_covers(patches)
            got, want = flat_cycle_windings(patches)
            assert got == want
        # the positive layer alone leaves a hole or a lifted patch
        assert max(_dense_triangle_to_band(patches) for patches in cases) > 0.0

    def test_edge_through_the_incenter_fails_before_the_winding(self, band_states):
        # a patch removed beside the middle fan's central bend (0, 0)-(0, -1)
        # leaves that bend in the cycle, through the incenter: the edge-line
        # test fails the certificate before the winding, which rejects the
        # incenter as a point on the cycle
        patches = band_states["tri"][1].patches
        xy = patches[:, :, :2]
        beside = [k for k in np.flatnonzero(_flat_area2(patches) > 0.0)
                  if (xy[k] == [0.0, 0.0]).all(axis=1).any()
                  and (xy[k] == [0.0, -1.0]).all(axis=1).any()]
        assert len(beside) == 2
        for k in beside:
            removed = np.delete(patches, k, axis=0)
            assert not verify_mod._flat_layer_covers(removed)
            ends, count = verify_mod._flat_cycle(removed)
            assert (point_segment_distance(INCENTER[:2], ends[:, 0], ends[:, 1]) < 1e-12).any()
            with pytest.raises(StructureError, match="on the loop"):
                winding_number(ends[:, 0], ends[:, 1], INCENTER[:2], count)

    @pytest.mark.parametrize("control", ["removed", "lifted", "chord", "lift", "jitter", "shrunk"])
    def test_loop_bound_above_dense(self, control, band_states):
        # developed bands whose flat layer fails the certificate: one bend
        # dropped (48 of the triangular band, 40 of wrinkle 1e-4), every
        # endpoint lifted by 2 _FLAT_Z (no flat layer is left), the cut leaf
        # of redevelop(tri, 1e-6) with its fan vertex interpolated as well,
        # every other bend lifted by 0.01, every endpoint jittered, and the
        # band shrunk toward the incenter and lifted, which leaves the
        # triangle's corners 2 annulus_max from it in the plane.  The ruled
        # patches of any developed band form a mod-2 chain bounded by its
        # loop, so the loop bound holds for each
        if control == "chord":
            tri = band_states["tri"][0]
            cut = redevelop(tri, 1e-6)
            space = cut.space.copy()
            space[0] = (1.0 - 1e-6) * tri.space[0] + 1e-6 * tri.space[1]
            states = [prepare(replace(cut, space=space))]
        else:
            states = []
            for name, fold in (("tri", 48), ("wrinkle4", 40)):
                state = band_states[name][1]
                space, flat = state.developed.space.copy(), state.developed.flat
                if control == "removed":
                    space, flat = np.delete(space, fold, axis=0), np.delete(flat, fold, axis=0)
                elif control == "lifted":
                    space[:, :, 2] += 2.0 * verify_mod._FLAT_Z
                elif control == "lift":
                    space[::2, :, 2] += 0.01
                elif control == "jitter":
                    space += np.random.default_rng(7).normal(scale=2e-3, size=space.shape)
                else:
                    space[:, :, :2] = INCENTER[:2] + 0.9 * (space[:, :, :2] - INCENTER[:2])
                    space[:, :, 2] += 0.01
                states.append(_state_with_space(state, space, flat))
        for state in states:
            assert not verify_mod._flat_layer_covers(state.patches)
            got, want = flat_cycle_windings(state.patches)
            assert got == want
            assert state.winding == reference_loop_winding(state.loop, INCENTER[:2])
            bound, note = state.coverage
            assert note == LOOP_NOTE
            assert bound >= _dense_triangle_to_band(state.patches)

    @pytest.mark.parametrize("name,cut", [(name, 1e-6) for name in BAND_NAMES]
                             + [("wrinkle5", 98.88762048878147)])
    def test_cut_beside_a_bend_certifies(self, name, cut, band_states):
        # the cut leaf keeps the fan vertex it shares with the next bend
        # bitwise, so their edges cancel
        assert verify_mod._flat_layer_covers(prepare(redevelop(band_states[name][0], cut)).patches)

    @pytest.mark.parametrize("perturb", ["squash", "shift"])
    def test_unbounded_loop_fails_corollary(self, perturb, band_states, tmp_path, monkeypatch):
        # squashed onto the triangle's top side, the loop winds 0 times about
        # the incenter; shifted by 0.5, it reaches 0.5 from the triangle's
        # boundary curve.  triangle_to_band reads inf, and a note names the
        # premise that failed
        band, state = band_states["wrinkle4"]
        space = state.developed.space.copy()
        if perturb == "squash":
            space[:, :, 1] *= 1e-3
        else:
            space[:, :, 0] += 0.5
        moved = _state_with_space(state, space)
        premise = "winding in (-1, 1)" if perturb == "squash" else "annulus_max < 1/3"
        note = "triangle_to_band not bounded: fails " + premise
        assert moved.coverage == (math.inf, note)
        cor = verify_corollary(moved)
        assert not cor.passed and cor.measured["hausdorff"] == math.inf and cor.notes == (note,)
        assert note in verify_eff2(moved).notes
        # the CLI writes every output and exits 1
        path = tmp_path / "band.json"
        write_json(band, path)
        monkeypatch.setattr(verify_mod, "prepare", lambda band, tol: moved)
        code, stdout, report, summary = _verify_outputs(path, tmp_path)
        assert code == 1
        assert "corollary: pass=False" in stdout and "'hausdorff': 'inf'" in stdout
        assert json.loads(report)[2]["measured"]["triangle_to_band"] == math.inf
        assert summary.decode().splitlines()[3].split(",")[3] == "inf"

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
            motion = random_motion(np.random.default_rng(seed), scale=1.5)
            band = transform(band, motion if proper else RigidMotion(-motion.rotation, motion.translation))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_paths_agree(band, tmp_path_factory.mktemp("copy"), monkeypatch)

    @staticmethod
    def _assert_paths_agree(band, tmp, monkeypatch):
        """The CLI's exit code and every verdict are the same with the
        certificate and with the loop bound alone, and the loop bound is at
        least the dense lattice's reading.  Where the certificate holds, the
        dense lattice reads at most hypot(_RIM, _FLAT_Z)."""
        path = tmp / "band.json"
        write_json(band, path)
        patches = prepare(band).patches
        dense = _dense_triangle_to_band(patches)
        if verify_mod._flat_layer_covers(patches):
            assert dense <= math.hypot(verify_mod._RIM, verify_mod._FLAT_Z)
        certified = _verify_outputs(path, tmp)
        monkeypatch.setattr(verify_mod, "_flat_layer_covers", lambda patches: False)
        loop_only = _verify_outputs(path, tmp)
        assert loop_only[0] == certified[0]
        reports = [json.loads(outputs[2]) for outputs in (certified, loop_only)]
        assert [r["passed"] for r in reports[0]] == [r["passed"] for r in reports[1]]
        assert reports[1][2]["measured"]["triangle_to_band"] >= dense


class TestPoseInvariance:
    @pytest.mark.parametrize("proper", [True, False])
    @pytest.mark.parametrize("name", BAND_NAMES)
    def test_posed_band_settles_every_point(self, name, proper, band_states, monkeypatch):
        # pose normalization leaves the flat patches within _FLAT_Z of z = 0,
        # so the flat layer certifies the coverage and the point-to-triangle
        # distance runs on no point of the triangle
        band, state = band_states[name]
        motion = random_motion(np.random.default_rng(17), scale=1.5)
        if not proper:
            motion = RigidMotion(-motion.rotation, motion.translation)
        moved = transform(band, motion)
        posed = prepare(moved)
        base = [r.passed for r in (verify_eff(state), verify_eff2(state), verify_corollary(state))]
        # band_to_triangle reads the bend endpoints with the closed form
        # against the canonical triangle; count only what triangle_to_band
        # asks of it
        posed.band_to_triangle
        kernel_calls = []
        monkeypatch.setattr(verify_mod, "points_to_triangles_distance",
                            lambda pts, tris: kernel_calls.append(len(pts)))
        reports = [verify_eff(posed), verify_eff2(posed), verify_corollary(posed)]
        assert kernel_calls == []
        assert verify_mod._flat_layer_covers(posed.patches)
        assert [r.passed for r in reports] == base
        assert reports[1].measured["triangle_coverage_max"] == 0.0
        assert reports[1].measured["c_grid_uncovered"] == 0
        assert reports[2].measured["triangle_to_band"] == 0.0

    @pytest.mark.parametrize("name", ["wrinkle3", "wrinkle4", "wrinkle5"])
    def test_hausdorff_under_poses_of_recut_and_flipped_copies(self, name, band_states):
        # re-cutting and flipping alone leave hausdorff bitwise equal; a
        # rigid pose moves it by rounding, up to 3.6e-16 on these copies
        band, state = band_states[name]
        base = verify_corollary(state).measured["hausdorff"]
        rng = np.random.default_rng(BAND_NAMES.index(name))
        for cut in np.linspace(0.05, 0.95, 15) * band.n_bends:
            for flipped in (False, True):
                copy = redevelop(band, cut)
                copy = flip(copy) if flipped else copy
                for proper in (True, False):
                    motion = random_motion(rng, scale=1.5)
                    if not proper:
                        motion = RigidMotion(-motion.rotation, motion.translation)
                    rep = verify_corollary(prepare(transform(copy, motion)))
                    assert rep.passed
                    assert abs(rep.measured["hausdorff"] - base) <= 1e-15, (cut, flipped, proper)

    def test_deviation_stable_under_rigid_motion(self, wrinkle4, wrinkle4_state):
        base = verify_eff(wrinkle4_state).measured["deviation"]
        rng = np.random.default_rng(99)
        for _ in range(5):
            moved = transform(wrinkle4, random_motion(rng, scale=1.0))
            dev = verify_eff(prepare(moved)).measured["deviation"]
            assert abs(dev - base) < 1e-8


class TestScope:
    def test_eff_out_of_scope(self, tri_state):
        fat = replace(tri_state, developed=replace(tri_state.developed, lam=SQRT3 + 0.3))
        for verifier in (verify_eff, verify_eff2):
            with pytest.raises(OutOfScopeError, match="out of theorem scope"):
                verifier(fat)

    def test_corollary_out_of_scope(self, tri_state):
        fat = replace(tri_state, developed=replace(tri_state.developed, lam=SQRT3 + 0.1))
        with pytest.raises(OutOfScopeError, match="out of theorem scope"):
            verify_corollary(fat)

    def test_verify_all_rejects_invalid(self, tri_band):
        with pytest.raises(StructureError):
            verify_all(scale_bend(tri_band, 4, 1.02))

    @pytest.fixture
    def no_prepare(self, monkeypatch):
        from moebiusband import cli as cli_mod

        def fail(*args):
            raise AssertionError("prepare ran on an out-of-scope band")
        for module in (verify_mod, cli_mod):
            monkeypatch.setattr(module, "prepare", fail)

    def test_scope_checked_before_prepare(self, tri_band, no_prepare):
        fat = replace(tri_band, lam=SQRT3 + 0.3)
        with pytest.raises(OutOfScopeError, match=r"lambda >= sqrt\(3\) \+ 1/4"):
            verify_all(fat)

    def test_cli_scope_checked_before_prepare(self, tmp_path, no_prepare, capsys):
        # lambda - sqrt(3) = 4.3e-3 at eps 1e-2, over corollary's 1/384
        path = tmp_path / "w2.json"
        band = build_wrinkle(1e-2)
        write_json(band, path)
        assert cli_main(["verify", "--input", str(path), "--theorem", "corollary"]) == 2
        assert cli_main(["sharpness-sweep", "--epsilons", "1e-2"]) == 2
        # a band both invalid and out of scope gets the scope's exit 2
        write_json(scale_bend(band, 4, 1.02), path)
        assert cli_main(["verify", "--input", str(path), "--theorem", "corollary"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of theorem scope: eps >= 1/384\n" * 3
        assert captured.out == ""


class TestNegativeControls:
    @given(st.sampled_from(BAND_NAMES), st.integers(0, 2 ** 32 - 1), st.floats(10.0, 1e4))
    @settings(max_examples=12, deadline=None)
    def test_endpoint_jitter_fails(self, band_states, tmp_path_factory, name, seed, scale):
        # every bend endpoint moved at random by `scale` times tol.isometry
        band = band_states[name][0]
        noise = np.random.default_rng(seed).normal(size=band.space.shape)
        jittered = replace(band, space=band.space + scale * DEFAULT_TOL.isometry * noise)
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
        tol = replace(DEFAULT_TOL, isometry=1e-6)
        bend = round(find_tpattern(band).param_t) % band.n_bends
        base = {c.name: c.margin for c in verify_eff(prepare(band, tol)).checks}
        for delta in (-1e-7, -1e-8, -1e-9, 1e-9, 1e-8, 1e-7):
            checks = verify_eff(prepare(scale_bend(band, bend, 1.0 + delta), tol)).checks
            change = {c.name: abs(c.margin - base[c.name]) for c in checks}
            assert max(change.values()) <= 2.0 * abs(delta) + 1e-12, (delta, change)
            assert max(change.values()) >= 0.1 * abs(delta), (delta, change)


class TestReports:
    def test_json_and_csv(self, tri_state, tmp_path):
        reports = [
            verify_eff(tri_state),
            verify_corollary(tri_state),
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

    def test_report_dict_fields(self, wrinkle4_state):
        rep = verify_eff(wrinkle4_state)
        d = rep.to_dict()
        assert set(d) >= {"name", "lambda", "epsilon", "passed", "bounds", "measured", "checks"}
        assert len(d["checks"]) == 7


def _sampled_sups(trap, chains, eta):
    """The sampled sweep that the exact sups replaced: each edge at
    max(8, ceil(length / eta)) equal steps of its fraction.  Returns, per
    edge, the three sampled sups and a Lipschitz bound, in the fraction, on
    each of the three compared maps."""
    out = {}
    opt_starts, opt_ends = midline_trapezoid(SQRT3, T_OPT).boundary_edges()
    for k, (name, start, end) in enumerate(zip(verify_mod._BOUNDARY_EDGES, *trap.boundary_edges())):
        n = max(8, math.ceil(np.linalg.norm(opt_ends[k] - opt_starts[k]) / eta))
        f = np.linspace(0.0, 1.0, n + 1)
        img_a, img_b = verify_mod._I0_EDGE_IMAGES[name]
        i0 = img_a + f[:, None] * (img_b - img_a)
        chain = chains[0] if name[0] == "D" else chains[1]
        dx = end[0] - start[0]
        i_pts = chain.eval(start[0] + f * dx)
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
        trap = midline_trapezoid(2.0, 0.5)
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
        dev = boundary_deviation(trap, (bottom, top))
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
        assert verify_mod._annulus_max(loop) == pytest.approx(1.0 / 3.0, abs=1e-15)
        sampled = verify_mod._triangle_curve_distance_2d(densify_polyline(loop, 1e-3, closed=True)).max()
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
        loop = boundary_loop(state.developed)
        exact = verify_mod._annulus_max(loop[:, :2])
        eta = 1e-4
        sampled = verify_mod._triangle_curve_distance_2d(
            densify_polyline(loop, eta, closed=True)[:, :2]).max()
        # the distance to a curve is 1-Lipschitz
        assert sampled - 1e-15 <= exact <= sampled + eta / 2 + 1e-15
