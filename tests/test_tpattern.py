import math

import numpy as np
import pytest

from moebiusband.band import RuledBand, redevelop, scale_bend, transform
from moebiusband.geom import RigidMotion, StructureError
from moebiusband.tpattern import (
    TPattern,
    _offset_residual,
    _perp_residual,
    _perp_roots,
    develop_for,
    find_tpattern,
    normalize_pose,
)
from moebiusband.verify import verify_eff

SQRT3 = math.sqrt(3.0)
T0 = 1.0 / SQRT3


def pose_residuals(tp: TPattern) -> dict:
    """Coordinate residuals of a (supposedly) normalized pattern."""
    t_sp = tp.bend_t_space
    b_sp = tp.bend_b_space
    return {
        "t_off_axis": float(np.abs(t_sp[:, 1:]).max()),
        "t_midpoint": float(np.abs(t_sp.mean(axis=0)).max()),
        "b_off_axis": float(np.abs(b_sp[:, [0, 2]]).max()),
        "b_above_axis": float(max(b_sp[:, 1].max(), 0.0)),
    }


class TestTriangularPattern:
    def test_canonical_pair(self, tri_band):
        tp = find_tpattern(tri_band)
        # the cut bend (base of the triangle) and the midline bend
        assert tp.param_t == pytest.approx(0.0, abs=1e-9)
        assert tp.len_t == pytest.approx(2.0 / SQRT3, abs=1e-12)
        assert tp.len_b == pytest.approx(1.0, abs=1e-12)
        assert abs(tp.residual_perp) < 1e-10
        assert abs(tp.residual_offset) < 1e-10
        # T maps onto the X-axis base, B onto the dropped vertical segment
        assert np.allclose(np.abs(tp.bend_t_space[:, 0]), T0, atol=1e-12)
        assert np.allclose(tp.bend_t_space[:, 1:], 0.0, atol=1e-12)
        assert np.allclose(sorted(tp.bend_b_space[:, 1]), [-1.0, 0.0], atol=1e-12)
        assert np.allclose(tp.bend_b_space[:, [0, 2]], 0.0, atol=1e-12)

    def test_already_canonical_pose(self, tri_band):
        tp = find_tpattern(tri_band)
        moved, tpm = normalize_pose(tri_band, tp)
        assert np.abs(moved.space - tri_band.space).max() < 1e-12
        res = pose_residuals(tpm)
        assert max(res.values()) < 1e-12

    def test_unfold_t(self, tri_band):
        tp = find_tpattern(tri_band)
        trap, _ = develop_for(tri_band, tp)
        assert trap.t == pytest.approx(T0, abs=1e-12)
        # B sits at the trapezoid midline for the optimal band
        assert trap.u[0] == pytest.approx(0.5 * (trap.lam + trap.t), abs=1e-12)
        assert trap.v[0] == pytest.approx(0.5 * (trap.lam + trap.t), abs=1e-12)

    def test_round_trip_from_random_pose(self, tri_band):
        rng = np.random.default_rng(11)
        motion = RigidMotion.random(rng, scale=2.0)
        moved = transform(tri_band, motion)
        tp = find_tpattern(moved)
        normalized, tpm = normalize_pose(moved, tp)
        assert np.abs(normalized.space - tri_band.space).max() < 1e-10
        trap, _ = develop_for(normalized, tpm)
        assert trap.t == pytest.approx(T0, abs=1e-12)


class TestWrinklePattern:
    def test_pattern_found(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        assert abs(tp.residual_perp) < 1e-10
        assert abs(tp.residual_offset) < 1e-10
        assert tp.len_b >= 1.0 - 1e-9

    def test_lip_bound_on_unfolded_t(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        moved, tpm = normalize_pose(wrinkle4, tp)
        trap, _ = develop_for(moved, tpm)
        eps_excess = wrinkle4.lam - SQRT3
        assert abs(trap.t - T0) < 4.0 * eps_excess / 3.0

    def test_normalized_midpoint_at_origin(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        moved, tpm = normalize_pose(wrinkle4, tp)
        res = pose_residuals(tpm)
        assert res["t_midpoint"] < 1e-10
        assert res["t_off_axis"] < 1e-10
        assert res["b_off_axis"] < 1e-8
        assert res["b_above_axis"] < 1e-8

    def test_idempotent_normalization(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        moved, _ = normalize_pose(wrinkle4, tp)
        tp2 = find_tpattern(moved)
        res = pose_residuals(tp2)
        # the re-found pattern is already normalized
        assert res["t_off_axis"] < 1e-8 and res["b_off_axis"] < 1e-8


class TestEquivariance:
    def test_same_parameters_under_rigid_motion(self, wrinkle4):
        tp0 = find_tpattern(wrinkle4)
        rng = np.random.default_rng(5)
        for _ in range(4):
            motion = RigidMotion.random(rng, scale=1.5)
            tp = find_tpattern(transform(wrinkle4, motion))
            assert tp.param_t == pytest.approx(tp0.param_t, abs=1e-6)
            assert tp.param_b == pytest.approx(tp0.param_b, abs=1e-6)
            assert abs(tp.residual_perp) < 1e-8
            assert abs(tp.residual_offset) < 1e-8

    @pytest.mark.parametrize("band_name", ["tri_band", "wrinkle4"])
    def test_improper_motion_and_recut(self, band_name, request):
        band = request.getfixturevalue(band_name)

        def unfolded_t(b):
            tp = find_tpattern(b)
            assert abs(tp.residual_perp) < 1e-10
            assert abs(tp.residual_offset) < 1e-10
            trap, _ = develop_for(*normalize_pose(b, tp))
            return trap.t

        t0 = unfolded_t(band)
        dev0 = verify_eff(band).measured["deviation"]
        rng = np.random.default_rng(17)
        for _ in range(3):
            motion = RigidMotion.random(rng, scale=1.5)
            mirror = RigidMotion(-motion.rotation, motion.translation)
            cut = float(rng.uniform(0.0, band.n_bends))
            for copy in (transform(band, mirror), redevelop(band, cut)):
                assert unfolded_t(copy) == pytest.approx(t0, abs=1e-12)
                assert verify_eff(copy).measured["deviation"] == pytest.approx(dev0, abs=1e-8)


class TestRootQuality:
    @pytest.mark.parametrize("band_name", ["tri_band", "wrinkle4"])
    def test_every_root_is_exact(self, band_name, request):
        band = request.getfixturevalue(band_name)
        rng = np.random.default_rng(23)
        motion = RigidMotion.random(rng, scale=1.5)
        mirror = RigidMotion(-motion.rotation, motion.translation)
        for copy in (band, transform(band, motion), transform(band, mirror)):
            a, k, b = _perp_roots(copy)
            assert len(b) > 0
            assert np.all((k <= b) & (b <= k + 1))
            for ai, bi in zip(a, b):
                assert abs(_perp_residual(copy, float(ai), float(bi))) <= 1e-15


class TestResidualOddness:
    def test_orientation_reversal_flips_signs(self, wrinkle4):
        n = wrinkle4.n_bends
        a, b = 10.0, 50.0
        f1 = _perp_residual(wrinkle4, a, b)
        f2 = _offset_residual(wrinkle4, a, b)
        # parameter b + N is the same bend with reversed orientation
        assert _perp_residual(wrinkle4, a, b + n) == pytest.approx(-f1, abs=1e-12)
        assert _offset_residual(wrinkle4, a, b + n) == pytest.approx(-f2, abs=1e-12)

    def test_swap_preserves_offset(self, wrinkle4):
        a, b = 10.0, 50.0
        assert _offset_residual(wrinkle4, b, a) == pytest.approx(
            _offset_residual(wrinkle4, a, b), abs=1e-12
        )


class TestUnfoldSynthetic:
    def _vertical_band(self, lam=2.0, n=12):
        xs = np.linspace(0.0, lam, n, endpoint=False)
        flat = np.zeros((n, 2, 2))
        flat[:, 0, 0] = xs
        flat[:, 1, 0] = xs
        flat[:, 1, 1] = 1.0
        space = np.zeros((n, 2, 3))
        space[:, 0, 0] = xs
        space[:, 1, 0] = xs
        space[:, 1, 1] = 1.0
        return RuledBand(lam=lam, flat=flat, space=space)

    def test_vertical_cut_gives_rectangle(self):
        band = self._vertical_band()
        tp = TPattern(
            param_t=0.0,
            param_b=6.0,
            bend_t_flat=band.flat[0],
            bend_t_space=band.space[0],
            bend_b_flat=band.flat[6],
            bend_b_space=band.space[6],
            residual_perp=0.0,
            residual_offset=0.0,
            pose=RigidMotion.identity(),
            ray_pose=RigidMotion.identity(),
            intersection=np.zeros(3),
        )
        trap, dev = develop_for(band, tp)
        assert trap.t == pytest.approx(0.0, abs=1e-12)
        assert trap.len_h() == pytest.approx(2.0)
        assert trap.len_d() == pytest.approx(2.0)


class TestFailureModes:
    def test_invalid_band_rejected(self, tri_band):
        bad = scale_bend(tri_band, 3, 1.05)
        with pytest.raises(StructureError, match="validation"):
            find_tpattern(bad)
