import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband import bounds, cli
from moebiusband.geom import StructureError

from conftest import (
    dense_derivative_anchors,
    dense_hd_grid_certificate,
    dense_sq_grid_certificate,
    sq_margin_grids,
    sq_margins,
)

SQRT3 = math.sqrt(3.0)
T0 = 1.0 / SQRT3


class TestClosedForms:
    def test_anchor_identities(self):
        assert bounds.h(T0) == pytest.approx(SQRT3, abs=1e-12)
        assert bounds.d(T0) == pytest.approx(SQRT3, abs=1e-12)
        assert bounds.g(1.0) == pytest.approx(SQRT3, abs=1e-12)

    def test_simple_values(self):
        assert bounds.h(0.0) == 1.0
        assert bounds.d(0.0) == pytest.approx(math.sqrt(5.0))
        assert bounds.d(2.0) == pytest.approx(1.0)
        assert bounds.g(0.0) == 1.0
        assert bounds.g(2.0) == 3.0

    @given(st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_g_equals_h_at_crossover(self, y):
        # at the crossover displacement, 1/sqrt(3) for y = 1
        t = y * y / math.sqrt(1.0 + 2.0 * y * y)
        assert bounds.h(t) == pytest.approx(bounds.g(y), abs=1e-12)

    def test_derivative_anchors(self):
        der = bounds.derivative_anchors()
        assert der["h_prime_err"] < 1e-6
        assert der["d_prime_err"] < 1e-6
        assert der["fprime_below_3_4"]
        assert der["max_abs_fprime"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


class TestSquareRootMargins:
    def test_grid_certificate(self):
        cert = bounds.sq_grid_certificate()
        assert cert["sq0_nonnegative"]
        assert cert["sq0_zero_only_at_corner"]
        assert cert["sq1_strictly_positive"]
        assert cert["sq0_min"] == 0.0
        assert cert["sq1_min"] == 4.5 - 3 / math.sqrt(2) - 1 / 16

    @pytest.mark.parametrize("n_side", [100, 1000])
    def test_grid_holds_to_the_closed_form(self, n_side):
        # every grid point's reduced margin is at or above the certificate's
        # least value and has the sign of the unsquared margin there
        cert = bounds.sq_grid_certificate()
        l0, l1, e = sq_margin_grids(n_side)
        reduced0, reduced1 = 3.25 - 2.0 * l0 - e, 4.5 - l1 - e / 4
        assert reduced0.min() >= cert["sq0_min"]
        assert reduced1.min() >= cert["sq1_min"]
        m0, m1 = sq_margins(l0, l1, e)
        assert np.array_equal(np.sign(reduced0), np.sign(m0))
        assert np.array_equal(np.sign(reduced1), np.sign(m1))
        ref = dense_sq_grid_certificate(n_side)
        assert ref["grid_points"] == n_side * n_side
        assert ref["sq0_nonnegative"] and ref["sq0_zero_only_at_corner"]
        assert ref["sq1_strictly_positive"]


class TestDerivativeAnchors:
    def test_grid_holds_to_the_closed_form(self):
        der, ref = bounds.derivative_anchors(), dense_derivative_anchors()
        assert (der["h_prime"], der["d_prime"]) == (1.5, -0.75)
        assert abs(ref["h_prime"] - der["h_prime"]) <= 1e-6
        assert abs(ref["d_prime"] - der["d_prime"]) <= 1e-6
        assert ref["max_abs_fprime"] <= der["max_abs_fprime"]

    def test_rational_sqrt(self):
        assert bounds._rational_sqrt(Fraction(16, 9)) == Fraction(4, 3)
        with pytest.raises(ArithmeticError):
            bounds._rational_sqrt(Fraction(1, 2))


class TestAspectGrid:
    @pytest.mark.parametrize("n", [10_000, 65_537])
    def test_grid_holds_to_the_closed_form(self, n):
        # every grid value is at or above sqrt(3) - 1e-12, and the grid's
        # argmin lies within one step of the closed form's
        cert, ref = bounds.hd_grid_certificate(), dense_hd_grid_certificate(n)
        assert ref["min_value"] >= cert["min_value"] - 1e-12
        assert abs(ref["argmin_t"] - cert["argmin_t"]) <= 1.000001 / (n + 1)

    def test_million_point_grid(self):
        cert = bounds.hd_grid_certificate()
        assert cert["min_is_sqrt3"] and cert["crossing_at_t_opt"]
        assert (cert["min_value"], cert["argmin_t"]) == (SQRT3, T0)
        ref = dense_hd_grid_certificate(1_000_000)
        assert ref["min_above_sqrt3"]
        assert ref["argmin_near_t_opt"]
        assert ref["others_strictly_above"]
        assert ref["h_increasing"]
        assert ref["d_decreasing"]


class TestOffset1:
    def test_worked_example(self):
        # base (+-1/sqrt(3), 0), bottom vertex (0.5, -1), eps = 1/26 so the
        # offset threshold sqrt(13 eps / 2) = 0.5 is met with equality
        tri = bounds.PerturbedTriangle(
            np.array([-T0, 0.0]), np.array([T0, 0.0]), np.array([0.5, -1.0])
        )
        eps = 1.0 / 26.0
        rep = bounds.offset1_check(tri, eps)
        assert rep.hypotheses_ok and rep.passed
        vee = math.hypot(T0 + 0.5, 1.0) + math.hypot(T0 - 0.5, 1.0)
        vee_star = 2.0 * math.hypot(T0, 1.0)
        assert rep.margin == pytest.approx(vee - vee_star - 2.0 * eps, abs=1e-12)

    def test_isosceles_hypothesis_flagged(self):
        tri = bounds.PerturbedTriangle(
            np.array([-0.5, 0.0]), np.array([0.5, 0.0]), np.array([0.0, -1.0])
        )
        rep = bounds.offset1_check(tri, 0.01)
        assert not rep.passed
        assert not rep.hypotheses["delta>=sqrt(13eps/2)"]
        assert rep.hypotheses["vee*<3"]

    def test_sweep_1000(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            eps = float(rng.uniform(0.001, 0.24))
            tri = bounds.random_perturbed_triangle(rng, eps)
            rep = bounds.offset1_check(tri, eps)
            assert rep.hypotheses_ok
            assert rep.margin > 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(StructureError):
            bounds.PerturbedTriangle(
                np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 0.0])
            )


def _inline_unit_speed_curve(rng, length, tilt, n=1200):
    """random_unit_speed_curve as it was written before its fixed
    trigonometric arrays were tabulated."""
    s = (np.arange(n - 1) + 0.5) / (n - 1)
    theta = tilt * rng.uniform(0.7, 1.0) * rng.choice([-1.0, 1.0]) * np.sin(2.0 * math.pi * s)
    phi = np.zeros(n - 1)
    for k in range(2, 5):
        for ang in (theta, phi):
            amp = 0.25 * tilt * rng.normal() / k
            phase = rng.uniform(0.0, 2.0 * math.pi)
            ang += amp * np.sin(math.pi * k * s + phase) * np.sin(math.pi * s)
    tangent = np.stack(
        [np.cos(theta) * np.cos(phi), np.sin(theta) * np.cos(phi), np.sin(phi)],
        axis=1,
    )
    steps = (length / (n - 1)) * tangent
    return np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])


class TestRandomCurve:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("tilt", [0.05, 0.9, 2.6])
    @pytest.mark.parametrize("n", [1200, 40])
    def test_equals_inline_formula(self, seed, tilt, n):
        # The basis product rounds the angles differently from the inline
        # sines, by a few ulps.  Each point sums its steps in the same order,
        # so the points move by a few ulps of the largest coordinate, at
        # most `length`: 2 ulps are seen, and 8 are allowed.  The draws
        # themselves are unchanged.
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in (1.6, 2.85):  # twice, so a second call reuses the basis
            pts = bounds.random_unit_speed_curve(fast, length, tilt, n=n)
            ref = _inline_unit_speed_curve(slow, length, tilt, n=n)
            assert np.abs(pts - ref).max() <= 8 * np.spacing(length)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_basis_is_read_only(self):
        basis = bounds._curve_tables(40)
        assert basis.shape == (7, 39)
        assert not basis.flags.writeable

    def test_random_sign_equals_choice(self):
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        signs = [bounds._random_sign(fast) for _ in range(10_000)]
        assert signs == [slow.choice([-1.0, 1.0]) for _ in range(10_000)]
        assert fast.bit_generator.state == slow.bit_generator.state
        assert {-1.0, 1.0} == set(signs)


# least margins of `bounds-sweep --grid 1000 --report` as the sweep gave them
# when the curve angles were summed from inline sines:
# seed -> (offset1_min, wiggle_min, graph_min)
SWEEP_MARGINS = {
    7: (0.005676073928059022, 0.015439332795505134, 0.005009638325170318),
    1234: (0.00801793540993101, 0.008555327500036736, 0.0028314087574523583),
    12345: (0.009815198784249635, 0.009230304851568505, 0.0030363614479065326),
}
# Every length in the wiggle and graph margins is below the graph cap
# 3 sqrt(2); the curves move by ulps, so the margins may move by 8 ulps of it.
MARGIN_BOUND = 8 * np.spacing(3.0 * math.sqrt(2.0))


class TestCurveSweep:
    @pytest.fixture
    def sweep(self, monkeypatch, tmp_path, capsys):
        """Runs `bounds-sweep --grid 1000 --report` in process and returns its
        stdout, its least margins and the final state of its generator."""
        rngs = []
        forced = bounds.curve_with_forced_deviation

        def recording(rng, eps):
            rngs.append(rng)
            return forced(rng, eps)

        monkeypatch.setattr(bounds, "curve_with_forced_deviation", recording)

        def run(seed):
            rngs.clear()
            report = tmp_path / "sweep.json"
            assert cli.main(["bounds-sweep", "--grid", "1000", "--seed", str(seed),
                             "--report", str(report)]) == 0
            assert len(rngs) == 1000 and all(r is rngs[0] for r in rngs)
            lines = json.loads(report.read_text())["lines"]
            margins = (lines["offset-sweep"]["offset1_min"],
                       lines["curve-sweep"]["wiggle_min"], lines["curve-sweep"]["graph_min"])
            return capsys.readouterr().out, margins, rngs[0].bit_generator.state

        return run

    @pytest.mark.parametrize("seed", sorted(SWEEP_MARGINS))
    def test_pinned_against_inline_curves(self, seed, sweep, monkeypatch):
        out, margins, state = sweep(seed)
        monkeypatch.setattr(bounds, "random_unit_speed_curve", _inline_unit_speed_curve)
        ref_out, ref_margins, ref_state = sweep(seed)
        assert ref_margins == SWEEP_MARGINS[seed]
        # equal states: every attempt was accepted or rejected as before
        assert state == ref_state
        assert out == ref_out and "FAIL" not in out
        assert margins[0] == ref_margins[0]  # the offset sweep draws no curves
        for got, want in zip(margins[1:], ref_margins[1:]):
            assert abs(got - want) <= MARGIN_BOUND


# the speed-residual bound of `random_unit_speed_curve`'s docstring at the
# sweep's n = 1200 points, with u = 2^-53
SPEED_BOUND = (1.5 * (1200 - 1) + 64) * 2.0 ** -53


class TestForcedDeviation:
    """`curve_with_forced_deviation` validates only the curve it accepts."""

    def _attempts(self, monkeypatch, record):
        draw = bounds.random_unit_speed_curve

        def recording(rng, length, tilt, n=1200):
            pts = draw(rng, length, tilt, n)
            record(pts)
            return pts

        monkeypatch.setattr(bounds, "random_unit_speed_curve", recording)

    @pytest.mark.parametrize("grid, seed, attempts", [(1000, 7, 2640), (1000, 1234, 2672),
                                                      (0, 11, 1307)])
    def test_every_attempt_within_the_speed_bound(self, grid, seed, attempts,
                                                  monkeypatch, capsys):
        # the residual as CurveGraphPair reads it, on discarded curves too
        resids = []

        def residual(pts):
            steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            resids.append(float(np.abs(steps / (steps.sum() / (len(pts) - 1)) - 1.0).max()))

        self._attempts(monkeypatch, residual)
        assert cli.main(["bounds-sweep", "--grid", str(grid), "--seed", str(seed)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert len(resids) == attempts
        assert max(resids) < SPEED_BOUND
        assert SPEED_BOUND * 1e4 <= 1e-8  # four decades below the sweep's speed_tol

    @pytest.mark.parametrize("index, value", [(0, math.nan), (600, math.nan), (-1, math.nan),
                                              (600, math.inf), (-1, -math.inf)])
    def test_non_finite_attempt_raises(self, index, value, monkeypatch, capsys):
        # a nan deviation is not read as a rejection: the first attempt raises
        draws = []

        def spoil(pts):
            pts[index, 1] = value
            draws.append(pts)

        self._attempts(monkeypatch, spoil)
        with pytest.raises(StructureError, match="^non-finite curve samples$"):
            bounds.curve_with_forced_deviation(np.random.default_rng(5), 0.01)
        assert len(draws) == 1
        draws.clear()
        assert cli.main(["bounds-sweep", "--grid", "0", "--seed", "5"]) == 2
        assert capsys.readouterr().err == "error: non-finite curve samples\n"
        assert len(draws) == 1


def test_import_builds_no_curve_basis():
    code = ("import moebiusband\n"
            "from moebiusband import bounds\n"
            "print(bounds._curve_tables.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0"


class TestCurveChecks:
    def _tent(self, half=1.0, bump=0.3, n=600):
        up = np.linspace(0.0, 1.0, n)[:, None] * [half, bump, 0.0]
        down = up[-1] + np.linspace(0.0, 1.0, n)[1:, None] * [half, -bump, 0.0]
        return bounds.CurveGraphPair(np.vstack([up, down]))

    def test_straight_curve_tight(self):
        line = np.linspace(0.0, 1.0, 200)[:, None] * [2.0, 0.0, 0.0]
        cg = bounds.CurveGraphPair(line)
        rep = bounds.graph_check(cg)
        assert rep.passed
        assert abs(rep.margin) < 1e-10
        assert abs(rep.details["len_graph"] - rep.details["len_graph_star"]) < 1e-10

    def test_tent_wiggle_margin(self):
        cg = self._tent()
        rep = bounds.wiggle_check(cg, 0.01)
        assert cg.deviation == pytest.approx(0.3, abs=1e-12)
        assert rep.hypotheses_ok and rep.passed
        assert rep.margin == pytest.approx(2.0 * math.sqrt(1.09) - 2.0 - 0.01, abs=1e-9)

    def test_circle_arc_strict(self):
        # planar circular arc of length 2 spanning less than its chord
        n = 2000
        r = 1.5
        phi = np.linspace(0.0, 2.0 / r, n)
        pts = np.stack([r * np.sin(phi), r * (1.0 - np.cos(phi)), np.zeros(n)], axis=1)
        cg = bounds.CurveGraphPair(pts, speed_tol=1e-5)
        rep = bounds.graph_check(cg)
        assert rep.passed
        assert rep.margin > 0.0
        len_g, len_gs = cg.graph_lengths()
        assert len_gs < len_g < 3.0 * math.sqrt(2.0)

    def test_affine_hypothesis_flagged(self):
        line = np.linspace(0.0, 1.0, 100)[:, None] * [2.0, 0.0, 0.0]
        rep = bounds.wiggle_check(bounds.CurveGraphPair(line), 0.01)
        assert not rep.passed
        assert not rep.hypotheses["deviation>=3sqrt(eps)"]

    @pytest.mark.parametrize("seed", [1, 99])
    def test_cached_fields_equal_direct_formulas(self, seed):
        cg = bounds.curve_with_forced_deviation(np.random.default_rng(seed), 0.01)
        s = cg.samples
        d_curve = np.linalg.norm(np.diff(s, axis=0), axis=1)
        n = len(s)
        t = np.linspace(0.0, 1.0, n)[:, None]
        chord = (1.0 - t) * s[0] + t * s[-1]
        assert cg.domain_length == float(d_curve.sum())
        assert cg.chord_length == float(np.linalg.norm(s[-1] - s[0]))
        assert np.array_equal(cg._chord.T, chord)
        assert cg.deviation == float(np.linalg.norm(s - chord, axis=1).max())
        dx = np.full(n - 1, cg.domain_length / (n - 1))
        d_chord = np.linalg.norm(np.diff(chord, axis=0), axis=1)
        assert cg.graph_lengths() == (float(np.sqrt(dx * dx + d_curve * d_curve).sum()),
                                      float(np.sqrt(dx * dx + d_chord * d_chord).sum()))
        assert not cg._chord.flags.writeable

    def test_row_norms_match_linalg_norm(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-8, 8, size=(20_000, 1))
        assert np.array_equal(bounds._norms(v.T.copy()), np.linalg.norm(v, axis=1))

    def test_non_unit_speed_rejected(self):
        pts = np.linspace(0.0, 1.0, 50)[:, None] * [1.0, 0.0, 0.0]
        pts[10] += [0.005, 0.0, 0.0]
        with pytest.raises(StructureError, match="unit speed"):
            bounds.CurveGraphPair(pts)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 3)])
    def test_zero_length_curve_rejected(self, shape):
        # every speed is 0 / 0 here; the residual is nan, which must fail
        # the unit-speed test, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureError, match="unit speed.*nan"):
                bounds.CurveGraphPair(np.zeros(shape))

    def test_sweep_500(self):
        rng = np.random.default_rng(2024)
        graph_failures = wiggle_failures = 0
        for _ in range(500):
            eps = float(rng.uniform(0.001, 0.1))
            cg = bounds.curve_with_forced_deviation(rng, eps)
            if not bounds.wiggle_check(cg, eps).passed:
                wiggle_failures += 1
            if not bounds.graph_check(cg).passed:
                graph_failures += 1
        assert wiggle_failures == 0
        assert graph_failures == 0


class TestNormalizedBandCheckers:
    def test_lip_pass_and_fail(self):
        assert bounds.lip_check(T0, 1e-4).passed
        rep = bounds.lip_check(0.9, 0.01)
        assert not rep.passed
        assert rep.rhs == pytest.approx(abs(0.9 - T0), abs=1e-12)

    def test_length(self):
        assert bounds.length_check(1.1, 2.3).passed
        assert not bounds.length_check(2.3, 1.1).passed
        assert not bounds.length_check(1.0, 3.2).passed

    def test_base(self):
        assert bounds.base_check(math.hypot(1.0, T0), T0, 0.01).passed
        rep = bounds.base_check(math.hypot(1.0, 0.9), 0.9, 0.01)
        assert not rep.passed

    def test_height(self):
        assert bounds.height_check(1.0, 0.01).passed
        assert not bounds.height_check(1.02, 0.01).passed

    def test_offset(self):
        assert bounds.offset_check(0.0, 0.01).passed
        assert not bounds.offset_check(1.0, 0.01).passed

    def test_key_allows_limit_equality(self):
        assert bounds.key_check(4.0 / SQRT3, T0).passed
        assert bounds.key_check(4.0 / SQRT3 + 1e-3, T0).passed
        assert not bounds.key_check(2.0, T0).passed

    def test_endpoints(self):
        exact = {
            "w": [T0, 0.0, 0.0],
            "x": [-T0, 0.0, 0.0],
            "u": [0.0, 0.0, 0.0],
            "v": [0.0, -1.0, 0.0],
        }
        assert bounds.tpattern_endpoint_check(exact, 0.01).passed
        off = dict(exact)
        off["v"] = [0.5, -1.0, 0.0]
        assert not bounds.tpattern_endpoint_check(off, 0.01).passed
