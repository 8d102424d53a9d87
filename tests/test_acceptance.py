"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from moebiusband import bounds
from moebiusband.band import (
    CANONICAL_TRIANGLE,
    build_triangular,
    build_wrinkle,
    transform,
    validate,
)
from moebiusband.geom import DEFAULT_TOL
from moebiusband.tpattern import develop_for, find_tpattern, normalize_pose
from moebiusband.verify import (
    measured_eps,
    prepare,
    verify_corollary,
    verify_eff,
    verify_eff2,
)

from conftest import (
    boundary_loop,
    dense_derivative_anchors,
    dense_hd_grid_certificate,
    dense_sq_grid_certificate,
    random_motion,
    scale_bend,
)

SQRT3 = math.sqrt(3.0)
T0 = 1.0 / SQRT3
EPS_SWEEP = (1e-3, 1e-4, 1e-5)
RATIO_FLOOR = 0.4  # frozen from the generator: hausdorff / sqrt(eps') ~ 0.76


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def sweep_results():
    out = []
    for eps in EPS_SWEEP:
        band = build_wrinkle(eps)
        state = prepare(band, DEFAULT_TOL)
        out.append(
            {
                "eps": eps,
                "band": band,
                "eff": verify_eff(state),
                "eff2": verify_eff2(state),
                "corollary": verify_corollary(state),
            }
        )
    return out


def test_criterion_1_anchor_identities():
    t0 = time.perf_counter()
    assert abs(bounds.h(T0) - SQRT3) < 1e-12
    assert abs(bounds.d(T0) - SQRT3) < 1e-12
    assert abs(bounds.g(1.0) - SQRT3) < 1e-12
    der = bounds.derivative_anchors()
    assert der["h_prime_err"] < 1e-6
    assert der["d_prime_err"] < 1e-6
    # the closed-form slopes agree with central finite differences
    fd = dense_derivative_anchors()
    assert abs(fd["h_prime"] - der["h_prime"]) < 1e-6
    assert abs(fd["d_prime"] - der["d_prime"]) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"anchor identities and derivatives ({elapsed:.3f} s)")


def test_criterion_2_lemma_grids():
    t0 = time.perf_counter()
    # the lemmas in closed form on their whole domains, and sampled on grids
    sq = bounds.sq_grid_certificate()
    assert sq["sq0_nonnegative"]
    assert sq["sq0_zero_only_at_corner"]
    assert sq["sq1_strictly_positive"]
    sq_grid = dense_sq_grid_certificate(100)
    assert sq_grid["grid_points"] == 10_000
    assert sq_grid["sq0_nonnegative"]
    assert sq_grid["sq0_zero_only_at_corner"]
    assert sq_grid["sq1_strictly_positive"]
    cert = bounds.hd_grid_certificate()
    assert cert["min_is_sqrt3"]
    assert cert["crossing_at_t_opt"]
    grid = dense_hd_grid_certificate(1_000_000)
    assert grid["min_above_sqrt3"]
    assert grid["argmin_near_t_opt"]
    assert grid["others_strictly_above"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"square-root and aspect lemmas certified ({elapsed:.2f} s)")


def test_criterion_3_perturbation_sweeps():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240809)
    n = 500

    failures = 0
    for _ in range(n):
        eps = float(rng.uniform(0.001, 0.24))
        tri = bounds.random_perturbed_triangle(rng, eps)
        rep = bounds.offset1_check(tri, eps)
        assert rep.hypotheses_ok
        failures += not rep.passed
    assert failures == 0

    wiggle_failures = graph_failures = 0
    for _ in range(n):
        eps = float(rng.uniform(0.001, 0.1))
        cg = bounds.curve_with_forced_deviation(rng, eps)
        wrep = bounds.wiggle_check(cg, eps)
        assert wrep.hypotheses_ok
        wiggle_failures += not wrep.passed
        graph_failures += not bounds.graph_check(cg).passed
    assert wiggle_failures == 0
    assert graph_failures == 0

    # hypothesis-violating instances are flagged, not asserted
    iso = bounds.PerturbedTriangle(
        np.array([-0.5, 0.0]), np.array([0.5, 0.0]), np.array([0.0, -1.0])
    )
    rep = bounds.offset1_check(iso, 0.01)
    assert not rep.hypotheses_ok and not rep.passed
    line = np.linspace(0.0, 1.0, 100)[:, None] * [2.0, 0.0, 0.0]
    rep = bounds.wiggle_check(bounds.CurveGraphPair(line), 0.01)
    assert not rep.hypotheses_ok and not rep.passed

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"offset1/graph/wiggle sweeps, {n} instances each, 0 failures "
               f"({elapsed:.1f} s)")


def test_criterion_4_triangular_band(loop_hausdorff):
    eta = 1e-4
    band = build_triangular()
    rep = validate(band, DEFAULT_TOL)
    assert rep.passed and rep.max_ruling_residual < 1e-9

    bdry_h = loop_hausdorff(boundary_loop(band), CANONICAL_TRIANGLE, eta)
    assert bdry_h <= 2.0 * eta

    tp = find_tpattern(band)
    assert abs(tp.residual_perp) < 1e-10 and abs(tp.residual_offset) < 1e-10
    trap, _ = develop_for(normalize_pose(band, tp), tp)
    assert abs(trap.t - T0) <= 1e-12

    cor = verify_corollary(prepare(band))
    assert cor.measured["hausdorff"] <= 2.0 * eta
    _report(4, f"triangular band: boundary Hausdorff {bdry_h:.2e} <= 2e-4, "
               f"t = 1/sqrt(3) exactly, surface Hausdorff {cor.measured['hausdorff']:.2e}")


def test_criterion_5_theorem_reproduction(sweep_results):
    t0 = time.perf_counter()
    for rec in sweep_results:
        eps_meas = measured_eps(rec["band"])
        eff, eff2, cor = rec["eff"], rec["eff2"], rec["corollary"]
        assert eff.passed, rec["eps"]
        assert eff.measured["deviation"] < 6.0 * math.sqrt(eps_meas)
        assert eff2.passed, rec["eps"]
        assert eff2.measured["containment_max"] <= 6.0 * math.sqrt(eps_meas)
        assert eff2.measured["winding"] in (-1, 1)
        assert eff2.measured["c_grid_uncovered"] == 0
        assert eff2.measured["triangle_coverage_max"] <= 18.0 * math.sqrt(eps_meas)
        assert cor.passed, rec["eps"]
        assert cor.measured["hausdorff"] < 18.0 * math.sqrt(eps_meas)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, "eff / eff2 / corollary pass for eps in {1e-3, 1e-4, 1e-5} "
               f"(checks {elapsed:.1f} s past fixture)")


def test_criterion_6_sharpness(sweep_results):
    eps = np.array([rec["eps"] for rec in sweep_results])
    hausdorff = np.array([rec["corollary"].measured["hausdorff"] for rec in sweep_results])
    ratios = [rec["corollary"].measured["ratio_to_sqrt_eps"] for rec in sweep_results]
    slope = float(np.polyfit(np.log(eps), np.log(hausdorff), 1)[0])
    assert abs(slope - 0.5) <= 0.1
    assert all(RATIO_FLOOR <= r <= 18.0 for r in ratios)
    _report(6, f"log-log slope {slope:.4f}, ratios "
               + ", ".join(f"{r:.3f}" for r in ratios))


def test_crack_height_oracle(sweep_results):
    # the wrinkle's crack height is 0.5 sin(sqrt(eps)): the door tips, 1/2
    # from their hinges, turn by sqrt(eps).  The measured containment
    # maximum exceeds it by a relative 0.0469 eps^2 at every eps
    for rec in sweep_results:
        crack = 0.5 * math.sin(math.sqrt(rec["eps"]))
        gap = (rec["eff2"].measured["containment_max"] - crack) / crack
        assert 0.046 <= gap / rec["eps"] ** 2 <= 0.048, rec["eps"]


def test_sharpness_slope_oracle(sweep_results):
    # the sharp square-root rate, held as tightly as the benchmark checks it
    eps = np.array([rec["eps"] for rec in sweep_results])
    hausdorff = np.array([rec["corollary"].measured["hausdorff"] for rec in sweep_results])
    assert 0.49 <= float(np.polyfit(np.log(eps), np.log(hausdorff), 1)[0]) <= 0.51


def test_criterion_7_negative_controls(tmp_path):
    band = build_triangular()
    bad = scale_bend(band, 10, 1.01)
    rep = validate(bad, DEFAULT_TOL)
    assert not rep.passed
    assert rep.max_ruling_residual == pytest.approx(0.01, rel=0.3)

    lip = bounds.lip_check(0.9, 0.01)
    assert not lip.passed
    assert abs(0.9 - T0) > 4.0 * 0.01 / 3.0

    cli = [sys.executable, "-m", "moebiusband.cli"]
    good = tmp_path / "tri.json"
    r = subprocess.run(cli + ["build-triangular", "-o", str(good)], capture_output=True)
    assert r.returncode == 0
    r = subprocess.run(cli + ["validate", "--input", str(good)], capture_output=True)
    assert r.returncode == 0
    import json

    data = json.loads(good.read_text())
    data["bends"][5]["space"] = [
        [c * 1.01 for c in p] for p in data["bends"][5]["space"]
    ]
    badfile = tmp_path / "bad.json"
    badfile.write_text(json.dumps(data))
    r = subprocess.run(cli + ["verify", "--input", str(badfile)], capture_output=True)
    assert r.returncode == 1
    r = subprocess.run(cli + ["verify", "--no-such-flag"], capture_output=True)
    assert r.returncode == 2
    _report(7, "defect fails validation, lip check rejects t=0.9, exit codes 0/1/2")


def test_criterion_8_pose_invariance():
    t0 = time.perf_counter()
    band = build_wrinkle(1e-4)
    devs = []
    rng = np.random.default_rng(424242)
    for _ in range(20):
        moved = transform(band, random_motion(rng, scale=1.0))
        devs.append(verify_eff(prepare(moved)).measured["deviation"])
    spread = max(devs) - min(devs)
    assert spread < 1e-8
    elapsed = time.perf_counter() - t0
    _report(8, f"20 rigid motions, deviation spread {spread:.2e} ({elapsed:.1f} s)")
