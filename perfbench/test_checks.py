"""Tests of the benchmark's own output checks:
    python3 -m pytest perfbench
Each check accepts a right output and rejects a deliberately wrong one, and
the round runner counts a rejected or crashing job as failed without
stopping the round."""

import math

import checks
import pytest
from workloads import Job, Workload, _report_check, run_round

EPS = 1e-4
CRACK = 0.5 * math.sin(math.sqrt(EPS))


def _band():
    # one bend rising to the crack height above the triangle's interior,
    # one lying in the triangle's plane
    return {"lambda": checks.SQRT3 + 0.433 * EPS,
            "bends": [{"space": [[0.0, -0.5, CRACK], [0.1, -0.2, 0.0]]},
                      {"space": [[0.2, -0.3, 0.0], [-0.1, -0.1, 0.0]]}]}


def _reports(value=CRACK):
    return [
        {"name": "eff", "passed": True, "measured": {"deviation": CRACK}},
        {"name": "eff2", "passed": True,
         "measured": {"containment_max": CRACK, "winding": -1, "c_grid_uncovered": 0}},
        {"name": "corollary", "passed": True,
         "measured": {"hausdorff": value, "band_to_triangle": value}},
    ]


def _tpattern_stdout(t=checks.T_OPT, len_t=checks.LEN_T, perp=1e-16):
    return (f"tpattern b.json: params=(88.000000, 20.000000) len_T={len_t:.9f} len_B=1.000000000\n"
            f"  residuals: perp={perp:.3e} offset=0.000e+00 alternates=3\n"
            f"  unfolded: t={t:.12f} len_H=1.154743839 len_D=2.309444378\n")


SWEEP_OK = ("anchor-identities: pass\nderivative-anchors: pass\naspect-grid: pass\n"
            "sqrt-margins-grid: pass\noffset-sweep[1000]: pass\ncurve-sweep[1000]: pass\n")


def test_endpoint_oracle():
    assert checks.distance_to_solid_triangle((0.0, -0.5, 0.25)) == 0.25
    assert checks.distance_to_solid_triangle((0.0, 0.5, 0.0)) == pytest.approx(0.5)
    assert checks.distance_to_solid_triangle((0.0, -1.5, 0.0)) == pytest.approx(0.5)
    assert checks.endpoint_oracle(_band()) == CRACK


def test_verify_full_accepts_right_reports():
    assert checks.check_verify_full(0, _reports(), _band(), EPS) == []


def test_verify_full_rejects_failed_report():
    reports = _reports()
    reports[1]["passed"] = False
    assert checks.check_verify_full(0, reports, _band(), EPS)


def test_verify_full_rejects_band_to_triangle_off_by_1e6():
    assert checks.check_verify_full(0, _reports(CRACK + 1e-6), _band(), EPS)


def test_verify_full_rejects_bad_triangular_band_and_exit_code():
    assert checks.check_verify_full(0, _reports(0.0), _band(), None) == []
    assert checks.check_verify_full(0, _reports(1e-6), _band(), None)
    assert checks.check_verify_full(1, _reports(), _band(), EPS)


def test_slope():
    eps = [1e-3, 1e-4, 1e-5]
    assert checks.check_slope(eps, [2.0 * math.sqrt(e) for e in eps]) == []
    assert checks.check_slope(eps, [2.0 * e ** 0.52 for e in eps])


def test_tpattern_accepts_optimal_pattern():
    assert checks.check_tpattern(0, _tpattern_stdout()) == []


def test_tpattern_rejects_t_off_by_1e9():
    assert checks.check_tpattern(0, _tpattern_stdout(t=checks.T_OPT + 1e-9))


def test_tpattern_rejects_len_t_residual_and_missing_line():
    assert checks.check_tpattern(0, _tpattern_stdout(len_t=checks.LEN_T + 2e-9))
    assert checks.check_tpattern(0, _tpattern_stdout(perp=2e-8))
    assert checks.check_tpattern(0, "tpattern b.json: params=(0, 0)\n")


def test_eff_and_deviation():
    eff = [{"name": "eff", "passed": True}]
    assert checks.check_eff(0, eff) == []
    assert checks.check_eff(0, [{"name": "eff", "passed": False}])
    assert checks.check_same_deviation(0.005 + 1e-9, 0.005) == []
    assert checks.check_same_deviation(0.005 + 1e-7, 0.005)


def test_bounds_sweep_accepts_pass_and_rejects_fail():
    assert checks.check_bounds_sweep(0, SWEEP_OK, 1000) == []
    assert checks.check_bounds_sweep(0, SWEEP_OK.replace("aspect-grid: pass", "aspect-grid: FAIL"), 1000)
    assert checks.check_bounds_sweep(0, SWEEP_OK.replace("[1000]", "[999]"), 1000)


def _sweep_job():
    return Job(["bounds-sweep"], lambda code, out: (checks.check_bounds_sweep(code, out, 1000), {}))


def test_round_counts_wrong_output_as_failed():
    outputs = iter([SWEEP_OK.replace("curve-sweep[1000]: pass", "curve-sweep[1000]: FAIL"), SWEEP_OK])

    def main(argv):
        print(next(outputs), end="")
        return 0

    outcomes = run_round(main, Workload([_sweep_job(), Job(["other"], _sweep_job().check)]), {})
    assert [bool(o.errors) for o in outcomes] == [True, False]
    assert not outcomes[0].raised


def test_round_survives_crashing_job_and_changed_output():
    calls = []

    def main(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise RuntimeError("boom")
        print(SWEEP_OK if len(calls) == 2 else SWEEP_OK + "extra\n", end="")
        return 0

    workload = Workload([_sweep_job(), _sweep_job()])
    seen = {}
    first = run_round(main, workload, seen)
    assert first[0].raised and first[0].errors and first[1].errors == []
    second = run_round(main, workload, seen)
    assert any("differs" in e for e in second[0].errors)


def test_round_check_errors_attach_to_jobs():
    workload = Workload([_sweep_job()], lambda outcomes: {0: ["round-level failure"]})
    outcomes = run_round(lambda argv: print(SWEEP_OK, end="") or 0, workload, {})
    assert outcomes[0].errors == ["round-level failure"]



def test_report_without_the_measured_value_counts_as_failed(tmp_path):
    report = tmp_path / "report.json"

    def main(argv):
        report.write_text('[{"name": "eff", "passed": true}]')
        return 0

    job = Job(["verify"], _report_check(report, checks.check_eff, "deviation"))
    outcomes = run_round(main, Workload([job]), {})
    assert outcomes[0].errors and not report.exists()
