"""Command-line front end.

Subcommands:
    build-triangular          write the flat-folded optimal band
    build-wrinkle             write a wrinkle band for a given epsilon
    validate                  isometry/foliation validation of a band file
    tpattern                  locate and report the T-pattern of a band
    verify                    run the effective-bound verifiers
    bounds-sweep              closed-form certificates and random property sweeps
    sharpness-sweep           Hausdorff-vs-epsilon table for wrinkle bands

Exit codes: 0 = pass, 1 = verification failure, 2 = structural error or
bad usage.  All randomness sits behind --seed; identical arguments and
seed produce byte-identical CSV output.  The MOEBIUS_TOL environment
variable may hold a JSON object overriding ToleranceConfig fields with
positive finite numbers, e.g. MOEBIUS_TOL='{"isometry": 1e-8}'; every
subcommand exits 2 on any other value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds
from .band import (
    WRINKLE_EPS_MAX,
    WRINKLE_EPS_MIN,
    build_triangular,
    build_wrinkle,
    read_json,
    validate,
    write_json,
)
from .flatmodel import SQRT3
from .geom import DEFAULT_TOL, StructureError, ToleranceConfig
from .tpattern import InvalidBandError, NoTPatternError
from .verify import (
    OutOfScopeError,
    check_scope,
    prepare,
    verify_all,
    verify_corollary,
    verify_eff,
    verify_eff2,
    write_csv_summary,
    write_report_json,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
DEFAULT_SEED = 1234


def _tolerances() -> ToleranceConfig:
    """The tolerances in force: DEFAULT_TOL, overridden by the JSON object in
    MOEBIUS_TOL, each value a positive finite number."""
    tol = DEFAULT_TOL
    env = os.environ.get("MOEBIUS_TOL")
    if env:
        try:
            overrides = json.loads(env)
            if not isinstance(overrides, dict):
                raise ValueError("not a JSON object")
            for key, value in overrides.items():
                try:
                    ok = not isinstance(value, bool) and math.isfinite(value) and value > 0
                except (TypeError, OverflowError):
                    ok = False
                if not ok:
                    raise ValueError(f"{key} must be a positive finite number, "
                                     f"not {json.dumps(value)}")
            # an unknown key fails as an unexpected keyword of the constructor
            merged = vars(tol) | {key: float(v) for key, v in overrides.items()}
            tol = ToleranceConfig(**merged)
        # json refuses nesting deeper than the recursion limit
        except (ValueError, TypeError, RecursionError) as exc:
            raise StructureError(f"bad MOEBIUS_TOL: {exc}") from exc
    return tol


def _cmd_build_triangular(args, tol: ToleranceConfig) -> int:
    band = build_triangular(n_per_fan=args.bends_per_fan)
    write_json(band, args.output)
    print(f"wrote triangular band ({band.n_bends} bends, lambda={band.lam:.12f}) "
          f"to {args.output}")
    return EXIT_PASS


def _cmd_build_wrinkle(args, tol: ToleranceConfig) -> int:
    band = build_wrinkle(args.epsilon)
    write_json(band, args.output)
    excess = band.lam - SQRT3
    print(f"wrote wrinkle band eps={args.epsilon:g} "
          f"(lambda-sqrt3={excess:.6e}, coeff={excess / args.epsilon:.4f}, "
          f"crack height={0.5 * math.sin(math.sqrt(args.epsilon)):.6e}) to {args.output}")
    return EXIT_PASS


def _cmd_validate(args, tol: ToleranceConfig) -> int:
    band = read_json(args.input)
    rep = validate(band, tol)
    print(f"validate {args.input}: pass={rep.passed} "
          f"ruling={rep.max_ruling_residual:.3e} boundary={rep.max_boundary_residual:.3e} "
          f"foliation_violations={rep.foliation_violations}")
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _validation_failed(rep) -> int:
    """Print the residuals of a band that failed validation."""
    print(f"validation failed: ruling={rep.max_ruling_residual:.3e} "
          f"boundary={rep.max_boundary_residual:.3e} "
          f"violations={rep.foliation_violations}")
    return EXIT_FAIL


def _cmd_tpattern(args, tol: ToleranceConfig) -> int:
    band = read_json(args.input)
    try:
        state = prepare(band, tol)
    except InvalidBandError as exc:
        return _validation_failed(exc.report)
    tp, trap = state.pattern, state.trapezoid
    print(f"tpattern {args.input}: params=({tp.param_t:.6f}, {tp.param_b:.6f}) "
          f"len_T={tp.len_t:.9f} len_B={tp.len_b:.9f}")
    print(f"  residuals: perp={tp.residual_perp:.3e} offset={tp.residual_offset:.3e} "
          f"alternates={len(tp.alternates)}")
    print(f"  unfolded: t={trap.t:.12f} len_H={trap.len_h:.9f} len_D={trap.len_d:.9f}")
    return EXIT_PASS


_THEOREMS = ("eff", "eff2", "corollary")   # --theorem X runs verify_X


def _cmd_verify(args, tol: ToleranceConfig) -> int:
    band = read_json(args.input)
    try:
        if args.theorem is None:
            reports = verify_all(band, tol)
        else:
            check_scope(args.theorem, band)
            # looked up at each call, so a replaced module attribute takes effect
            reports = [globals()[f"verify_{args.theorem}"](prepare(band, tol))]
    except InvalidBandError as exc:
        return _validation_failed(exc.report)
    for r in reports:
        keys = ("deviation", "containment_max", "hausdorff")
        shown = {k: f"{v:.6e}" for k, v in r.measured.items() if k in keys}
        print(f"{r.name}: pass={r.passed} eps={r.epsilon:.6e} {shown}")
    if args.report:
        write_report_json(reports, args.report)
    if args.csv:
        write_csv_summary(reports, args.csv)
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_bounds_sweep(args, tol: ToleranceConfig) -> int:
    for name in ("grid", "seed"):
        if getattr(args, name) < 0:
            raise StructureError(f"--{name} must be a non-negative integer, "
                                 f"not {getattr(args, name)}")
    rng = np.random.default_rng(args.seed)
    # (stdout name, passed, least margins for --report)
    lines = []

    anchor_err = {
        "h_err": abs(bounds.h(1.0 / SQRT3) - SQRT3),
        "d_err": abs(bounds.d(1.0 / SQRT3) - SQRT3),
        "g_err": abs(bounds.g(1.0) - SQRT3),
    }
    lines.append(("anchor-identities", all(e < 1e-12 for e in anchor_err.values()),
                  anchor_err))

    deriv = bounds.derivative_anchors()
    lines.append(
        ("derivative-anchors",
         deriv["h_prime_err"] < 1e-6 and deriv["d_prime_err"] < 1e-6
         and deriv["fprime_below_3_4"],
         {k: deriv[k] for k in ("h_prime_err", "d_prime_err", "max_abs_fprime")})
    )

    cert = bounds.hd_grid_certificate()
    lines.append(
        ("aspect-grid", cert["min_is_sqrt3"] and cert["crossing_at_t_opt"],
         {"min_minus_sqrt3": cert["min_value"] - SQRT3, "argmin_t": cert["argmin_t"]})
    )

    sq = bounds.sq_grid_certificate()
    lines.append(("sqrt-margins-grid",
                  sq["sq0_nonnegative"] and sq["sq0_zero_only_at_corner"]
                  and sq["sq1_strictly_positive"],
                  {"sq0_min": sq["sq0_min"], "sq1_min": sq["sq1_min"]}))

    draws = max(args.grid, 500)
    ok = 0
    least_offset1 = math.inf
    for _ in range(draws):
        eps = bounds._uniform(rng, 0.001, 0.24)
        tri = bounds.random_perturbed_triangle(rng, eps)
        r = bounds.offset1_check(tri, eps)
        ok += r.hypotheses_ok and r.passed
        least_offset1 = min(least_offset1, r.margin)
    lines.append((f"offset-sweep[{draws}]", ok == draws, {"offset1_min": least_offset1}))

    ok = 0
    least_wiggle = least_graph = math.inf
    for _ in range(draws):
        eps = bounds._uniform(rng, 0.001, 0.1)
        cg = bounds.curve_with_forced_deviation(rng, eps)
        wiggle, graph = bounds.wiggle_check(cg, eps), bounds.graph_check(cg)
        ok += wiggle.passed and graph.passed
        least_wiggle = min(least_wiggle, wiggle.margin)
        least_graph = min(least_graph, graph.margin)
    lines.append((f"curve-sweep[{draws}]", ok == draws,
                  {"wiggle_min": least_wiggle, "graph_min": least_graph}))

    for name, passed, _ in lines:
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    if args.report:
        report = {"grid": args.grid, "seed": args.seed,
                  "lines": {name.split("[")[0]: {"passed": passed, **margins}
                            for name, passed, margins in lines}}
        # one write: json.dump with an indent writes each of its chunks apart
        with open(args.report, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    return EXIT_PASS if all(passed for _, passed, _ in lines) else EXIT_FAIL


def _cmd_sharpness_sweep(args, tol: ToleranceConfig) -> int:
    try:
        eps_list = sorted(float(e) for e in args.epsilons.split(","))
    except ValueError as exc:
        raise StructureError(f"epsilons must be a comma-separated list of numbers: {exc}") from exc
    if any(not (WRINKLE_EPS_MIN <= e <= WRINKLE_EPS_MAX) for e in eps_list):
        raise StructureError(f"epsilons must lie in [{WRINKLE_EPS_MIN:g}, {WRINKLE_EPS_MAX:g}]")
    rows = []
    for eps in eps_list:
        band = build_wrinkle(eps)
        check_scope("corollary", band)
        rep = verify_corollary(prepare(band, tol))
        rows.append((eps, band.lam, rep.measured["hausdorff"],
                     rep.measured["ratio_to_sqrt_eps"], rep.passed))
    out = args.output
    lines = ["epsilon,lambda,hausdorff,ratio_to_sqrt_eps"]
    for eps, lam, hd, ratio, _ in rows:
        lines.append(f"{eps:.17g},{lam:.17g},{hd:.17g},{ratio:.17g}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # a line through one distinct epsilon has no slope
    if len(set(eps_list)) >= 2:
        le = np.log([r[0] for r in rows])
        lh = np.log([r[2] for r in rows])
        slope = float(np.polyfit(le, lh, 1)[0])
        print(f"# log-log slope: {slope:.4f}", file=sys.stderr)
    return EXIT_PASS if all(r[4] for r in rows) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebius-band",
        description="Build, validate and verify discrete paper Moebius bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-triangular", help="write the flat-folded optimal band")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--bends-per-fan", type=int, default=48)
    p.set_defaults(func=_cmd_build_triangular)

    p = sub.add_parser("build-wrinkle", help="write a wrinkle band")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_wrinkle)

    p = sub.add_parser("validate", help="validate a band file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tpattern", help="locate the T-pattern of a band")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_tpattern)

    p = sub.add_parser("verify", help="run the effective-bound verifiers")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", choices=_THEOREMS, default=None)
    p.add_argument("--report", default=None, help="write a JSON report")
    p.add_argument("--csv", default=None, help="write a CSV summary")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds-sweep", help="closed-form certificates and property sweeps")
    p.add_argument("--grid", type=int, default=1000,
                   help="the offset and curve sweeps draw max(GRID, 500) instances each")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--report", default=None,
                   help="write the least margin of each line as JSON")
    p.set_defaults(func=_cmd_bounds_sweep)

    p = sub.add_parser("sharpness-sweep", help="Hausdorff-vs-epsilon table")
    p.add_argument("--epsilons", required=True, help="comma-separated list")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sharpness_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` in a process.  Each
    parse starts from a fresh namespace, so no argument carries over."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args, _tolerances())
    except NoTPatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OutOfScopeError, StructureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
