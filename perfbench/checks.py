"""Output checks for the benchmark's jobs.

Every check compares a program output with a computation made here, apart
from the program, or with a property the method must have.  None compares
with a stored copy of earlier output.  Each returns a list of error
strings; an empty list means the output passed.

Only the standard library is used, so that the benchmark's own import of
this module adds nothing to the program's measured import.
"""

from __future__ import annotations

import json
import math
import re

SQRT3 = math.sqrt(3.0)
T_OPT = 1.0 / SQRT3          # cut displacement of the optimal band
LEN_T = 2.0 / SQRT3          # length of the T bend
# canonical triangle, lying in the plane z = 0
TRIANGLE = ((-T_OPT, 0.0), (T_OPT, 0.0), (0.0, -1.0))

ORACLE_REL = 1e-12           # endpoint oracle against containment / band_to_triangle
CRACK_REL = 1e-6             # crack height 0.5*sin(sqrt(eps)), a loose oracle only
SLOPE = (0.49, 0.51)         # log-log slope of hausdorff against eps
TRI_HAUSDORFF = 1e-9         # the triangular band is the triangle itself
T_ABS = 1e-12
LEN_T_ABS = 1e-9
RESIDUAL_ABS = 1e-8
DEVIATION_ABS = 1e-8         # eff deviation of a posed copy against the unposed band


def _segment_distance_2d(p, a, b) -> float:
    ax, ay = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    t = min(1.0, max(0.0, (px * ax + py * ay) / (ax * ax + ay * ay)))
    return math.hypot(px - t * ax, py - t * ay)


def distance_to_solid_triangle(p) -> float:
    """Euclidean distance from a 3D point to the solid canonical triangle."""
    x, y, z = p
    signs = []
    for i in range(3):
        (ax, ay), (bx, by) = TRIANGLE[i], TRIANGLE[(i + 1) % 3]
        signs.append((bx - ax) * (y - ay) - (by - ay) * (x - ax))
    inside = all(s >= 0.0 for s in signs) or all(s <= 0.0 for s in signs)
    planar = 0.0 if inside else min(
        _segment_distance_2d((x, y), TRIANGLE[i], TRIANGLE[(i + 1) % 3]) for i in range(3)
    )
    return math.hypot(planar, z)


def endpoint_oracle(band: dict) -> float:
    """Largest distance from a bend endpoint of a band file to the solid
    triangle.  Distance to a convex set is convex, so over each ruled patch
    its maximum sits at a vertex: this is the exact band-to-triangle
    distance of the piecewise-linear band."""
    return max(distance_to_solid_triangle(p) for bend in band["bends"] for p in bend["space"])


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def read_report(path) -> list:
    with open(path) as fh:
        return json.load(fh)


def check_verify_full(code, reports, band: dict, epsilon: float | None) -> list[str]:
    """`verify --report` with all three theorems on one band.

    `epsilon` is the wrinkle parameter the band was built with, or None for
    the triangular band.
    """
    if code != 0:
        return [f"exit code {code}"]
    by_name = {r.get("name"): r for r in reports}
    errors = [f"{r.get('name')}: passed is not true" for r in reports if r.get("passed") is not True]
    if sorted(by_name) != ["corollary", "eff", "eff2"]:
        return errors + [f"reports {sorted(by_name)}, expected eff, eff2, corollary"]
    eff2 = by_name["eff2"]["measured"]
    cor = by_name["corollary"]["measured"]
    if eff2.get("winding") not in (-1, 1):
        errors.append(f"winding {eff2.get('winding')}")
    if eff2.get("c_grid_uncovered") != 0:
        errors.append(f"c_grid_uncovered {eff2.get('c_grid_uncovered')}")
    hd, b2t = cor["hausdorff"], cor["band_to_triangle"]
    if epsilon is None:
        if not hd <= TRI_HAUSDORFF:
            errors.append(f"triangular band hausdorff {hd!r} > {TRI_HAUSDORFF}")
        return errors
    oracle = endpoint_oracle(band)
    crack = 0.5 * math.sin(math.sqrt(epsilon))
    for label, value in (("containment_max", eff2["containment_max"]), ("band_to_triangle", b2t)):
        if not _rel_close(value, oracle, ORACLE_REL):
            errors.append(f"{label} {value!r} != endpoint oracle {oracle!r}")
        if not _rel_close(value, crack, CRACK_REL):
            errors.append(f"{label} {value!r} != crack height {crack!r}")
    bound = 18.0 * math.sqrt(band["lambda"] - SQRT3)
    if not b2t <= hd < bound:
        errors.append(f"hausdorff {hd!r} outside [band_to_triangle {b2t!r}, 18 sqrt(eps) {bound!r})")
    return errors


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def check_slope(eps, hausdorff) -> list[str]:
    """The paper's sharp square-root rate across the wrinkle family."""
    slope = loglog_slope(eps, hausdorff)
    if not SLOPE[0] <= slope <= SLOPE[1]:
        return [f"log-log slope {slope:.4f} outside {SLOPE}"]
    return []


_TPATTERN_FIELDS = {
    "len_t": r"len_T=(\S+)",
    "perp": r"perp=(\S+)",
    "offset": r"offset=(\S+)",
    "t": r"unfolded: t=(\S+)",
}


def check_tpattern(code, stdout: str) -> list[str]:
    """`tpattern` on any pose or re-development of a band of the family:
    the optimal T-pattern is found with t = 1/sqrt(3) and |T| = 2/sqrt(3)."""
    if code != 0:
        return [f"exit code {code}"]
    values = {}
    for key, pattern in _TPATTERN_FIELDS.items():
        m = re.search(pattern, stdout)
        if m is None:
            return [f"no {key} in tpattern output"]
        values[key] = float(m.group(1))
    errors = []
    if not abs(values["t"] - T_OPT) <= T_ABS:
        errors.append(f"t {values['t']!r} != 1/sqrt(3)")
    if not abs(values["len_t"] - LEN_T) <= LEN_T_ABS:
        errors.append(f"len_T {values['len_t']!r} != 2/sqrt(3)")
    for key in ("perp", "offset"):
        if not abs(values[key]) <= RESIDUAL_ABS:
            errors.append(f"{key} residual {values[key]!r} > {RESIDUAL_ABS}")
    return errors


def check_eff(code, reports) -> list[str]:
    """`verify --theorem eff --report`: one passing eff report."""
    if code != 0:
        return [f"exit code {code}"]
    if [r.get("name") for r in reports] != ["eff"]:
        return [f"reports {[r.get('name') for r in reports]}, expected eff"]
    if reports[0].get("passed") is not True:
        return ["eff: passed is not true"]
    return []


def check_same_deviation(deviation: float, reference: float) -> list[str]:
    """eff deviation of a posed copy equals that of the unposed band."""
    if not abs(deviation - reference) <= DEVIATION_ABS:
        return [f"eff deviation {deviation!r} != unposed {reference!r}"]
    return []


def check_bounds_sweep(code, stdout: str, grid: int) -> list[str]:
    """`bounds-sweep`: every line passes and the sweeps drew max(grid, 500)."""
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    errors = [f"line {line!r}" for line in lines if not line.endswith(": pass")]
    draws = max(grid, 500)
    for sweep in ("offset-sweep", "curve-sweep"):
        if not any(line.startswith(f"{sweep}[{draws}]:") for line in lines):
            errors.append(f"no {sweep}[{draws}] line")
    if len(lines) != 6:
        errors.append(f"{len(lines)} lines, expected 6")
    return errors
