"""Digest every output of the command-line program, to compare two versions
of the package byte for byte.

The script runs `moebiusband.cli.main` in process on the triangular band,
the wrinkle bands at eps 1e-3, 1e-4 and 1e-5, and flipped, re-cut and posed
copies of them (fixed cuts, one inside the wrap patch, fixed seeds), and
copies cut beside a bend of a T-pattern, whose cut leaf ties that bend.  It
runs `build-triangular`, `build-wrinkle` (also at the ends of its range,
1e-8 and 1e-2), `validate`, `tpattern`, `verify` (all theorems and each
`--theorem`, with `--report` and `--csv`), `bounds-sweep --seed 7 --report`
at `--grid 100` (500 draws per sweep) and at the benchmark's `--grid 1000`,
and `sharpness-sweep`.  The same `validate`, `tpattern` and
`verify` commands run on three bands that reach paths the others do not:
the triangular band with bend 5's top end moved 1e-6 in y, which fails
validation; the triangular band cut at 1e-6 with the cut leaf's fan vertex
interpolated too, whose triangle-to-band distance comes from the boundary
loop; and the wrinkle band at 1e-2, outside the corollary's scope.  It
also runs `validate`, `tpattern` and `verify` on each malformed band file
of `tests/test_cli.py::MALFORMED_BANDS`, made from the triangular band and
named `malformed-<case>.json`, so a changed error message shows.  It
prints one line per stdout and stderr and per file a command wrote,

    <sha256> <stream or file> <exit code> <command line>

and one per band copy it wrote itself, `<sha256> file=<name>`.  Where a
command raises instead of returning, the exit code is the exception's
name and the streams hold what it wrote before.  The first line names the
numpy and Python versions, since the digests depend on numpy's rounding.
They also depend on the BLAS kernel that numpy's OpenBLAS picks for the
CPU, which the first line does not name: np.linalg.norm of a single vector
and the 1-D `@` products are BLAS dot products, and the Haswell kernel
fuses their multiply-adds (the norm of (x, y) is sqrt(fma(y, y, x * x)),
which differs from math.sqrt(x * x + y * y) in the last bit for about 8%
of random 2-vectors).  So `PerturbedTriangle`'s `vee`, and with it the
`offset1_min` of `bounds-sweep`, can round differently on a CPU whose
kernel does not fuse them, with the same numpy and Python.

`output_digest.txt` beside this script is the listing of the committed
package, and `tests/test_output_digest.py` compares the current outputs
with it.  After a deliberate output change, regenerate it with

    PYTHONPATH=src python tools/output_digest.py > tools/output_digest.txt

The malformed cases are read from the `tests` directory beside this
script, so to compare two versions of the package on the same cases, run
one copy of it with each version's `src` first on the path:

    PYTHONPATH=src python tools/output_digest.py > digest.txt
    PYTHONPATH=../parent/src python tools/output_digest.py > parent-digest.txt
    diff parent-digest.txt digest.txt

Every file goes to a fresh temporary directory and is named relative to it,
so no path enters a digest.  MOEBIUS_TOL is ignored: the default tolerances
are in force.
"""

import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from moebiusband import cli
from moebiusband.band import RuledBand, flip, read_json, redevelop, transform, write_json
from moebiusband.geom import RigidMotion

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from test_cli import MALFORMED_BANDS

WRINKLE_EPS = ("1e-3", "1e-4", "1e-5")
# built only, for build-wrinkle's printed line at the ends of its range
WRINKLE_EPS_ENDS = ("1e-8", "1e-2")
# re-cut at these fractions of the bend count; 0.999 cuts inside the wrap
# patch between the last bend and the glued copy of bend 0
CUTS = (0.3, 0.7, 0.999)
# cuts beside a pattern bend: these fractions of the bend count lie beside
# bend 0, the T bend of the triangular band, and the cut 20 + 1e-9 lies
# beside bend 20, the B bend of the wrinkle bands
NEAR_CUTS = (1e-12, 5e-10)
WRINKLE_B_CUT = 20 + 1e-9
POSES = ((1, True), (2, False), (3, True))   # (seed, proper)
THEOREMS = (None, "eff", "eff2", "corollary")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_line(name: str, tail: str = "") -> None:
    """Print the digest of a file, or dashes where it was not written."""
    if not os.path.exists(name):
        print(f"{'-' * 64} file={name}{tail}")
        return
    with open(name, "rb") as fh:
        print(f"{_sha(fh.read())} file={name}{tail}")


def _run(argv: list, files: tuple = ()) -> None:
    """Run one command and print the digests of its streams and files."""
    for name in files:
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = type(exc).__name__
    line = " ".join(argv)
    print(f"{_sha(out.getvalue().encode())} stdout exit={code} {line}")
    print(f"{_sha(err.getvalue().encode())} stderr exit={code} {line}")
    for name in files:
        _file_line(name, f" exit={code} {line}")


def _motion(seed: int, proper: bool) -> RigidMotion:
    """A random rotation, proper or improper, and translation."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) > 0) != proper:
        q[:, 0] = -q[:, 0]
    return RigidMotion(q, rng.uniform(-2.0, 2.0, size=3))


def _copies(name: str) -> list:
    """Write the flipped, re-cut and posed copies of a band file."""
    band = read_json(f"{name}.json")
    copies = {f"{name}-flip": flip(band)}
    for c in CUTS:
        copies[f"{name}-cut{c}"] = redevelop(band, c * band.n_bends)
        copies[f"{name}-flip-cut{c}"] = redevelop(flip(band), c * band.n_bends)
    for c in NEAR_CUTS:
        copies[f"{name}-cut{c:g}"] = redevelop(band, c * band.n_bends)
    if name.startswith("w"):
        copies[f"{name}-cut{WRINKLE_B_CUT!r}"] = redevelop(band, WRINKLE_B_CUT)
    for seed, proper in POSES:
        moved = transform(redevelop(band, CUTS[0] * band.n_bends), _motion(seed, proper))
        copies[f"{name}-cut{CUTS[0]}-pose{seed}{'' if proper else '-improper'}"] = moved
    for copy, moved in copies.items():
        write_json(moved, f"{copy}.json")
        _file_line(f"{copy}.json")
    return list(copies)


def _edge_cases() -> list:
    """Write the triangular band with bend 5's top end moved 1e-6 in y, which
    fails validation, and the band cut at 1e-6 with the cut leaf's fan
    vertex interpolated too, whose triangle-to-band distance comes from the
    boundary loop.  Return their names and the wrinkle band at 1e-2's,
    outside the corollary's scope."""
    tri = read_json("tri.json")
    space = tri.space.copy()
    space[5, 1, 1] += 1e-6
    copies = {"tri-bend5-top-y1e-6": RuledBand(tri.lam, tri.flat, space)}
    cut = redevelop(tri, 1e-6)
    space = cut.space.copy()
    space[0] = (1.0 - 1e-6) * tri.space[0] + 1e-6 * tri.space[1]
    copies["tri-cut1e-6-chord"] = RuledBand(cut.lam, cut.flat, space)
    for copy, band in copies.items():
        write_json(band, f"{copy}.json")
        _file_line(f"{copy}.json")
    return list(copies) + ["w1e-2"]


def header() -> str:
    """The listing's first line: the versions its digests were made with."""
    return f"# numpy {np.__version__}, Python {platform.python_version()}"


def main() -> None:
    os.environ.pop("MOEBIUS_TOL", None)
    print(header())
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            names = ["tri"] + [f"w{eps}" for eps in WRINKLE_EPS]
            _run(["build-triangular", "-o", "tri.json"], ("tri.json",))
            for eps in WRINKLE_EPS + WRINKLE_EPS_ENDS:
                _run(["build-wrinkle", "--epsilon", eps, "-o", f"w{eps}.json"],
                     (f"w{eps}.json",))
            for name in list(names):
                names += _copies(name)
            for name in names + _edge_cases():
                path = f"{name}.json"
                _run(["validate", "--input", path])
                _run(["tpattern", "--input", path])
                for theorem in THEOREMS:
                    argv = ["verify", "--input", path, "--report", "report.json",
                            "--csv", "summary.csv"]
                    _run(argv + (["--theorem", theorem] if theorem else []),
                         ("report.json", "summary.csv"))
            for case in sorted(MALFORMED_BANDS):
                with open("tri.json") as fh:
                    text = MALFORMED_BANDS[case](json.load(fh))
                with open(f"malformed-{case}.json", "w") as fh:
                    fh.write(text)
                for command in ("validate", "tpattern", "verify"):
                    _run([command, "--input", f"malformed-{case}.json"])
            for grid in ("100", "1000"):
                _run(["bounds-sweep", "--grid", grid, "--seed", "7", "--report", "sweep.json"],
                     ("sweep.json",))
            _run(["sharpness-sweep", "--epsilons", ",".join(WRINKLE_EPS)])
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
