"""Reference paths for the fixed-cost stages of `verify` and `tpattern`.

Each reference below is the straightforward form of a stage that the
package computes in fewer numpy calls: the per-point `_Chain` filter, the
per-edge `boundary_deviation` with its arc lengths re-summed from the chain
points, and the root scan over the full sign matrix.  The package must give
bitwise the same values.  `TestCliOutputs` swaps every reference in at once
and compares the CLI's stdout, JSON report and CSV summary; a later change
that rewrites a stage for speed can add its old form here as a reference.
"""

import hashlib
import io
from contextlib import redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband import tpattern as tpattern_mod
from moebiusband import verify as verify_mod
from moebiusband.band import build_triangular, build_wrinkle, flip, redevelop, transform, write_json
from moebiusband.cli import main as cli_main
from moebiusband.geom import RigidMotion, StructureError
from moebiusband.tpattern import _DIAGONAL_EXCLUSION
from moebiusband.verify import BoundaryDeviation, boundary_deviation, prepare

# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------


class ReferenceChain:
    """A boundary chain filtered one point at a time: a point is kept where
    its x exceeds the last kept x by more than 1e-13, and a dropped point
    must lie within 1e-7 of the last kept point."""

    def __init__(self, xs, pts):
        keep = [0]
        for i in range(1, len(xs)):
            if xs[i] - xs[keep[-1]] > 1e-13:
                keep.append(i)
            elif np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-7:
                raise StructureError("boundary chain is not a function of x")
        self.xs = xs[keep]
        self.pts = pts[keep]

    def eval(self, x):
        x = np.clip(np.atleast_1d(x), self.xs[0], self.xs[-1])
        j = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        f = (x - self.xs[j]) / (self.xs[j + 1] - self.xs[j])
        return self.pts[j] + f[:, None] * (self.pts[j + 1] - self.pts[j])

    def arc_between(self, x0, x1):
        p0 = self.eval(np.array([x0]))[0]
        p1 = self.eval(np.array([x1]))[0]
        inner = (self.xs > x0 + 1e-13) & (self.xs < x1 - 1e-13)
        chain = np.vstack([p0, self.pts[inner], p1])
        return float(np.linalg.norm(np.diff(chain, axis=0), axis=1).sum())


class ReferenceMap:
    """BoundaryMap with reference chains."""

    def __init__(self, dev):
        bottom, top = dev.boundary_chains()
        self.bottom, self.top = ReferenceChain(*bottom), ReferenceChain(*top)

    def chain_for(self, edge_name):
        return self.bottom if edge_name.startswith("D") else self.top


def reference_boundary_deviation(trap, boundary):
    """The sups edge by edge, three chain evaluations per edge, and the
    images of u and v evaluated on their own."""
    per_edge = {}
    sup_dev = sup_istar = sup_i0_star = 0.0
    for name in verify_mod._BOUNDARY_EDGES:
        e = trap.edge(name)
        chain = boundary.chain_for(name)
        x0, dx = e.start[0], e.end[0] - e.start[0]
        lo, hi = sorted((e.start[0], e.end[0]))
        inner = chain.xs[(chain.xs > lo) & (chain.xs < hi)]
        f = np.concatenate([[0.0], (inner - x0) / dx, [1.0]])
        img0_a, img0_b = verify_mod._I0_EDGE_IMAGES[name]
        i0_pts = img0_a + f[:, None] * (img0_b - img0_a)
        i_pts = chain.eval(x0 + f * dx)
        istar_pts = i_pts[0] + f[:, None] * (i_pts[-1] - i_pts[0])
        dev_edge = float(np.linalg.norm(i0_pts - i_pts, axis=1).max())
        istar_edge = float(np.linalg.norm(i_pts - istar_pts, axis=1).max())
        i0_star_edge = float(np.linalg.norm(i0_pts - istar_pts, axis=1).max())
        arc = chain.arc_between(float(e.start[0]), float(e.end[0]))
        chord = float(np.linalg.norm(i_pts[-1] - i_pts[0]))
        per_edge[name] = {
            "sup_dev": dev_edge,
            "sup_istar": istar_edge,
            "sup_i0_vs_istar": i0_star_edge,
            "flat_length": e.length(),
            "arc_length": arc,
            "chord_length": chord,
            "slack": arc - chord,
        }
        sup_dev = max(sup_dev, dev_edge)
        sup_istar = max(sup_istar, istar_edge)
        sup_i0_star = max(sup_i0_star, i0_star_edge)
    u_image = boundary.chain_for("H1").eval(np.array([trap.u[0]]))[0]
    v_image = boundary.chain_for("D1").eval(np.array([trap.v[0]]))[0]
    return BoundaryDeviation(sup_dev, sup_istar, sup_i0_star, per_edge, u_image, v_image)


def reference_perp_roots(band):
    """The sign changes of the full N x (2N - 1) bracket matrix, masked to
    the window _DIAGONAL_EXCLUSION <= k - a < N - _DIAGONAL_EXCLUSION."""
    n = band.n_bends
    v = band.space[:, 1] - band.space[:, 0]
    g = (v / np.linalg.norm(v, axis=1, keepdims=True)) @ np.concatenate([v, -v]).T
    g0, g1 = g[:, :-1], g[:, 1:]
    step = np.arange(2 * n - 1) - np.arange(n)[:, None]
    window = (step >= _DIAGONAL_EXCLUSION) & (step < n - _DIAGONAL_EXCLUSION)
    a, k = np.nonzero(window & ((g0 == 0.0) | ((g0 < 0.0) != (g1 < 0.0))))
    d0, d1 = g0[a, k], g1[a, k]
    return a, k, k + np.divide(d0, d0 - d1, out=np.zeros_like(d0), where=d0 != 0.0)


# ---------------------------------------------------------------------------
# The bands and their copies
# ---------------------------------------------------------------------------

BANDS = ["tri", "wrinkle3", "wrinkle4", "wrinkle5"]
COPIES = ["unposed", "flipped", "recut", "flipped_recut"]


@pytest.fixture(scope="module")
def bands():
    return {"tri": build_triangular(), "wrinkle3": build_wrinkle(1e-3),
            "wrinkle4": build_wrinkle(1e-4), "wrinkle5": build_wrinkle(1e-5)}


def _copy(band, name, kind, posed):
    """A flipped and/or re-cut copy of the band at a cut fixed per band, in
    a rigid pose (improper for the flipped copies) if `posed`."""
    rng = np.random.default_rng(BANDS.index(name))
    cut = float(rng.uniform(0.0, band.n_bends))
    if "flipped" in kind:
        band = flip(band)
    if "recut" in kind:
        band = redevelop(band, cut)
    if posed:
        motion = RigidMotion.random(rng, scale=1.5)
        if "flipped" in kind:
            motion = RigidMotion(-motion.rotation, motion.translation)
        band = transform(band, motion)
    return band


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


# one step of a chain: an exact repeat of the previous x, a tiny step
# (negative ones included) that the filter drops, or an ordinary step
_STEPS = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-13), st.floats(1e-13, 1e-12),
                   st.floats(1e-3, 0.5))


class TestChain:
    @given(st.lists(_STEPS, min_size=1, max_size=40), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 5e-8, 2e-7]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_point_filter(self, steps, seed, wobble):
        # points move by at most `wobble` where x moves by at most 1e-12, so
        # a dropped point lies within 1e-7 of the kept one or beyond it
        rng = np.random.default_rng(seed)
        xs = np.concatenate([[0.0], np.cumsum(steps)])
        moves = rng.normal(size=(len(steps), 3))
        small = np.abs(steps) <= 1e-12
        moves[small] *= wobble * rng.uniform(size=(int(small.sum()), 1)) / np.linalg.norm(
            moves[small], axis=1, keepdims=True)
        pts = np.vstack([np.zeros(3), np.cumsum(moves, axis=0)])
        try:
            want = ReferenceChain(xs, pts)
        except StructureError as exc:
            with pytest.raises(StructureError, match=str(exc)):
                verify_mod._Chain(xs, pts)
            return
        got = verify_mod._Chain(xs, pts)
        assert _bits(got.xs) == _bits(want.xs)
        assert _bits(got.pts) == _bits(want.pts)
        assert _bits(got.seg) == _bits(np.linalg.norm(np.diff(want.pts, axis=0), axis=1))

    def test_repeat_after_a_tiny_step(self):
        # every point after x = 1 up to x = 2 is dropped against the kept
        # point at 1, the one after a step of 5.5e-13 from its predecessor too
        xs = np.array([0.0, 1.0, 1.0 - 5e-13, 1.0 - 5e-13, 1.0 + 5e-14, 1.0 + 5e-14, 2.0])
        pts = np.outer(xs, [1.0, 2.0, 0.0])
        got, want = verify_mod._Chain(xs, pts), ReferenceChain(xs, pts)
        assert _bits(got.xs) == _bits(want.xs) == _bits(np.array([0.0, 1.0, 2.0]))
        pts[4, 2] = 2e-7
        for chain in (verify_mod._Chain, ReferenceChain):
            with pytest.raises(StructureError, match="not a function of x"):
                chain(xs, pts)


@pytest.mark.parametrize("posed", [False, True])
@pytest.mark.parametrize("kind", COPIES)
@pytest.mark.parametrize("name", BANDS)
class TestStages:
    def test_boundary_deviation(self, bands, name, kind, posed):
        state = prepare(_copy(bands[name], name, kind, posed))
        got = boundary_deviation(state.trapezoid, state.boundary)
        want = reference_boundary_deviation(state.trapezoid, ReferenceMap(state.developed))
        for f in fields(BoundaryDeviation):
            if f.name != "per_edge":
                assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name
        assert list(got.per_edge) == list(want.per_edge)
        for edge, record in want.per_edge.items():
            assert list(got.per_edge[edge]) == list(record)
            for key, value in record.items():
                assert _bits(got.per_edge[edge][key]) == _bits(value), (edge, key)

    def test_perp_roots(self, bands, name, kind, posed):
        band = _copy(bands[name], name, kind, posed)
        got, want = tpattern_mod._perp_roots(band), reference_perp_roots(band)
        assert len(got[0]) > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and _bits(g) == _bits(w)


def cli_digest(path, tmp) -> str:
    """sha256 of the exit codes and outputs of `verify --report --csv` and
    `tpattern` on one band file, run in this process."""
    digest = hashlib.sha256()
    report, summary = tmp / "report.json", tmp / "summary.csv"
    for argv in (["verify", "--input", str(path), "--report", str(report), "--csv", str(summary)],
                 ["tpattern", "--input", str(path)]):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli_main(argv)
        digest.update(f"{code}\n{stdout.getvalue()}".encode())
    digest.update(report.read_bytes() + summary.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", COPIES)
@pytest.mark.parametrize("name", BANDS)
class TestCliOutputs:
    """verify's stdout, report and CSV and tpattern's stdout are
    byte-identical with every reference path swapped in."""

    def test_byte_identical(self, bands, name, kind, tmp_path):
        for posed in (False, True):
            path = tmp_path / f"{posed}.json"
            write_json(_copy(bands[name], name, kind, posed), path)
            got = cli_digest(path, tmp_path)
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(verify_mod, "_Chain", ReferenceChain)
                patched.setattr(verify_mod, "boundary_deviation", reference_boundary_deviation)
                patched.setattr(tpattern_mod, "_perp_roots", reference_perp_roots)
                assert isinstance(prepare(bands[name]).boundary.bottom, ReferenceChain)
                want = cli_digest(path, tmp_path)
            assert got == want, posed
