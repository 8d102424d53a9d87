"""Reference paths for the fixed-cost stages of `verify`, `tpattern` and
the curve sweep of `bounds`.

Each reference below is the straightforward form of a stage that the
package computes in fewer numpy calls: the per-point `_Chain` filter, the
per-edge `boundary_deviation` with its arc lengths re-summed from the chain
points, the root scan over the full sign matrix, and the random curves and
their chord comparisons on (n, 3) point arrays.  The package must give
bitwise the same values and leave the random generator in the same state.
`TestCliOutputs` and `TestSweepOutputs` swap every reference in at once and
compare the CLI's outputs; a later change that rewrites a stage for speed
can add its old form here as a reference.
"""

import hashlib
import io
import math
from contextlib import redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband import bounds
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


def reference_unit_speed_curve(rng, length, tilt, n=1200):
    """random_unit_speed_curve on an (n, 3) array: the steps are the rows of
    a stacked tangent, summed down each column."""
    coeffs = np.zeros((2, 7))
    coeffs[0, 0] = tilt * rng.uniform(0.7, 1.0) * rng.choice([-1.0, 1.0])
    for k in range(2, 5):
        for row in coeffs:
            amp = 0.25 * tilt * rng.normal() / k
            phase = rng.uniform(0.0, 2.0 * math.pi)
            row[2 * k - 3] = amp * math.cos(phase)
            row[2 * k - 2] = amp * math.sin(phase)
    angles = np.einsum("ij,jk->ik", coeffs, bounds._curve_tables(n))
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    tangent = np.stack([cos_a[0] * cos_a[1], sin_a[0] * cos_a[1], sin_a[1]], axis=1)
    steps = (length / (n - 1)) * tangent
    pts = np.zeros((n, 3))
    np.cumsum(steps, axis=0, out=pts[1:])
    return pts


class ReferenceCurveGraphPair(bounds.CurveGraphPair):
    """CurveGraphPair on the (n, 3) samples: np.linalg.norm over the rows,
    the chord map from its formula, and |speed - 1| at every step."""

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 2 or s.shape[1] != 3:
            raise StructureError("need (n, 3) curve samples with n >= 2")
        if not np.isfinite(s).all():
            raise StructureError("non-finite curve samples")
        object.__setattr__(self, "samples", s)
        steps = np.linalg.norm(np.diff(s, axis=0), axis=1)
        length = float(steps.sum())
        resid = np.abs(steps / (length / (len(s) - 1)) - 1.0).max()
        if not resid <= self.speed_tol:
            raise StructureError(f"samples are not unit speed (max |speed-1| = {resid:.3e})")
        t = np.linspace(0.0, 1.0, len(s))[:, None]
        chord = (1.0 - t) * s[0] + t * s[-1]
        object.__setattr__(self, "domain_length", length)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_chord", chord)
        object.__setattr__(self, "_chord_length", float(np.linalg.norm(s[-1] - s[0])))
        object.__setattr__(self, "_deviation", float(np.linalg.norm(s - chord, axis=1).max()))

    def chord_samples(self):
        return self._chord

    def graph_lengths(self):
        dx = np.full(self.n - 1, self.domain_length / (self.n - 1))
        d_chord = np.linalg.norm(np.diff(self._chord, axis=0), axis=1)
        return (float(np.sqrt(dx * dx + self._steps * self._steps).sum()),
                float(np.sqrt(dx * dx + d_chord * d_chord).sum()))


def reference_uniform(rng, low, high):
    return rng.uniform(low, high)


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


# ---------------------------------------------------------------------------
# The curve sweep of `bounds`
# ---------------------------------------------------------------------------


def _pair_fields(cg):
    return {"samples": cg.samples, "steps": cg._steps, "chord": cg.chord_samples(),
            "sup_deviation": cg.sup_deviation(), "domain_length": cg.domain_length,
            "chord_length": cg.chord_length(), "graph_lengths": cg.graph_lengths()}


class TestCurvePath:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("tilt", [0.05, 0.9, 2.6])
    @pytest.mark.parametrize("n", [1200, 40, 2])
    def test_curve_and_pair(self, seed, tilt, n):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in (1.6, 2.85):
            got = bounds.random_unit_speed_curve(fast, length, tilt, n=n)
            want = reference_unit_speed_curve(slow, length, tilt, n=n)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert got.shape == want.shape == (n, 3) and got.T.flags.c_contiguous
            assert _bits(got) == _bits(want)
            got_fields = _pair_fields(bounds.CurveGraphPair(got, speed_tol=1e-8))
            want_fields = _pair_fields(ReferenceCurveGraphPair(want, speed_tol=1e-8))
            for key, value in want_fields.items():
                assert _bits(got_fields[key]) == _bits(value), key

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.floats(-16.0, -1.0))
    @settings(max_examples=200, deadline=None)
    def test_speed_residual(self, seed, n, log_noise):
        # the residual is the reference's bitwise: the pair accepts a
        # tolerance equal to it and rejects the next float below
        rng = np.random.default_rng(seed)
        pts = bounds.random_unit_speed_curve(rng, 2.0, 0.9, n=n)
        pts = pts + 10.0 ** log_noise * rng.normal(size=pts.shape)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        resid = float(np.abs(steps / (steps.sum() / (n - 1)) - 1.0).max())
        assert bounds.CurveGraphPair(pts, speed_tol=resid).domain_length == float(steps.sum())
        with pytest.raises(StructureError, match="not unit speed"):
            bounds.CurveGraphPair(pts, speed_tol=float(np.nextafter(resid, -1.0)))


# every range the curve sweep draws from: the first angle's swing, the
# phases, and the domain lengths (lo, 2.85) with lo = max(1.6, 8.1 sqrt(eps))
# for eps up to 0.1
@pytest.mark.parametrize("low, high", [(0.7, 1.0), (0.0, 2.0 * math.pi), (1.6, 2.85),
                                       (8.1 * math.sqrt(0.05), 2.85),
                                       (8.1 * math.sqrt(0.1), 2.85)])
def test_uniform_equals_rng_uniform(low, high):
    fast, slow = np.random.default_rng(17), np.random.default_rng(17)
    got = [bounds._uniform(fast, low, high) for _ in range(10_000)]
    want = [slow.uniform(low, high) for _ in range(10_000)]
    assert _bits(got) == _bits(want)
    assert fast.bit_generator.state == slow.bit_generator.state


class TestSweepOutputs:
    """bounds-sweep's stdout and report are byte-identical with the curve
    references swapped in."""

    @pytest.mark.parametrize("argv", [["--grid", "1000", "--seed", "7"],
                                      ["--grid", "10", "--seed", "3"]])
    def test_byte_identical(self, argv, tmp_path):
        def run():
            report = tmp_path / "sweep.json"
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli_main(["bounds-sweep", *argv, "--report", str(report)])
            return code, stdout.getvalue(), report.read_bytes()

        got = run()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(bounds, "random_unit_speed_curve", reference_unit_speed_curve)
            patched.setattr(bounds, "CurveGraphPair", ReferenceCurveGraphPair)
            patched.setattr(bounds, "_uniform", reference_uniform)
            want = run()
        assert got == want and got[0] == 0
