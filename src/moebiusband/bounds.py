"""Closed-form bound functions and margin checkers.

Every checker evaluates both sides of one inequality, flags its
hypotheses instead of assuming them, and returns a MarginReport; property
sweeps can therefore probe boundary behavior without tripping assertions.

Core closed forms (t is the cut displacement of the trapezoid
normalization, y a triangle height):

    h(t) = sqrt(1 + t^2) + t        increasing; aspect lower bound for
    d(t) = sqrt(5 + t^2) - t        decreasing;  t above/below 1/sqrt(3)
    g(y) = sqrt(1 + 2 y^2)          aspect lower bound through the height
    t_y(y) = +- y^2 / sqrt(1 + 2 y^2)   the crossover displacement

h(1/sqrt(3)) = d(1/sqrt(3)) = sqrt(3) and g(1) = sqrt(3), which pins the
flat-folded triangle as the unique optimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .flatmodel import SQRT3, T_OPT
from .geom import StructureError

_EQ_SLOP = 1e-12  # slop for inequalities that close non-strictly in the limit


@dataclass(frozen=True)
class MarginReport:
    """Evaluation of one inequality: lhs >= rhs (+ margin = lhs - rhs)."""

    name: str
    hypotheses: dict
    lhs: float
    rhs: float
    margin: float
    passed: bool
    details: dict = field(default_factory=dict, compare=False)

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())


def _report(name, hypotheses, lhs, rhs, allow_equality=False, details=None) -> MarginReport:
    margin = lhs - rhs
    ok = all(hypotheses.values())
    passed = ok and (margin >= -_EQ_SLOP if allow_equality else margin > 0.0)
    return MarginReport(name, dict(hypotheses), float(lhs), float(rhs),
                        float(margin), bool(passed), details or {})


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def h(t: float) -> float:
    return math.sqrt(1.0 + t * t) + t


def d(t: float) -> float:
    return math.sqrt(5.0 + t * t) - t


def g(y: float) -> float:
    return math.sqrt(1.0 + 2.0 * y * y)


def t_y(y: float, sign: int = +1) -> float:
    if y <= 0.0:
        raise StructureError("t_y needs y > 0")
    return float(sign) * y * y / math.sqrt(1.0 + 2.0 * y * y)


# ---------------------------------------------------------------------------
# Square-root margins
# ---------------------------------------------------------------------------


def sq0_margin(big_l: float, eps: float) -> MarginReport:
    """sqrt(L^2 + (13/4) eps) > L + eps, for L < 3/2 and 0 < eps < 1/4."""
    hyp = {"L<3/2": big_l < 1.5, "0<eps<1/4": 0.0 < eps < 0.25}
    return _report("sq0", hyp, math.sqrt(big_l * big_l + 3.25 * eps), big_l + eps)


def sq1_margin(big_l: float, eps: float) -> MarginReport:
    """sqrt(L^2 + (9/2) eps) > L + eps/2, for L < 3/sqrt(2), 0 < eps < 1/4."""
    hyp = {"L<3/sqrt2": big_l < 3.0 / math.sqrt(2.0), "0<eps<1/4": 0.0 < eps < 0.25}
    return _report("sq1", hyp, math.sqrt(big_l * big_l + 4.5 * eps), big_l + 0.5 * eps)


# ---------------------------------------------------------------------------
# Perturbed isosceles triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbedTriangle:
    """Triangle with horizontal base p1-p2 and bottom vertex q, compared
    against its isosceles twin q_star (same base and height, apex over the
    base midpoint).  q_star, its offset delta from q and the twin's slanted
    length vee_star are computed once, on construction."""

    p1: np.ndarray
    p2: np.ndarray
    q: np.ndarray
    q_star: np.ndarray = field(init=False, compare=False)
    delta: float = field(init=False, compare=False)
    vee_star: float = field(init=False, compare=False)

    def __post_init__(self):
        p1 = np.asarray(self.p1, dtype=float)
        p2 = np.asarray(self.p2, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if abs(p1[1] - p2[1]) > 1e-12:
            raise StructureError("base must be horizontal")
        if abs(q[1] - p1[1]) < 1e-15:
            raise StructureError("degenerate triangle: zero height")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "q", q)
        q_star = np.array([0.5 * (p1[0] + p2[0]), q[1]])
        q_star.setflags(write=False)
        object.__setattr__(self, "q_star", q_star)
        object.__setattr__(self, "delta", abs(float(q[0] - q_star[0])))
        object.__setattr__(self, "vee_star",
                           float(np.linalg.norm(p1 - q_star) + np.linalg.norm(p2 - q_star)))

    @property
    def height(self) -> float:
        return abs(float(self.q[1] - self.p1[1]))

    def vee(self) -> float:
        return float(np.linalg.norm(self.p1 - self.q) + np.linalg.norm(self.p2 - self.q))

    def star_slopes_exceed_one(self) -> bool:
        half_base = 0.5 * abs(float(self.p2[0] - self.p1[0]))
        if half_base == 0.0:
            return True
        return self.height / half_base > 1.0


def offset1_check(tri: PerturbedTriangle, eps: float) -> MarginReport:
    """If the bottom vertex sits >= sqrt(13 eps / 2) off the isosceles
    position then the slanted sides are longer than the isosceles ones by
    more than 2 eps."""
    vee, vee_star = tri.vee(), tri.vee_star
    hyp = {
        "0<eps<1/4": 0.0 < eps < 0.25,
        "vee*<3": vee_star < 3.0,
        "star_slopes>1": tri.star_slopes_exceed_one(),
        "delta>=sqrt(13eps/2)": tri.delta >= math.sqrt(13.0 * eps / 2.0) - 1e-15,
    }
    return _report(
        "offset1", hyp, vee, vee_star + 2.0 * eps,
        details={"vee": vee, "vee_star": vee_star, "delta": tri.delta},
    )


# ---------------------------------------------------------------------------
# Curve-vs-chord comparisons
# ---------------------------------------------------------------------------


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the points whose x, y and z coordinates are the
    three rows of `rows`, which this squares in place.  The squares are
    summed x + y + z, as np.linalg.norm(v, axis=1) sums the rows of an
    (m, 3) array v, so the two agree bitwise; each sum runs over whole
    contiguous rows instead of reducing m rows of three."""
    rows *= rows
    return np.sqrt(rows[0] + rows[1] + rows[2])


@functools.lru_cache(maxsize=8)
def _chord_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights (1 - t, t) of the chord map at n equal parameter steps."""
    t = np.linspace(0.0, 1.0, n)
    weights = (1.0 - t, t)
    for w in weights:
        w.setflags(write=False)
    return weights


@dataclass(frozen=True)
class CurveGraphPair:
    """Sampled unit-speed curve on a segment domain, with its chord map.

    samples: (n, 3) points I(x_i) at equal parameter steps x_i spanning the
    domain segment; the sampling must be unit speed step by step.  The
    chord map is the affine map with the same endpoints; the graphs live in
    R^4 = domain x R^3.  The step lengths, the domain length, the chord
    samples, the chord length and the sup deviation are computed once, on
    construction.

    The work runs on (3, n) coordinate rows, `samples.T`, so each numpy call
    sweeps three contiguous rows of an array that `random_unit_speed_curve`
    lays out that way.  The chord samples are kept as (3, n) rows too;
    `chord_samples()` returns their (n, 3) transposed view.
    """

    samples: np.ndarray
    speed_tol: float = 1e-6
    domain_length: float = field(init=False, repr=False, compare=False)
    _steps: np.ndarray = field(init=False, repr=False, compare=False)
    _chord: np.ndarray = field(init=False, repr=False, compare=False)
    _chord_length: float = field(init=False, repr=False, compare=False)
    _deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 2 or s.shape[1] != 3:
            raise StructureError("need (n, 3) curve samples with n >= 2")
        if not np.isfinite(s).all():
            raise StructureError("non-finite curve samples")
        object.__setattr__(self, "samples", s)
        s.setflags(write=False)
        n, rows = len(s), s.T
        w0, w1 = _chord_weights(n)
        chord = rows[:, :1] * w0 + rows[:, -1:] * w1
        # columns :n-1 hold the steps, n-1: the deviations from the chord,
        # so one pass squares and sums both
        diffs = np.empty((3, 2 * n - 1))
        np.subtract(rows[:, 1:], rows[:, :-1], out=diffs[:, :n - 1])
        np.subtract(rows, chord, out=diffs[:, n - 1:])
        norms = _norms(diffs)
        steps = norms[:n - 1]
        length = float(steps.sum())
        # dividing by the mean step and subtracting 1 are monotone, so the
        # largest |speed - 1| sits at the longest or the shortest step; a
        # curve of length 0 has no speed, and the nan fails the test below
        mean = length / (n - 1)
        resid = (max(steps.max() / mean - 1.0, 1.0 - steps.min() / mean)
                 if length > 0.0 else math.nan)
        if not resid <= self.speed_tol:
            raise StructureError(f"samples are not unit speed (max |speed-1| = {resid:.3e})")
        steps.setflags(write=False)
        chord.setflags(write=False)
        object.__setattr__(self, "domain_length", length)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_chord", chord)
        object.__setattr__(self, "_chord_length", float(np.linalg.norm(s[-1] - s[0])))
        object.__setattr__(self, "_deviation", float(norms[n - 1:].max()))

    @property
    def n(self) -> int:
        return len(self.samples)

    def chord_samples(self) -> np.ndarray:
        return self._chord.T

    def curve_length(self) -> float:
        return self.domain_length

    def chord_length(self) -> float:
        return self._chord_length

    def sup_deviation(self) -> float:
        return self._deviation

    def graph_lengths(self) -> tuple[float, float]:
        """Polyline lengths of the graphs of the curve and of its chord map
        in R^4 (trapezoid-rule quadrature on the given samples)."""
        step = self.domain_length / (self.n - 1)
        dx2 = step * step
        d_chord = _norms(self._chord[:, 1:] - self._chord[:, :-1])
        len_graph = float(np.sqrt(dx2 + self._steps * self._steps).sum())
        len_graph_star = float(np.sqrt(dx2 + d_chord * d_chord).sum())
        return len_graph, len_graph_star


def graph_check(cg: CurveGraphPair) -> MarginReport:
    """Graph comparison: len(G*) <= len(G) <= 3 sqrt(2), and the graph gap
    is bounded by the curve-vs-chord gap."""
    len_g, len_gs = cg.graph_lengths()
    len_c, len_ch = cg.curve_length(), cg.chord_length()
    hyp = {"domain<3": cg.domain_length < 3.0}
    rep = _report(
        "graph", hyp,
        len_c - len_ch, len_g - len_gs,
        allow_equality=True,
        details={
            "len_graph": len_g,
            "len_graph_star": len_gs,
            "len_curve": len_c,
            "len_chord": len_ch,
            "graph_order_ok": len_gs <= len_g + _EQ_SLOP,
            "graph_cap_ok": len_g <= 3.0 * math.sqrt(2.0) + _EQ_SLOP,
        },
    )
    if not (rep.details["graph_order_ok"] and rep.details["graph_cap_ok"]):
        return MarginReport(rep.name, rep.hypotheses, rep.lhs, rep.rhs,
                            rep.margin, False, rep.details)
    return rep


def wiggle_check(cg: CurveGraphPair, eps: float) -> MarginReport:
    """If the curve strays >= 3 sqrt(eps) from its chord map somewhere,
    its length exceeds the chord length by more than eps."""
    dev = cg.sup_deviation()
    hyp = {
        "0<eps<1/4": 0.0 < eps < 0.25,
        "domain<3": cg.domain_length < 3.0,
        "deviation>=3sqrt(eps)": dev >= 3.0 * math.sqrt(eps) - 1e-15,
    }
    return _report(
        "wiggle", hyp, cg.curve_length(), cg.chord_length() + eps,
        details={"sup_deviation": dev},
    )


# ---------------------------------------------------------------------------
# Normalized-band margin checkers
# ---------------------------------------------------------------------------


def lip_check(t: float, eps: float) -> MarginReport:
    """|t - 1/sqrt(3)| < 4 eps / 3 (and then t lies in (0, 1))."""
    hyp = {"0<eps<1/4": 0.0 < eps < 0.25}
    rep = _report("lip", hyp, 4.0 * eps / 3.0, abs(t - T_OPT))
    rep.details["t_in_unit_interval"] = 0.0 < t < 1.0
    return rep


def length_check(len_h: float, len_d: float) -> MarginReport:
    """len(H) < len(D) < 3."""
    return _report(
        "length", {}, min(len_d - len_h, 3.0 - len_d), 0.0,
        details={"len_h": len_h, "len_d": len_d},
    )


def base_check(len_t_prime: float, t: float, eps: float) -> MarginReport:
    """|len(T') - 2/sqrt(3)| < eps for the normalized pattern."""
    hyp = {
        "0<eps<1/4": 0.0 < eps < 0.25,
        "t_consistent": abs(len_t_prime - math.hypot(1.0, t)) < 1e-6,
    }
    return _report("base", hyp, eps, abs(len_t_prime - 2.0 * T_OPT),
                   details={"len_t_prime": len_t_prime})


def height_check(y: float, eps: float) -> MarginReport:
    """The triangle over the base bend has height y < 1 + eps."""
    hyp = {"0<eps<1/4": 0.0 < eps < 0.25, "y>0": y > 0.0}
    return _report("height", hyp, 1.0 + eps, y, allow_equality=True)


def offset_check(delta: float, eps: float) -> MarginReport:
    """The bottom vertex offset obeys delta < sqrt(13 eps / 2)."""
    hyp = {"0<eps<1/4": 0.0 < eps < 0.25}
    return _report("offset", hyp, math.sqrt(13.0 * eps / 2.0), delta)


def key_check(len_d: float, t: float) -> MarginReport:
    """len(D) >= sqrt(5 + t^2): the slanted-side estimate on the long side.

    Strict for genuinely embedded bands; the flat-folded limit closes it
    with equality, so equality is accepted.
    """
    return _report("key", {}, len_d, math.sqrt(5.0 + t * t), allow_equality=True)


def tpattern_endpoint_check(endpoints: dict, eps: float) -> MarginReport:
    """All four endpoints of the normalized (T', B') lie within
    3 sqrt(eps) of the optimal pattern ((+-1/sqrt(3),0,0), (0,0,0)-(0,-1,0))."""
    ref = {
        "w": np.array([T_OPT, 0.0, 0.0]),
        "x": np.array([-T_OPT, 0.0, 0.0]),
        "u": np.zeros(3),
        "v": np.array([0.0, -1.0, 0.0]),
    }
    dists = {
        k: float(np.linalg.norm(np.asarray(endpoints[k], dtype=float) - ref[k]))
        for k in ("w", "x", "u", "v")
    }
    hyp = {"0<eps<1/4": 0.0 < eps < 0.25}
    return _report("tpattern_endpoints", hyp, 3.0 * math.sqrt(eps),
                   max(dists.values()), details=dists)


# ---------------------------------------------------------------------------
# Seeded random instances for the property sweeps
# ---------------------------------------------------------------------------


_SIGNS = (-1.0, 1.0)


def _random_sign(rng: np.random.Generator) -> float:
    """-1.0 or 1.0 with equal odds: the draw of rng.choice([-1.0, 1.0]),
    which takes rng.integers(0, 2) as its index, without its overhead."""
    return _SIGNS[rng.integers(0, 2)]


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """A draw of rng.uniform(low, high), which numpy computes as
    low + (high - low) * rng.random(), without the overhead of its call."""
    return low + (high - low) * rng.random()


def random_perturbed_triangle(rng: np.random.Generator, eps: float) -> PerturbedTriangle:
    """Random triangle satisfying all offset1 hypotheses for this eps."""
    for _ in range(1000):
        half_base = rng.uniform(0.2, 0.7)
        height = rng.uniform(half_base * 1.05, 1.4)
        vee_star = 2.0 * math.hypot(half_base, height)
        if vee_star >= 3.0:
            continue
        delta = rng.uniform(1.0, 3.0) * math.sqrt(13.0 * eps / 2.0)
        side = _random_sign(rng)
        tri = PerturbedTriangle(
            p1=np.array([-half_base, 0.0]),
            p2=np.array([half_base, 0.0]),
            q=np.array([side * delta, -height]),
        )
        if tri.star_slopes_exceed_one() and tri.vee_star < 3.0:
            return tri
    raise RuntimeError("failed to sample a triangle meeting the hypotheses")


@functools.lru_cache(maxsize=8)
def _curve_tables(n: int) -> np.ndarray:
    """The fixed Fourier basis of `random_unit_speed_curve` over the
    arc-length midpoints s of an n-point curve: a read-only (7, n - 1)
    array with rows sin(2 pi s), then sin(pi k s) sin(pi s) and
    cos(pi k s) sin(pi s) for k = 2..4."""
    s = (np.arange(n - 1) + 0.5) / (n - 1)
    sin_pi_s = np.sin(math.pi * s)
    rows = [np.sin(2.0 * math.pi * s)]
    for k in range(2, 5):
        rows += [np.sin(math.pi * k * s) * sin_pi_s, np.cos(math.pi * k * s) * sin_pi_s]
    basis = np.stack(rows)
    basis.setflags(write=False)
    return basis


def random_unit_speed_curve(rng: np.random.Generator, length: float,
                            tilt: float, n: int = 1200) -> np.ndarray:
    """Unit-speed samples of a random smooth space curve, as the (n, 3)
    transposed view of a C-ordered (3, n) array of coordinate rows.

    The curve is built by integrating a unit tangent field whose direction
    angles are low-order Fourier series in arc length, so the polyline has
    exactly equal steps (speed residual at rounding level) and total length
    `length`.  `tilt` scales the tangent's angular swing away from the
    chord direction, i.e. how far the curve wiggles.

    Each mode amp * sin(pi k s + phase) * sin(pi s) is expanded by angle
    addition into amp cos(phase) and amp sin(phase) times two fixed basis
    rows, so both angles come from one (2, 7) by (7, n - 1) matrix product.
    """
    # a coherent full-period swing carries the bulk of the bulge away from
    # the chord; higher random modes (both angles) roughen it
    theta = [tilt * _uniform(rng, 0.7, 1.0) * _random_sign(rng)]
    phi = [0.0]
    for k in range(2, 5):
        for row in (theta, phi):
            amp = 0.25 * tilt * rng.normal() / k
            phase = _uniform(rng, 0.0, 2.0 * math.pi)
            row += (amp * math.cos(phase), amp * math.sin(phase))
    # einsum, not @: the BLAS product saves ~6 us but touches OpenBLAS's
    # gemm buffer, which raises the peak RSS of a sweep by ~0.3 MB
    angles = np.einsum("ij,jk->ik", np.array([theta, phi]), _curve_tables(n))
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    # each coordinate's steps and running sum sweep one contiguous row
    pts = np.zeros((3, n))
    steps = pts[:, 1:]
    np.multiply(cos_a[0], cos_a[1], out=steps[0])
    np.multiply(sin_a[0], cos_a[1], out=steps[1])
    steps[2] = sin_a[1]
    steps *= length / (n - 1)
    np.cumsum(steps, axis=1, out=steps)
    return pts.T


def curve_with_forced_deviation(rng: np.random.Generator, eps: float) -> CurveGraphPair:
    """Random unit-speed curve whose sup distance to its chord map is at
    least 3 sqrt(eps) (tangent swing scaled up until the threshold holds)."""
    target = 3.0 * math.sqrt(eps)
    lo = max(1.6, 2.7 * target)
    if lo >= 2.85:
        raise StructureError("eps too large to force the deviation on a domain < 3")
    length = _uniform(rng, lo, 2.85)
    tilt = 3.0 * target / length
    for _ in range(80):
        cg = CurveGraphPair(random_unit_speed_curve(rng, length, tilt), speed_tol=1e-8)
        if cg.sup_deviation() >= target:
            return cg
        tilt *= 1.35
        if tilt > 2.6:
            length = _uniform(rng, lo, 2.85)
            tilt = 3.0 * target / length
    raise RuntimeError("failed to force the deviation threshold")


# ---------------------------------------------------------------------------
# Grid certifications
# ---------------------------------------------------------------------------


GRID_BLOCK = 1 << 16  # grid points per block of hd_grid_certificate: 512 KiB arrays


def hd_grid_certificate(n: int = 1_000_000) -> dict:
    """max(h, d) >= sqrt(3) on a t-grid over (0, 1), minimized next to
    t = 1/sqrt(3); h increasing and d decreasing by finite differences.

    The grid t_k = k / (n + 1), k = 1..n, is bitwise the interior of
    linspace(0, 1, n + 2); it is streamed in blocks of GRID_BLOCK points.
    """
    step = 1.0 / (n + 1)

    def blocks():
        for k0 in range(1, n + 1, GRID_BLOCK):
            t = np.arange(k0, min(k0 + GRID_BLOCK, n + 1)) * step
            yield t, np.sqrt(1.0 + t * t) + t, np.sqrt(5.0 + t * t) - t

    return _certify_blocks(blocks(), step)


def _certify_blocks(blocks, step: float) -> dict:
    """The certificate of `hd_grid_certificate` from consecutive (t, h, d)
    blocks of a grid with spacing `step`, carrying the least value, its
    first grid point, the least of the other values, and the last h and d
    for the differences across blocks."""
    best = others = math.inf
    best_t = math.nan
    h_last, d_last = -math.inf, math.inf
    h_increasing = d_decreasing = True
    for t, hv, dv in blocks:
        h_increasing &= bool(np.all(np.diff(hv, prepend=h_last) > 0.0))
        d_decreasing &= bool(np.all(np.diff(dv, prepend=d_last) < 0.0))
        h_last, d_last = hv[-1], dv[-1]
        m = np.maximum(hv, dv)
        i = int(np.argmin(m))
        low = m[i]
        m[i] = math.inf
        if low < best:
            others = min(best, m.min())
            best, best_t = low, t[i]
        else:
            others = min(others, low)
    return {
        "min_value": float(best),
        "argmin_t": float(best_t),
        "argmin_near_t_opt": bool(abs(best_t - T_OPT) <= step * 1.000001),
        "min_above_sqrt3": bool(best >= SQRT3 - 1e-12),
        "others_strictly_above": bool(others > SQRT3 - 1e-12),
        "h_increasing": h_increasing,
        "d_decreasing": d_decreasing,
    }


def sq_grid_certificate(n_side: int = 100) -> dict:
    """Margins of sq0/sq1 over the closed hypothesis rectangles; sq0 has its
    single zero at the corner (3/2, 1/4)."""
    ls0 = np.linspace(1.5 / n_side, 1.5, n_side)
    es = np.linspace(0.25 / n_side, 0.25, n_side)
    l_grid, e_grid = np.meshgrid(ls0, es, indexing="ij")
    m0 = np.sqrt(l_grid**2 + 3.25 * e_grid) - (l_grid + e_grid)
    ls1 = np.linspace((3.0 / math.sqrt(2.0)) / n_side, 3.0 / math.sqrt(2.0), n_side)
    l1_grid, e1_grid = np.meshgrid(ls1, es, indexing="ij")
    m1 = np.sqrt(l1_grid**2 + 4.5 * e1_grid) - (l1_grid + 0.5 * e1_grid)
    i0 = np.unravel_index(int(np.argmin(m0)), m0.shape)
    corner = (n_side - 1, n_side - 1)
    zero_mask = np.abs(m0) <= 1e-12
    return {
        "sq0_min": float(m0.min()),
        "sq0_nonnegative": bool(m0.min() >= -1e-12),
        "sq0_zero_only_at_corner": bool(zero_mask.sum() == 1 and i0 == corner),
        "sq1_min": float(m1.min()),
        "sq1_strictly_positive": bool(m1.min() > 0.0),
        "grid_points": int(m0.size),
    }


def derivative_anchors(step: float = 1e-7) -> dict:
    """Central finite differences of h and d at 1/sqrt(3), and the slope
    bound |d/dt sqrt(1+t^2)| < 3/4 on (0, 1)."""
    hp = (h(T_OPT + step) - h(T_OPT - step)) / (2.0 * step)
    dp = (d(T_OPT + step) - d(T_OPT - step)) / (2.0 * step)
    t = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
    fp = t / np.sqrt(1.0 + t * t)
    return {
        "h_prime": float(hp),
        "d_prime": float(dp),
        "h_prime_err": float(abs(hp - 1.5)),
        "d_prime_err": float(abs(dp + 0.75)),
        "max_abs_fprime": float(fp.max()),
        "fprime_below_3_4": bool(fp.max() < 0.75),
    }
