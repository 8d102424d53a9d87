"""Closed-form bound functions and margin checkers.

Every checker evaluates both sides of one inequality, flags its
hypotheses instead of assuming them, and returns a MarginReport; property
sweeps can therefore probe boundary behavior without tripping assertions.

Core closed forms (t is the cut displacement of the trapezoid
normalization, y a triangle height):

    h(t) = sqrt(1 + t^2) + t        increasing; aspect lower bound for
    d(t) = sqrt(5 + t^2) - t        decreasing;  t above/below 1/sqrt(3)
    g(y) = sqrt(1 + 2 y^2)          aspect lower bound through the height

h(1/sqrt(3)) = d(1/sqrt(3)) = sqrt(3) and g(1) = sqrt(3), which pins the
flat-folded triangle as the unique optimum.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .band import APEX, BASE_L, BASE_R
from .flatmodel import T_OPT
from .geom import Frozen, StructureError

_EQ_SLOP = 1e-12  # slop for inequalities that close non-strictly in the limit


class MarginReport(NamedTuple):
    """Evaluation of one inequality: lhs >= rhs (+ margin = lhs - rhs)."""

    name: str
    hypotheses: dict
    lhs: float
    rhs: float
    margin: float
    passed: bool
    details: dict

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())


def _report(name, hypotheses, lhs, rhs, allow_equality=False, details=None) -> MarginReport:
    margin = lhs - rhs
    ok = all(hypotheses.values())
    passed = ok and (margin >= -_EQ_SLOP if allow_equality else margin > 0.0)
    return MarginReport(name, dict(hypotheses), float(lhs), float(rhs),
                        float(margin), bool(passed), {} if details is None else details)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def h(t: float) -> float:
    return math.sqrt(1.0 + t * t) + t


def d(t: float) -> float:
    return math.sqrt(5.0 + t * t) - t


def g(y: float) -> float:
    return math.sqrt(1.0 + 2.0 * y * y)


# ---------------------------------------------------------------------------
# Perturbed isosceles triangles
# ---------------------------------------------------------------------------


class PerturbedTriangle(Frozen):
    """Triangle with horizontal base p1-p2 and bottom vertex q, compared
    against its isosceles twin (same base and height, apex q_star over the
    base midpoint).  What offset1 reads is stored once, on construction,
    and the vertices are not kept: the offset delta of q from q_star, the
    slanted lengths vee = |p1 - q| + |p2 - q| and vee_star of the twin, and
    whether the twin's sides are steeper than 1 (true on a base of length 0)."""

    delta: float
    vee: float
    vee_star: float
    star_slopes_exceed_one: bool

    def __init__(self, p1: np.ndarray, p2: np.ndarray, q: np.ndarray):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        q = np.asarray(q, dtype=float)
        if abs(p1[1] - p2[1]) > 1e-12:
            raise StructureError("base must be horizontal")
        if abs(q[1] - p1[1]) < 1e-15:
            raise StructureError("degenerate triangle: zero height")
        q_star = np.array([0.5 * (p1[0] + p2[0]), q[1]])
        half_base = 0.5 * abs(float(p2[0] - p1[0]))
        self._store(delta=abs(float(q[0] - q_star[0])),
                    vee=float(np.linalg.norm(p1 - q) + np.linalg.norm(p2 - q)),
                    vee_star=float(np.linalg.norm(p1 - q_star) + np.linalg.norm(p2 - q_star)),
                    star_slopes_exceed_one=(half_base == 0.0
                                            or abs(float(q[1] - p1[1])) / half_base > 1.0))


def offset1_check(tri: PerturbedTriangle, eps: float) -> MarginReport:
    """If the bottom vertex sits >= sqrt(13 eps / 2) off the isosceles
    position then the slanted sides are longer than the isosceles ones by
    more than 2 eps."""
    vee, vee_star = tri.vee, tri.vee_star
    hyp = {
        "0<eps<1/4": 0.0 < eps < 0.25,
        "vee*<3": vee_star < 3.0,
        "star_slopes>1": tri.star_slopes_exceed_one,
        "delta>=sqrt(13eps/2)": tri.delta >= math.sqrt(13.0 * eps / 2.0) - 1e-15,
    }
    return _report(
        "offset1", hyp, vee, vee_star + 2.0 * eps,
        details={"vee": vee, "vee_star": vee_star, "delta": tri.delta},
    )


# ---------------------------------------------------------------------------
# Curve-vs-chord comparisons
# ---------------------------------------------------------------------------


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the points whose x, y and z coordinates
    are the three rows of `rows`, which this squares in place.  The squares
    are summed x + y + z, as np.linalg.norm(v, axis=1) sums the rows of an
    (m, 3) array v, so their roots agree with it bitwise; each sum runs over
    whole contiguous rows instead of reducing m rows of three."""
    rows *= rows
    return rows[0] + rows[1] + rows[2]


def _norms(rows: np.ndarray) -> np.ndarray:
    """The roots of `_squared_norms(rows)`."""
    return np.sqrt(_squared_norms(rows))


@functools.lru_cache(maxsize=8)
def _chord_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights (1 - t, t) of the chord map at n equal parameter steps."""
    t = np.linspace(0.0, 1.0, n)
    weights = (1.0 - t, t)
    for w in weights:
        w.setflags(write=False)
    return weights


def _deviation(rows: np.ndarray, chord: np.ndarray) -> float:
    """The sup distance between the sampled curve and chord map whose x, y
    and z coordinates are the rows of the (3, n) arrays `rows` and `chord`;
    nan or inf if a sample is not finite.  sqrt is monotone, so the root
    of the largest squared distance is bitwise the largest distance."""
    return math.sqrt(_squared_norms(rows - chord).max())


class CurveGraphPair(Frozen):
    """Sampled unit-speed curve on a segment domain, with its chord map.

    samples: (n, 3) points I(x_i) at equal parameter steps x_i spanning the
    domain segment; the samples must be finite and the sampling unit speed
    step by step, to `speed_tol`.  The chord map is the affine map with the
    same endpoints; the graphs live in R^4 = domain x R^3.  The step
    lengths, the domain length, the chord samples, the chord length and the
    sup deviation are computed once, on construction, the deviation by
    `_deviation`, the formula `curve_with_forced_deviation` decides its
    attempts with.

    The work runs on (3, n) coordinate rows, `samples.T`, so each numpy call
    sweeps three contiguous rows of an array that `random_unit_speed_curve`
    lays out that way.  The chord samples are kept as (3, n) rows too.
    """

    samples: np.ndarray
    domain_length: float
    chord_length: float
    deviation: float
    _steps: np.ndarray
    _chord: np.ndarray

    def __init__(self, samples: np.ndarray, speed_tol: float = 1e-6):
        s = np.asarray(samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 2 or s.shape[1] != 3:
            raise StructureError("need (n, 3) curve samples with n >= 2")
        if not np.isfinite(s).all():
            raise StructureError("non-finite curve samples")
        n, rows = len(s), s.T
        steps = _norms(rows[:, 1:] - rows[:, :-1])
        length = float(steps.sum())
        # dividing by the mean step and subtracting 1 are monotone, so the
        # largest |speed - 1| sits at the longest or the shortest step; a
        # curve of length 0 has no speed, and the nan fails the test below
        mean = length / (n - 1)
        resid = (max(steps.max() / mean - 1.0, 1.0 - steps.min() / mean)
                 if length > 0.0 else math.nan)
        if not resid <= speed_tol:
            raise StructureError(f"samples are not unit speed (max |speed-1| = {resid:.3e})")
        w0, w1 = _chord_weights(n)
        chord = rows[:, :1] * w0 + rows[:, -1:] * w1
        self._store(samples=s, domain_length=length,
                    chord_length=float(np.linalg.norm(s[-1] - s[0])),
                    deviation=_deviation(rows, chord), _steps=steps, _chord=chord)

    def graph_lengths(self) -> tuple[float, float]:
        """Polyline lengths of the graphs of the curve and of its chord map
        in R^4 (trapezoid-rule quadrature on the given samples)."""
        step = self.domain_length / (len(self.samples) - 1)
        dx2 = step * step
        d_chord = _norms(self._chord[:, 1:] - self._chord[:, :-1])
        len_graph = float(np.sqrt(dx2 + self._steps * self._steps).sum())
        len_graph_star = float(np.sqrt(dx2 + d_chord * d_chord).sum())
        return len_graph, len_graph_star


def graph_check(cg: CurveGraphPair) -> MarginReport:
    """Graph comparison: len(G*) <= len(G) <= 3 sqrt(2), and the graph gap
    is bounded by the curve-vs-chord gap."""
    len_g, len_gs = cg.graph_lengths()
    len_c, len_ch = cg.domain_length, cg.chord_length
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
    dev = cg.deviation
    hyp = {
        "0<eps<1/4": 0.0 < eps < 0.25,
        "domain<3": cg.domain_length < 3.0,
        "deviation>=3sqrt(eps)": dev >= 3.0 * math.sqrt(eps) - 1e-15,
    }
    return _report(
        "wiggle", hyp, cg.domain_length, cg.chord_length + eps,
        details={"sup_deviation": dev},
    )


# ---------------------------------------------------------------------------
# Normalized-band margin checkers
# ---------------------------------------------------------------------------


def lip_check(t: float, eps: float) -> MarginReport:
    """|t - 1/sqrt(3)| < 4 eps / 3 (and then t lies in (0, 1))."""
    hyp = {"0<eps<1/4": 0.0 < eps < 0.25}
    return _report("lip", hyp, 4.0 * eps / 3.0, abs(t - T_OPT),
                   details={"t_in_unit_interval": 0.0 < t < 1.0})


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
    ref = {"w": BASE_R, "x": BASE_L, "u": np.zeros(3), "v": APEX}
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

# the `rng` annotations are strings: evaluating np.random.Generator would
# import numpy.random, about 6 MB, with the CLI

_SIGNS = (-1.0, 1.0)


def _random_sign(rng: "np.random.Generator") -> float:
    """-1.0 or 1.0 with equal odds: the draw of rng.choice([-1.0, 1.0]),
    which takes rng.integers(0, 2) as its index, without its overhead."""
    return _SIGNS[rng.integers(0, 2)]


def _uniform(rng: "np.random.Generator", low: float, high: float) -> float:
    """A draw of rng.uniform(low, high), which numpy computes as
    low + (high - low) * rng.random(), without the overhead of its call."""
    return low + (high - low) * rng.random()


def random_perturbed_triangle(rng: "np.random.Generator", eps: float) -> PerturbedTriangle:
    """Random triangle satisfying all offset1 hypotheses for this eps."""
    for _ in range(1000):
        half_base = _uniform(rng, 0.2, 0.7)
        height = _uniform(rng, half_base * 1.05, 1.4)
        vee_star = 2.0 * math.hypot(half_base, height)
        if vee_star >= 3.0:
            continue
        delta = _uniform(rng, 1.0, 3.0) * math.sqrt(13.0 * eps / 2.0)
        side = _random_sign(rng)
        tri = PerturbedTriangle(
            p1=np.array([-half_base, 0.0]),
            p2=np.array([half_base, 0.0]),
            q=np.array([side * delta, -height]),
        )
        if tri.star_slopes_exceed_one and tri.vee_star < 3.0:
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


def random_unit_speed_curve(rng: "np.random.Generator", length: float,
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

    The samples start exactly at 0, and their speed residual, the largest
    |step / mean step - 1| that CurveGraphPair checks, is at most
    (3 (n - 1) / 2 + 64) u with u = 2^-53: 2.1e-13 at n = 1200, more than
    four decades below the 1e-8 that `curve_with_forced_deviation` asks.
    Each step is h T with h = length / (n - 1) and T a unit vector to a few
    ulps.  The running sum rounds point i + 1 by at most u times its norm,
    and that norm is at most (i + 1) h, the arc length to it; the difference
    of two points recovers their step to within that rounding and an ulp.
    So step i is h (1 + e_i) with |e_i| <= (i + 1) u plus a few u, the mean
    of the e_i is at most n u / 2 plus a few u, and the residual is at most
    their sum, (n - 1) u + n u / 2; 64 u covers the few-ulp errors of the
    tangents, the norms and the pairwise sum of the steps.
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


def curve_with_forced_deviation(rng: "np.random.Generator", eps: float) -> CurveGraphPair:
    """Random unit-speed curve whose sup distance to its chord map is at
    least 3 sqrt(eps) (tangent swing scaled up until the threshold holds).

    Each attempt is decided on its chord deviation alone, by the formula of
    `CurveGraphPair.deviation`; only the curve it keeps is validated as a
    CurveGraphPair (finite samples, unit speed to 1e-8).  The discarded
    curves would pass that check too: their speed residual is bounded in
    `random_unit_speed_curve`'s docstring, far below 1e-8."""
    target = 3.0 * math.sqrt(eps)
    lo = max(1.6, 2.7 * target)
    if lo >= 2.85:
        raise StructureError("eps too large to force the deviation on a domain < 3")
    length = _uniform(rng, lo, 2.85)
    tilt = 3.0 * target / length
    for _ in range(80):
        rows = random_unit_speed_curve(rng, length, tilt).T
        # the curve starts at 0, so its chord map is t times its end: the
        # pair's (1 - t) * 0 terms add zeros, whose signs the squares drop.
        # Non-finite samples give a nan or inf deviation, with no warning,
        # which is not below the target, so the pair rejects them.
        with np.errstate(invalid="ignore"):
            dev = _deviation(rows, rows[:, -1:] * _chord_weights(rows.shape[1])[1])
        if not dev < target:
            return CurveGraphPair(rows.T, speed_tol=1e-8)
        tilt *= 1.35
        if tilt > 2.6:
            length = _uniform(rng, lo, 2.85)
            tilt = 3.0 * target / length
    raise RuntimeError("failed to force the deviation threshold")


# ---------------------------------------------------------------------------
# Closed-form certificates of the scalar lemmas
# ---------------------------------------------------------------------------

# Each certificate imports fractions itself: with decimal it costs about
# 2 ms of start-up, and only `bounds-sweep` needs it.


def _rational_sqrt(q):
    """The square root of the Fraction q, which must be the square of a
    rational."""
    from fractions import Fraction
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    if root * root != q:
        raise ArithmeticError(f"{q} is not the square of a rational")
    return root


def hd_grid_certificate() -> dict:
    """max(h, d) >= sqrt(3) on all of (0, 1), with equality at t = 1/sqrt(3)
    alone.

    h' = 1 + t / sqrt(1 + t^2) > 0 and d' = t / sqrt(5 + t^2) - 1 < 0 for
    every t, as |t| < sqrt(c + t^2) for c > 0.  So h increases, d decreases,
    and max(h, d) has one minimum, where h = d.  With s = t^2 that crossing
    is sqrt(1 + s) + 2 t = sqrt(5 + s); squaring (both sides positive) gives
    t sqrt(1 + s) = 1 - s, and squaring again (1 - s >= 0) gives
    s (1 + s) = (1 - s)^2, that is 3 s = 1.  At s = 1/3 the squares
    h^2 = 1 + 2 s + 2 sqrt(s (1 + s)) and d^2 = 5 + 2 s - 2 sqrt(s (5 + s))
    are rational, as sqrt(4/9) = 2/3 and sqrt(16/9) = 4/3, and both are 3.
    """
    from fractions import Fraction
    s = Fraction(1, 3)
    h_sq = 1 + 2 * s + 2 * _rational_sqrt(s * (1 + s))
    d_sq = 5 + 2 * s - 2 * _rational_sqrt(s * (5 + s))
    return {
        "min_value": math.sqrt(h_sq),
        # 1 / sqrt(1 / s) rounds as T_OPT = 1 / sqrt(3) does
        "argmin_t": 1.0 / math.sqrt(1 / s),
        "crossing_at_t_opt": s * (1 + s) == (1 - s) ** 2 and s <= 1,
        "min_is_sqrt3": h_sq == d_sq == 3,
    }


def sq_grid_certificate() -> dict:
    """The square-root margins on their closed hypothesis rectangles:
    sq0, sqrt(L^2 + 13 eps / 4) > L + eps for 0 <= L <= 3/2, and
    sq1, sqrt(L^2 + 9 eps / 2) > L + eps / 2 for 0 <= L <= 3/sqrt(2), both
    for 0 < eps <= 1/4.

    For eps > 0 both sides are positive, so squaring is exact, and dividing
    by eps leaves affine margins: sq0 holds iff 13/4 - 2 L - eps > 0, sq1 iff
    9/2 - L - eps/4 > 0.  An affine function on a rectangle takes its least
    value at a corner, and there alone unless another corner ties it.
    sq0's corners are rational: its least margin is exactly 0, at
    (3/2, 1/4) alone, where the inequality closes with equality.  sq1 is
    positive at a corner iff L^2 < (9/2 - eps/4)^2, which holds at all four
    (L^2 = 0 or 9/2).  Its margin falls in L and eps, so its least value is
    9/2 - 3/sqrt(2) - 1/16, about 2.316, at (3/sqrt(2), 1/4).
    """
    from fractions import Fraction
    eps_ends = (Fraction(0), Fraction(1, 4))
    sq0 = {(l, e): Fraction(13, 4) - 2 * l - e
           for l in (Fraction(0), Fraction(3, 2)) for e in eps_ends}
    min0 = min(sq0.values())
    return {
        "sq0_min": float(min0),
        "sq0_nonnegative": min0 >= 0,
        "sq0_zero_only_at_corner": [c for c, m in sq0.items() if m == 0] == [(1.5, 0.25)],
        "sq1_min": 4.5 - 3.0 / math.sqrt(2.0) - 0.25 / 4,
        "sq1_strictly_positive": all(l_sq < (Fraction(9, 2) - e / 4) ** 2
                                     for l_sq in (0, Fraction(9, 2)) for e in eps_ends),
    }


def derivative_anchors() -> dict:
    """The slopes h'(1/sqrt(3)) = 3/2 and d'(1/sqrt(3)) = -3/4, and the bound
    |d/dt sqrt(1 + t^2)| < 3/4 on (0, 1), in closed form.

    h' = 1 + t / sqrt(1 + t^2) and d' = t / sqrt(5 + t^2) - 1, where
    t / sqrt(c + t^2) = sqrt(s / (c + s)) with s = t^2 = 1/3 is
    sqrt(1/4) = 1/2 for c = 1 and sqrt(1/16) = 1/4 for c = 5.  The slope
    t / sqrt(1 + t^2) of sqrt(1 + t^2) has derivative (1 + t^2)^(-3/2) > 0,
    so its supremum on (0, 1) is its value 1/sqrt(2) at t = 1, below 3/4 as
    1/2 < 9/16.
    """
    from fractions import Fraction
    s = Fraction(1, 3)
    hp = 1 + _rational_sqrt(s / (1 + s))
    dp = _rational_sqrt(s / (5 + s)) - 1
    sup_sq = Fraction(1, 2)   # t^2 / (1 + t^2) at t = 1
    return {
        "h_prime": float(hp),
        "d_prime": float(dp),
        "h_prime_err": float(abs(hp - Fraction(3, 2))),
        "d_prime_err": float(abs(dp + Fraction(3, 4))),
        "max_abs_fprime": 1.0 / math.sqrt(1 / sup_sq),
        "fprime_below_3_4": sup_sq < Fraction(3, 4) ** 2,
    }
