import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebiusband import tpattern as tpattern_mod
from moebiusband.band import (
    RuledBand,
    build_triangular,
    build_wrinkle,
    flip,
    interpolate_bend,
    redevelop,
    transform,
)
from moebiusband.geom import RigidMotion, StructureError
from moebiusband.tpattern import (
    _FOOT_MARGIN,
    TPattern,
    _Candidate,
    _candidates,
    _classify,
    _perp_roots,
    _unit,
    develop_for,
    find_tpattern,
    normalize_pose,
)
from moebiusband.verify import prepare, verify_eff

from conftest import random_motion, scale_bend

SQRT3 = math.sqrt(3.0)
T0 = 1.0 / SQRT3


def space_bends(band: RuledBand, tp: TPattern) -> tuple[np.ndarray, np.ndarray]:
    """The T and B bends of a pattern found on `band`, in space."""
    return interpolate_bend(band, tp.param_t)[1], interpolate_bend(band, tp.param_b)[1]


def normalized_bends(band: RuledBand, tp: TPattern) -> tuple[np.ndarray, np.ndarray]:
    """The T and B bends of a pattern, moved by its normalizing pose."""
    return tuple(tp.pose.apply(bend) for bend in space_bends(band, tp))


def pose_residuals(t_sp: np.ndarray, b_sp: np.ndarray) -> dict:
    """Coordinate residuals of (supposedly) normalized T and B bends."""
    return {
        "t_off_axis": float(np.abs(t_sp[:, 1:]).max()),
        "t_midpoint": float(np.abs(t_sp.mean(axis=0)).max()),
        "b_off_axis": float(np.abs(b_sp[:, [0, 2]]).max()),
        "b_above_axis": float(max(b_sp[:, 1].max(), 0.0)),
    }


# Scalar references: the one-root-at-a-time residuals and role test that
# _classify computes for all roots in one array pass.


def _space_at(band: RuledBand, p: float) -> np.ndarray:
    """Space segment at lifted parameter p in [0, 2N); beyond N the
    orientation is reversed (double cover of the foliation circle)."""
    n = band.n_bends
    if p <= n:
        return interpolate_bend(band, p)[1]
    return interpolate_bend(band, p - n)[1][::-1]


def _perp_residual(band: RuledBand, a: float, b: float) -> float:
    sa, sb = _space_at(band, a), _space_at(band, b)
    return float(_unit(sa[1] - sa[0]) @ _unit(sb[1] - sb[0]))


def _offset_residual(band: RuledBand, a: float, b: float) -> float:
    sa = _space_at(band, a)
    sb = _space_at(band, b)
    ua = _unit(sa[1] - sa[0])
    ub = _unit(sb[1] - sb[0])
    n = np.cross(ua, ub)
    nn = np.linalg.norm(n)
    if nn < 1e-12:
        return math.inf
    ma = 0.5 * (sa[0] + sa[1])
    mb = 0.5 * (sb[0] + sb[1])
    return float((mb - ma) @ n / nn)


def closest_line_params(p1, d1, p2, d2) -> tuple[float, float]:
    """Arclength parameters (s1, s2) of the mutually closest points of two
    lines p_i + s_i * d_i (directions unit)."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    w0 = p2 - p1
    b = float(d1 @ d2)
    denom = 1.0 - b * b
    if denom < 1e-18:
        raise StructureError("lines are parallel; closest params undefined")
    s1 = (float(d1 @ w0) - b * float(d2 @ w0)) / denom
    s2 = (b * float(d1 @ w0) - float(d2 @ w0)) / denom
    return s1, s2


def _classify_roles(band: RuledBand, a: float, b: float) -> _Candidate | None:
    """Assign T/B roles by where the carrier lines meet: the T segment must
    contain the intersection strictly inside, the B segment must lie on one
    closed side of it."""
    sa = _space_at(band, a)
    sb = _space_at(band, b)
    ua, ub = _unit(sa[1] - sa[0]), _unit(sb[1] - sb[0])
    la = float(np.linalg.norm(sa[1] - sa[0]))
    lb = float(np.linalg.norm(sb[1] - sb[0]))
    try:
        s1, s2 = closest_line_params(sa[0], ua, sb[0], ub)
    except StructureError:
        return None
    r1, r2 = s1 / la, s2 / lb
    p_star = 0.5 * ((sa[0] + s1 * ua) + (sb[0] + s2 * ub))
    interior1 = _FOOT_MARGIN < r1 < 1.0 - _FOOT_MARGIN
    interior2 = _FOOT_MARGIN < r2 < 1.0 - _FOOT_MARGIN
    perp = float(ua @ ub)
    off = _offset_residual(band, a, b)
    if interior1 and not interior2:
        return _Candidate(a, b, perp, off, 1, la, lb, p_star)
    if interior2 and not interior1:
        return _Candidate(a, b, perp, off, 2, lb, la, p_star)
    return None


class TestTriangularPattern:
    def test_canonical_pair(self, tri_band):
        tp = find_tpattern(tri_band)
        # the cut bend (base of the triangle) and the midline bend
        assert tp.param_t == pytest.approx(0.0, abs=1e-9)
        assert tp.len_t == pytest.approx(2.0 / SQRT3, abs=1e-12)
        assert tp.len_b == pytest.approx(1.0, abs=1e-12)
        assert abs(tp.residual_perp) < 1e-10
        assert abs(tp.residual_offset) < 1e-10
        # T maps onto the X-axis base, B onto the dropped vertical segment
        bend_t, bend_b = space_bends(tri_band, tp)
        assert np.allclose(np.abs(bend_t[:, 0]), T0, atol=1e-12)
        assert np.allclose(bend_t[:, 1:], 0.0, atol=1e-12)
        assert np.allclose(sorted(bend_b[:, 1]), [-1.0, 0.0], atol=1e-12)
        assert np.allclose(bend_b[:, [0, 2]], 0.0, atol=1e-12)

    def test_already_canonical_pose(self, tri_band):
        tp = find_tpattern(tri_band)
        moved = normalize_pose(tri_band, tp)
        assert np.abs(moved.space - tri_band.space).max() < 1e-12
        res = pose_residuals(*normalized_bends(tri_band, tp))
        assert max(res.values()) < 1e-12

    def test_unfold_t(self, tri_band):
        tp = find_tpattern(tri_band)
        trap, _ = develop_for(tri_band, tp)
        assert trap.t == pytest.approx(T0, abs=1e-12)
        # B sits at the trapezoid midline for the optimal band
        assert trap.u[0] == pytest.approx(0.5 * (trap.lam + trap.t), abs=1e-12)
        assert trap.v[0] == pytest.approx(0.5 * (trap.lam + trap.t), abs=1e-12)

    def test_round_trip_from_random_pose(self, tri_band):
        rng = np.random.default_rng(11)
        motion = random_motion(rng, scale=2.0)
        moved = transform(tri_band, motion)
        tp = find_tpattern(moved)
        normalized = normalize_pose(moved, tp)
        assert np.abs(normalized.space - tri_band.space).max() < 1e-10
        trap, _ = develop_for(normalized, tp)
        assert trap.t == pytest.approx(T0, abs=1e-12)


class TestWrinklePattern:
    def test_pattern_found(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        assert abs(tp.residual_perp) < 1e-10
        assert abs(tp.residual_offset) < 1e-10
        assert tp.len_b >= 1.0 - 1e-9

    def test_lip_bound_on_unfolded_t(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        trap, _ = develop_for(normalize_pose(wrinkle4, tp), tp)
        eps_excess = wrinkle4.lam - SQRT3
        assert abs(trap.t - T0) < 4.0 * eps_excess / 3.0

    def test_normalized_midpoint_at_origin(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        res = pose_residuals(*normalized_bends(wrinkle4, tp))
        assert res["t_midpoint"] < 1e-10
        assert res["t_off_axis"] < 1e-10
        assert res["b_off_axis"] < 1e-8
        assert res["b_above_axis"] < 1e-8

    def test_idempotent_normalization(self, wrinkle4):
        tp = find_tpattern(wrinkle4)
        normalized = normalize_pose(wrinkle4, tp)
        res = pose_residuals(*space_bends(normalized, find_tpattern(normalized)))
        # the re-found pattern is already normalized
        assert res["t_off_axis"] < 1e-8 and res["b_off_axis"] < 1e-8


class TestEquivariance:
    def test_same_parameters_under_rigid_motion(self, wrinkle4):
        tp0 = find_tpattern(wrinkle4)
        rng = np.random.default_rng(5)
        for _ in range(4):
            motion = random_motion(rng, scale=1.5)
            tp = find_tpattern(transform(wrinkle4, motion))
            assert tp.param_t == pytest.approx(tp0.param_t, abs=1e-6)
            assert tp.param_b == pytest.approx(tp0.param_b, abs=1e-6)
            assert abs(tp.residual_perp) < 1e-8
            assert abs(tp.residual_offset) < 1e-8

    @pytest.mark.parametrize("band_name", ["tri_band", "wrinkle4"])
    def test_improper_motion_and_recut(self, band_name, request):
        band = request.getfixturevalue(band_name)

        def unfolded_t(b):
            tp = find_tpattern(b)
            assert abs(tp.residual_perp) < 1e-10
            assert abs(tp.residual_offset) < 1e-10
            trap, _ = develop_for(normalize_pose(b, tp), tp)
            return trap.t

        t0 = unfolded_t(band)
        dev0 = verify_eff(prepare(band)).measured["deviation"]
        rng = np.random.default_rng(17)
        for _ in range(3):
            motion = random_motion(rng, scale=1.5)
            mirror = RigidMotion(-motion.rotation, motion.translation)
            cut = float(rng.uniform(0.0, band.n_bends))
            for copy in (transform(band, mirror), redevelop(band, cut)):
                assert unfolded_t(copy) == pytest.approx(t0, abs=1e-12)
                assert verify_eff(prepare(copy)).measured["deviation"] == pytest.approx(dev0, abs=1e-8)


class TestRootQuality:
    @pytest.mark.parametrize("band_name", ["tri_band", "wrinkle4"])
    def test_every_root_is_exact(self, band_name, request):
        band = request.getfixturevalue(band_name)
        rng = np.random.default_rng(23)
        motion = random_motion(rng, scale=1.5)
        mirror = RigidMotion(-motion.rotation, motion.translation)
        for copy in (band, transform(band, motion), transform(band, mirror)):
            a, k, b = _perp_roots(copy)
            assert len(b) > 0
            assert np.all((k <= b) & (b <= k + 1))
            for ai, bi in zip(a, b):
                assert abs(_perp_residual(copy, float(ai), float(bi))) <= 1e-15


class TestResidualOddness:
    def test_orientation_reversal_flips_signs(self, wrinkle4):
        n = wrinkle4.n_bends
        a, b = 10.0, 50.0
        f1 = _perp_residual(wrinkle4, a, b)
        f2 = _offset_residual(wrinkle4, a, b)
        # parameter b + N is the same bend with reversed orientation
        assert _perp_residual(wrinkle4, a, b + n) == pytest.approx(-f1, abs=1e-12)
        assert _offset_residual(wrinkle4, a, b + n) == pytest.approx(-f2, abs=1e-12)

    def test_swap_preserves_offset(self, wrinkle4):
        a, b = 10.0, 50.0
        assert _offset_residual(wrinkle4, b, a) == pytest.approx(
            _offset_residual(wrinkle4, a, b), abs=1e-12
        )


class TestUnfoldSynthetic:
    def _vertical_band(self, lam=2.0, n=12):
        xs = np.linspace(0.0, lam, n, endpoint=False)
        flat = np.zeros((n, 2, 2))
        flat[:, 0, 0] = xs
        flat[:, 1, 0] = xs
        flat[:, 1, 1] = 1.0
        space = np.zeros((n, 2, 3))
        space[:, 0, 0] = xs
        space[:, 1, 0] = xs
        space[:, 1, 1] = 1.0
        return RuledBand(lam=lam, flat=flat, space=space)

    def test_vertical_cut_gives_rectangle(self):
        band = self._vertical_band()
        tp = TPattern(
            param_t=0.0,
            param_b=6.0,
            bend_t_flat=band.flat[0],
            bend_b_flat=band.flat[6],
            len_t=1.0,
            len_b=1.0,
            residual_perp=0.0,
            residual_offset=0.0,
            pose=RigidMotion(np.eye(3), np.zeros(3)),
        )
        trap, dev = develop_for(band, tp)
        assert trap.t == pytest.approx(0.0, abs=1e-12)
        assert trap.len_h == pytest.approx(2.0)
        assert trap.len_d == pytest.approx(2.0)


class TestFailureModes:
    def test_invalid_band_rejected(self, tri_band):
        bad = scale_bend(tri_band, 3, 1.05)
        with pytest.raises(StructureError, match="validation"):
            find_tpattern(bad)


@functools.lru_cache(maxsize=None)
def _fixed_band(name: str) -> RuledBand:
    return build_triangular() if name == "triangular" else build_wrinkle(float(name))


def _scalar_candidates(band: RuledBand) -> list:
    """The all-scalar reference: the scalar residuals, then _classify_roles,
    one root at a time."""
    tol = tpattern_mod._ROOT_RESIDUAL
    a, _, b = _perp_roots(band)
    roots = [(float(x), float(y)) for x, y in zip(a, b)]
    kept = [(x, y) for x, y in roots
            if abs(_perp_residual(band, x, y)) <= tol and abs(_offset_residual(band, x, y)) <= tol]
    classified = (_classify_roles(band, x, y) for x, y in kept)
    return [c for c in classified if c is not None]


def _assert_same_candidates(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in w._fields:
            assert np.all(getattr(g, name) == getattr(w, name)), name


def _motion(seed: int, proper: bool) -> RigidMotion:
    m = random_motion(np.random.default_rng(seed), scale=1.5)
    return m if proper else RigidMotion(-m.rotation, m.translation)


def _pair_band(sa: np.ndarray, sb: np.ndarray) -> RuledBand:
    """A two-bend band holding the segments sa, sb as bends 0 and 1, so
    that _classify_roles(band, 0.0, 1.0) tests exactly this pair."""
    flat = np.zeros((2, 2, 2))
    flat[:, 1, 1] = 1.0
    return RuledBand(lam=1.0, flat=flat, space=np.stack([sa, sb]))


_EDGES = st.sampled_from([_FOOT_MARGIN, 1.0 - _FOOT_MARGIN])
# a foot a few ulps (or a few ulps of 1) off an edge of the interior range,
# or anywhere
_FEET = st.one_of(
    st.builds(lambda edge, k: edge + k * np.spacing(edge), _EDGES, st.integers(-8, 8)),
    st.builds(lambda edge, d: edge + d, _EDGES, st.floats(-1e-15, 1e-15)),
    st.floats(-0.5, 1.5),
)
# perpendicular-ish lines, and lines with 1 - c^2 around 1e-18, parallel or
# antiparallel
_ANGLES = st.one_of(
    st.floats(0.3, 0.5 * math.pi),
    st.builds(lambda t, anti: t + math.pi * anti, st.floats(0.0, 1e-8), st.integers(0, 1)),
)


class TestRoleClassification:
    """The array pass of _classify keeps exactly the candidates of the
    scalar test, with every field equal."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["triangular", "1e-3", "1e-4", "1e-5"]),
           pose=st.sampled_from([None, True, False]),
           flipped=st.booleans(),
           cut=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
           seed=st.integers(0, 2**32 - 1))
    def test_bands_match_scalar_reference(self, name, pose, flipped, cut, seed):
        band = _fixed_band(name)
        if flipped:
            band = flip(band)
        if cut is not None:
            band = redevelop(band, cut * band.n_bends)
        if pose is not None:
            band = transform(band, _motion(seed, pose))
        _assert_same_candidates(_candidates(band), _scalar_candidates(band))

    @settings(max_examples=400, deadline=None)
    @given(r1=_FEET, r2=_FEET, la=st.floats(0.1, 2.0), lb=st.floats(0.1, 2.0),
           angle=_ANGLES, gap=st.floats(-1e-9, 1e-9), seed=st.integers(0, 2**32 - 1),
           proper=st.booleans())
    def test_synthetic_pairs_match_scalar(self, r1, r2, la, lb, angle, gap, seed, proper):
        # line A along x, line B in the plane z = gap; their feet sit at the
        # fractions r1 of A and r2 of B
        ub = np.array([math.cos(angle), math.sin(angle), 0.0])
        foot = np.array([r1 * la, 0.0, gap])
        sa = np.array([[0.0, 0.0, 0.0], [la, 0.0, 0.0]])
        sb = np.array([foot - r2 * lb * ub, foot + (1.0 - r2) * lb * ub])
        motion = _motion(seed, proper)
        sa, sb = motion.apply(sa), motion.apply(sb)
        want = _classify_roles(_pair_band(sa, sb), 0.0, 1.0)
        # no residual bound, so only the roles decide; a context, not the
        # fixture: hypothesis runs many examples per test call
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tpattern_mod, "_ROOT_RESIDUAL", math.inf)
            _, _, got = _classify(np.array([0]), np.array([1.0]), sa[None], sb[None])
        _assert_same_candidates(got, [] if want is None else [want])


class TestOnePatternPerPair:
    """The deck transformation b -> b + N lists a pattern once per
    orientation of a bend; the best pattern and its alternates hold each
    unordered bend pair once."""

    @pytest.mark.parametrize("copy", ["unposed", "flipped", "proper", "improper"])
    @pytest.mark.parametrize("name,count", [("triangular", 3), ("1e-3", 2), ("1e-4", 2), ("1e-5", 2)])
    def test_each_pair_once(self, name, count, copy):
        band = _fixed_band(name)
        if copy == "flipped":
            band = flip(band)
        elif copy != "unposed":
            band = transform(band, _motion(19, copy == "proper"))
        tp = find_tpattern(band)
        pairs = [(tp.param_t, tp.param_b)] + [(a["alpha"], a["beta"]) for a in tp.alternates]
        assert len({frozenset(round(p) % band.n_bends for p in pair) for pair in pairs}) == len(pairs)
        assert len(pairs) == count

    def test_near_integer_t_reads_as_its_bend(self):
        # the T leaf 87.99999999999999 lies within 1e-12 of bend 88, the end
        # leaf of a door's fan; read as a leaf of the bracket (87, 88) inside
        # that fan, it would lose the tie to its pair's other representative
        # (88, 148)
        tp = find_tpattern(transform(_fixed_band("1e-3"), _motion(19, False)))
        assert (tp.param_t, tp.param_b) == (87.99999999999999, 20.0)
        assert [(a["alpha"], a["beta"]) for a in tp.alternates] == [(40.0, 108.0)]
