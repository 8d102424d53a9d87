import inspect
import math
import os
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from moebiusband.band import build_triangular, build_wrinkle
from moebiusband.flatmodel import FlatTrapezoid
from moebiusband.geom import RigidMotion, StructureError, point_segment_distance
from moebiusband.verify import prepare

# The CLI tests run `python -m moebiusband.cli` in child processes, which
# must import the package from the same src/ as the tests; the pytest
# `pythonpath` setting reaches only this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def replace(value, **changes):
    """A new value of the same class, from the constructor arguments read off
    `value` with `changes` in place of some; the constructor validates it
    afresh.  An unknown name in `changes` is a TypeError."""
    names = inspect.signature(type(value)).parameters
    return type(value)(**({name: getattr(value, name) for name in names} | changes))


def densify_segment(a, b, eta: float) -> np.ndarray:
    """Points along the segment a-b at spacing <= eta (both ends included)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(1, int(np.ceil(np.linalg.norm(b - a) / eta)))
    t = np.linspace(0.0, 1.0, n + 1)
    return a[None, :] + t[:, None] * (b - a)[None, :]


def densify_polyline(points, eta: float, closed: bool = False) -> np.ndarray:
    """Sample a polyline at spacing <= eta; vertices are always included."""
    pts = np.asarray(points, dtype=float)
    out = [densify_segment(a, b, eta)[:-1] for a, b in zip(pts[:-1], pts[1:])]
    if closed:
        out.append(densify_segment(pts[-1], pts[0], eta)[:-1])
    else:
        out.append(pts[-1][None, :])
    return np.vstack(out)


def boundary_loop(band) -> np.ndarray:
    """The image of the band's boundary circle as its bend ends: the bottom
    feet in bend order, then, across the glued cut, the top feet."""
    return np.vstack([band.space[:, 0], band.space[:, 1]])


def scale_bend(band, index: int, factor: float):
    """Copy of the band with one space segment scaled about its midpoint
    (an injected isometry defect, for negative controls)."""
    space = band.space.copy()
    mid = 0.5 * (space[index, 0] + space[index, 1])
    space[index] = mid + factor * (space[index] - mid)
    return replace(band, space=space)


def random_motion(rng: np.random.Generator, scale: float = 1.0) -> RigidMotion:
    """Haar-ish random proper rotation plus a bounded random translation."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidMotion(q, rng.uniform(-scale, scale, size=3))


def midline_trapezoid(lam: float, t: float) -> FlatTrapezoid:
    """Development of M_lambda cut along a chord of displacement t, with the
    distinguished chord on the trapezoid midline: u and v sit at the
    midpoints of the top and bottom sides."""
    if not (lam > 0.0 and math.isfinite(lam) and math.isfinite(t)):
        raise StructureError("need a positive finite aspect ratio")
    return FlatTrapezoid(lam=lam, t=t, u=np.array([0.5 * (t + lam), 1.0]),
                         v=np.array([0.5 * (lam + t), 0.0]))


@pytest.fixture(scope="session")
def tri_band():
    return build_triangular()


@pytest.fixture(scope="session")
def wrinkle4():
    return build_wrinkle(1e-4)


@pytest.fixture(scope="session")
def tri_state(tri_band):
    return prepare(tri_band)


@pytest.fixture(scope="session")
def wrinkle4_state(wrinkle4):
    return prepare(wrinkle4)


def _samples_to_loop(samples, vertices):
    """max over the samples of the distance to the closed polyline through
    the vertices, measured against its exact edges, one edge at a time."""
    ends = np.roll(vertices, -1, axis=0)
    return float(reduce(np.minimum, (point_segment_distance(samples, a, b)
                                     for a, b in zip(vertices, ends))).max())


@pytest.fixture(scope="session")
def loop_hausdorff():
    """Hausdorff distance between two closed polylines, given by their
    vertices: the samples of each at spacing eta against the exact edges of
    the other.  Within eta of the exact value, and never above the
    sample-to-sample distance."""
    def hausdorff(a, b, eta):
        return max(_samples_to_loop(densify_polyline(a, eta, closed=True), b),
                   _samples_to_loop(densify_polyline(b, eta, closed=True), a))
    return hausdorff
