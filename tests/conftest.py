import numpy as np
import pytest

from moebiusband.band import build_triangular, build_wrinkle
from moebiusband.geom import densify_polyline, points_segment_distance
from moebiusband.verify import prepare


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
    the vertices, measured against its exact edges."""
    ends = np.roll(vertices, -1, axis=0)
    return float(np.minimum.reduce(
        [points_segment_distance(samples, a, b) for a, b in zip(vertices, ends)]
    ).max())


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
