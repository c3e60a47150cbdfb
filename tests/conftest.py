import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from simplexreg import estimators, mesh_design_points, voronoi_partition
from simplexreg.app import barycentric_grid


@pytest.fixture(scope="session")
def mesh7():
    return mesh_design_points(7)


@pytest.fixture(scope="session")
def partition7(mesh7):
    return voronoi_partition(mesh7)


@pytest.fixture(scope="session")
def mesh10():
    return mesh_design_points(10)


@pytest.fixture(scope="session")
def partition10(mesh10):
    return voronoi_partition(mesh10)


@pytest.fixture(scope="session")
def mesh14():
    return mesh_design_points(14)


@pytest.fixture(scope="session")
def partition14(mesh14):
    return voronoi_partition(mesh14)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_interior_points(count, seed, margin=0.02):
    """Uniform simplex points pulled away from the boundary."""
    from simplexreg import uniform_simplex_sample

    pts = uniform_simplex_sample(count, seed)
    return pts * (1.0 - 3.0 * margin) + margin


def edge_design():
    """Design points on the simplex edges only: interior evaluation points
    lose every weight, edge points see collinear points, corners solve."""
    G = barycentric_grid(10)
    return G[np.minimum(G.min(axis=1), 1.0 - G.sum(axis=1)) <= 1e-12]


def force_blocks(monkeypatch, n, rows=16):
    """Set the NW/LL weight budget to ``rows`` rows of an n-column matrix."""
    monkeypatch.setattr(estimators, "WEIGHT_BLOCK_BYTES", 8 * n * rows)


def peak_traced_bytes(fn):
    """Run ``fn()`` under tracemalloc; return the peak of the bytes it held
    at once, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@st.composite
def near_simplex_points(draw):
    """(n, 2) points on or near the simplex: each coordinate may sit up to
    4e-13 outside it, within the validation tolerance."""
    noise = st.floats(-4e-13, 4e-13)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.floats(0.0, 1.0))
        b = draw(st.floats(0.0, 1.0)) * (1.0 - a)
        rows.append([a + draw(noise), b + draw(noise)])
    return np.array(rows)
