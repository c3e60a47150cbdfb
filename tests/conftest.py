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


def shrunken_psi_integral(eps):
    """Exact integral of ``psi_J`` over the eps-shrunken simplex.

    With ``c = 1 - x1`` the inner integral of ``(x2 (c - x2))^(-1/2)`` over
    ``eps <= x2 <= c - eps`` is ``[asin(2 x2 / c - 1)]``, which leaves
    ``(1/4 pi) int_eps^(1-2eps) x1^(-1/2) [asin(2 x2/c - 1)]_eps^(c-eps) dx1``,
    a 1-D integral that ``scipy.integrate.quad`` evaluates to near machine
    precision.
    """
    from scipy.integrate import quad

    def inner(x1):
        c = 1.0 - x1
        return x1**-0.5 * (np.arcsin(1.0 - 2.0 * eps / c) - np.arcsin(2.0 * eps / c - 1.0))

    breaks = [2.0 * eps, 10.0 * eps, 0.5, 1.0 - 10.0 * eps]
    value, _ = quad(inner, eps, 1.0 - 2.0 * eps, limit=500, points=breaks)
    return value / (4.0 * np.pi)


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
