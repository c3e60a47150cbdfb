import numpy as np
import pytest
from hypothesis import strategies as st

from simplexreg import mesh_design_points, voronoi_partition


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
