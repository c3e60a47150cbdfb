import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from simplexreg import cubature, estimators, mesh_design_points, voronoi_partition
from simplexreg.app import barycentric_grid
from simplexreg.cubature import (
    _tri_areas,
    fan_triangulation,
    integrate_cells_batch,
    root_triangles,
)
from simplexreg.geometry import CLIP_TOL, DEDUP_TOL, SIMPLEX_TRIANGLE


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


def integrate_one_cell(f_batch, cell, n_components, cfg=None, scale=0.0):
    """:func:`integrate_cells_batch` over the one ``cell`` from its roots at
    ``scale``: its ``(n_components,)`` values and errors, its flag and its
    triangle count."""
    roots = root_triangles([cell], scale)
    values, errors, converged, triangles = integrate_cells_batch(f_batch, roots, n_components, cfg)
    return values[0], errors[0], bool(converged[0]), int(triangles[0])


def count_first_rounds(monkeypatch):
    """A list that gets the triangle count of every first-round evaluation
    :func:`integrate_cells_batch` makes from here on: the rule evaluations
    it makes itself, not those of its refinement."""
    sizes = []
    real = cubature._eval_rules

    def counted(f_batch, coords, cols):
        if sys._getframe(1).f_code is integrate_cells_batch.__code__:
            sizes.append(coords.shape[0])
        return real(f_batch, coords, cols)

    monkeypatch.setattr(cubature, "_eval_rules", counted)
    return sizes


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


def clip_halfplane_oracle(vertices, normal, offset):
    """Sutherland-Hodgman clip of a convex ring against ``normal . x <=
    offset``, its vertex walk on numpy rows; a ring inside the half-plane
    comes back as the same object."""
    if vertices.shape[0] == 0:
        return vertices
    values = vertices @ normal - offset
    scale = max(1.0, float(np.abs(values).max()))
    inside = values <= CLIP_TOL * scale
    if np.all(inside):
        return vertices
    out = []
    m = vertices.shape[0]
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vertices[i], vertices[j]
        fi, fj = values[i], values[j]
        if inside[i]:
            out.append(vi)
        if inside[i] != inside[j]:
            t = fi / (fi - fj)
            out.append(vi + t * (vj - vi))
    return np.array(out) if out else np.empty((0, 2))


def dedup_ring_oracle(vertices, tol=DEDUP_TOL):
    """The ring deduplication on numpy rows."""
    if vertices.shape[0] == 0:
        return vertices
    keep = [vertices[0]]
    for v in vertices[1:]:
        if np.linalg.norm(v - keep[-1]) > tol:
            keep.append(v)
    if len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= tol:
        keep.pop()
    return np.array(keep)


def nearest_first_cell_oracle(s, sites, domain=SIMPLEX_TRIANGLE):
    """The Voronoi cell of ``s`` (one of ``sites``) by a scalar vertex walk
    on numpy rows: the sites by distance, then x, then y, each clipped in
    turn, until the next site is beyond twice the cell's radius (times
    1 + 1e-9).  Returns the deduplicated ring and the number of clips that
    changed the cell."""
    by_xy = sites[np.lexsort((sites[:, 1], sites[:, 0]))]
    to_sites = by_xy - s
    dists = np.linalg.norm(to_sites, axis=1)
    poly, changes = domain, 0
    reach = (1.0 + 1e-9) * 2.0 * np.sqrt(((poly - s) ** 2).sum(axis=1)).max()
    for k in np.argsort(dists, kind="stable")[1:]:
        if dists[k] > reach:
            break
        t = by_xy[k]
        clipped = clip_halfplane_oracle(poly, to_sites[k], 0.5 * (t @ t - s @ s))
        if clipped is poly:
            continue
        poly, changes = clipped, changes + 1
        if poly.shape[0] < 3:
            break
        reach = (1.0 + 1e-9) * 2.0 * np.sqrt(((poly - s) ** 2).sum(axis=1)).max()
    return dedup_ring_oracle(poly), changes


def split_at_line_oracle(polys, normal, offset):
    """Every piece clipped on both sides by :func:`clip_halfplane_oracle`,
    areas from fan triangles."""
    out = []
    for poly in polys:
        lo = dedup_ring_oracle(clip_halfplane_oracle(poly, normal, offset))
        hi = dedup_ring_oracle(clip_halfplane_oracle(poly, -normal, -offset))
        pieces = [
            p
            for p in (lo, hi)
            if p.shape[0] >= 3 and _tri_areas(fan_triangulation(p)).sum() > 1e-16
        ]
        out.extend(pieces if pieces else [poly])
    return out


def graded_roots_oracle(vertices, scale):
    """Graded root triangles by :func:`split_at_line_oracle`: bands at
    ``scale * 4^k`` (up to 0.2) from each simplex edge, then centroid fans."""
    polys = [np.asarray(vertices, dtype=float)]
    for normal in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])):
        base = -1.0 if normal[0] < 0 else 0.0
        for k in range(12):
            level = base + scale * 4.0**k
            if level - base > 0.2:
                break
            polys = split_at_line_oracle(polys, normal, level)
    return np.concatenate([fan_triangulation(p) for p in polys])


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
