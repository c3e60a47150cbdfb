"""Design meshes, Voronoi partitions of the 2-simplex, and uniform sampling.

The fixed design used throughout the simulation study is a triangular mesh of
``n = k(k+1)/2`` points strictly inside ``S_2``.  Each design point gets the
convex polygonal cell obtained by intersecting its Voronoi region with the
simplex triangle; the cells partition the simplex up to boundary sets of
measure zero.  Partition construction is single-threaded; the resulting
objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSiteError, DomainError
from .kernel import last_coordinate, validate_points

CLIP_TOL = 1e-12
DEDUP_TOL = 1e-10
# relative slack on the early-stop test of voronoi_cell, far above rounding
_SKIP_MARGIN = 1.0 + 1e-9

SIMPLEX_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class ConvexCell:
    """Convex polygon (counterclockwise vertices) around one design site."""

    vertices: np.ndarray  # (m, 2)
    site: np.ndarray  # (2,)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise DomainError(f"cell needs >= 3 planar vertices, got {v.shape}")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "site", np.asarray(self.site, dtype=float))
        cross = _edge_crosses(v)
        if min(cross) < -1e-12 * max(1.0, max(map(abs, cross))):
            raise DomainError("cell vertices are not in convex ccw order")
        if not _point_strictly_inside(self.site.tolist(), v):
            raise DomainError("site does not lie strictly inside its cell")

    @cached_property
    def area(self) -> float:
        # the vertices never change; GM weights ask at every bandwidth
        return cell_area(self)

    @property
    def diameter(self) -> float:
        return cell_diameter(self)


@dataclass(frozen=True)
class SimplexPartition:
    """Voronoi partition of ``S_2``: one convex cell per design site."""

    cells: tuple[ConvexCell, ...]
    dimension: int = 2

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def sites(self) -> np.ndarray:
        return np.array([c.site for c in self.cells])

    def total_area(self) -> float:
        return float(sum(c.area for c in self.cells))

    def locate(self, point) -> int:
        """Index of the cell containing ``point`` (nearest site)."""
        p = np.asarray(point, dtype=float)
        d2 = np.sum((self.sites - p) ** 2, axis=1)
        return int(np.argmin(d2))

    def to_json_dict(self) -> dict:
        """JSON-ready description (sites and vertex lists) for plotting."""
        return {
            "dimension": self.dimension,
            "cells": [
                {
                    "site": [float(v) for v in c.site],
                    "vertices": [[float(a) for a in row] for row in c.vertices],
                }
                for c in self.cells
            ],
        }


def _shifted(v: np.ndarray, k: int = 1) -> np.ndarray:
    """``np.roll(v, -k, axis=0)`` for ``0 <= k <= len(v)``, without its
    argument handling: row i is row ``i + k`` (mod ``len(v)``)."""
    return np.concatenate((v[k:], v[:k]))


def _edge_crosses(vertices: np.ndarray) -> list[float]:
    """``(v[i+1] - v[i]) x (v[i+2] - v[i])`` for each vertex i, indices mod
    the vertex count (positive where the ring turns left), on Python floats."""
    a = vertices.tolist()
    b, c = a[1:] + a[:1], a[2:] + a[:2]
    return [
        (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        for (ax, ay), (bx, by), (cx, cy) in zip(a, b, c)
    ]


def _point_strictly_inside(p, vertices: np.ndarray) -> bool:
    px, py = p
    a = vertices.tolist()
    for (ax, ay), (bx, by) in zip(a, a[1:] + a[:1]):
        dx, dy = bx - ax, by - ay
        if not dx * (py - ay) - dy * (px - ax) > 1e-12 * math.sqrt(dx * dx + dy * dy):
            return False
    return True


def mesh_design_points(k: int) -> np.ndarray:
    """Triangular mesh of ``n = k(k+1)/2`` design points inside ``S_2``.

    The points are ``((w(i-1) + 1/2), (w(k-j) + 1/2)) / (k+1)`` over pairs
    ``1 <= i <= j <= k`` with inset factor ``w = (k - 1/sqrt(2)) / (k - 1)``,
    which keeps every point strictly interior with spacing of order ``1/k``.
    """
    if k < 2:
        raise ValueError(f"mesh needs k >= 2, got {k}")
    w = (k - 1.0 / np.sqrt(2.0)) / (k - 1.0)
    pts = [
        ((w * (i - 1) + 0.5) / (k + 1), (w * (k - j) + 0.5) / (k + 1))
        for j in range(1, k + 1)
        for i in range(1, j + 1)
    ]
    return np.array(pts)


def _clip_halfplane(vertices: np.ndarray, normal, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against n . x <= offset.

    The vertex walk runs on Python floats: each step is the IEEE operation
    numpy would do on one element, at a fraction of numpy's per-call cost.
    """
    if vertices.shape[0] == 0:
        return vertices
    f = (vertices @ normal - offset).tolist()
    tol = CLIP_TOL * max(1.0, max(map(abs, f)))
    ins = [v <= tol for v in f]
    if all(ins):
        return vertices
    pts = vertices.tolist()
    out: list[list[float]] = []
    for i in range(len(pts)):
        j = i + 1 if i + 1 < len(pts) else 0
        if ins[i]:
            out.append(pts[i])
        if ins[i] != ins[j]:
            (xi, yi), (xj, yj) = pts[i], pts[j]
            t = f[i] / (f[i] - f[j])
            out.append([xi + t * (xj - xi), yi + t * (yj - yi)])
    return np.array(out) if out else np.empty((0, 2))


def _radius(vertices: np.ndarray, s) -> float:
    """``max_v |v - s|`` for ``s = (x, y)``, on Python floats as in
    :func:`_clip_halfplane`."""
    sx, sy = s
    return math.sqrt(
        max((x - sx) * (x - sx) + (y - sy) * (y - sy) for x, y in vertices.tolist())
    )


def _dedup_ring(vertices: np.ndarray) -> np.ndarray:
    """Drop each vertex within ``DEDUP_TOL`` of the last one kept, and the
    last kept if it is within ``DEDUP_TOL`` of the first (on Python floats,
    as in :func:`_clip_halfplane`)."""
    if vertices.shape[0] == 0:
        return vertices

    def apart(p, q) -> bool:
        dx, dy = p[0] - q[0], p[1] - q[1]
        return math.sqrt(dx * dx + dy * dy) > DEDUP_TOL

    pts = vertices.tolist()
    keep = [pts[0]]
    for p in pts[1:]:
        if apart(p, keep[-1]):
            keep.append(p)
    if len(keep) > 1 and not apart(keep[0], keep[-1]):
        keep.pop()
    return np.array(keep)


def voronoi_cell(site, other_sites, domain: np.ndarray = SIMPLEX_TRIANGLE) -> np.ndarray:
    """Vertices of the Voronoi region of ``site`` clipped to ``domain``.

    Iterated half-plane clipping against the perpendicular bisector of the
    site and each other site, nearest first: the other sites are visited by
    distance from ``site``, ties broken by x and then by y, so the cell does
    not depend on the order of ``other_sites``.

    The walk stops at the first site ``t`` farther than twice the cell's
    radius ``R = max_v |v - s|`` from ``s``: every vertex is then strictly
    nearer ``s`` than ``t`` and than every later site, so no later clip
    could change the cell.  The cell only shrinks, so ``R`` is recomputed
    after each clip that changes it.  Near sites cut the cell down first,
    so on a mesh or a uniform sample a cell takes about a dozen clips
    whatever the number of sites; what grows with n is the distance sort,
    O(n log n) per cell in numpy.
    """
    s = np.asarray(site, dtype=float)
    sites = np.vstack([np.asarray(other_sites, dtype=float).reshape(-1, 2), s])
    by_xy = sites[np.lexsort((sites[:, 1], sites[:, 0]))]
    return _nearest_first_cell(s, by_xy, domain)


def _nearest_first_cell(s: np.ndarray, by_xy: np.ndarray, domain) -> np.ndarray:
    """:func:`voronoi_cell` for all sites, ``s`` among them, already sorted
    by x, then y: a stable sort by distance then visits ``s`` first and the
    others by distance, x and y.  The walk's scalars are Python floats; the
    bisector values stay one numpy product per clip."""
    poly = np.asarray(domain, dtype=float)
    to_sites = by_xy - s
    dists = np.linalg.norm(to_sites, axis=1)
    order = np.argsort(dists, kind="stable").tolist()
    dists = dists.tolist()
    if len(order) > 1 and dists[order[1]] <= 1e-12:
        raise DegenerateSiteError(f"coincident sites at {s}")
    s_xy, ss = s.tolist(), s @ s
    reach = _SKIP_MARGIN * 2.0 * _radius(poly, s_xy)
    for k in order[1:]:
        if dists[k] > reach:
            break
        t = by_xy[k]
        # points closer to s than t: (t - s) . x <= (|t|^2 - |s|^2) / 2
        clipped = _clip_halfplane(poly, to_sites[k], 0.5 * (t @ t - ss))
        if clipped is poly:
            continue
        poly = clipped
        if poly.shape[0] < 3:
            break
        reach = _SKIP_MARGIN * 2.0 * _radius(poly, s_xy)
    return _dedup_ring(poly)


def voronoi_partition(sites) -> SimplexPartition:
    """Voronoi partition of the simplex triangle for distinct interior sites.

    Permuting the sites permutes the cells: each cell is the same polygon,
    bit for bit, whatever the order of the sites.
    """
    pts = validate_points(sites, dim=2)
    by_xy = pts[np.lexsort((pts[:, 1], pts[:, 0]))]  # the sites by x, then y
    cells = []
    for i, s in enumerate(pts):
        verts = _nearest_first_cell(s, by_xy, SIMPLEX_TRIANGLE)
        if verts.shape[0] < 3:
            raise DegenerateSiteError(f"site {i} produced an empty cell")
        cells.append(ConvexCell(vertices=verts, site=s))
    return SimplexPartition(cells=tuple(cells))


def cell_area(cell: ConvexCell | np.ndarray) -> float:
    """Polygon area by the shoelace formula."""
    v = cell.vertices if isinstance(cell, ConvexCell) else np.asarray(cell, float)
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * abs(np.dot(x, _shifted(y)) - np.dot(y, _shifted(x))))


def cell_diameter(cell: ConvexCell | np.ndarray) -> float:
    """Largest distance between two points of a convex polygon.

    For convex polygons the maximum is attained at a vertex pair, so the
    brute-force pairwise maximum suffices.
    """
    v = cell.vertices if isinstance(cell, ConvexCell) else np.asarray(cell, float)
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def uniform_simplex_sample(count: int, seed, dim: int = 2) -> np.ndarray:
    """Independent uniform draws on ``S_d``, deterministic given ``seed``.

    Uses normalized exponential gaps (equivalently the spacings of sorted
    uniforms): with ``E_1..E_{d+1}`` iid exponential, the first d coordinates
    of ``E / sum(E)`` are uniform on the simplex.  ``seed`` is anything
    ``numpy.random.default_rng`` accepts (an integer or a SeedSequence).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(size=(count, dim + 1))
    return gaps[:, :dim] / gaps.sum(axis=1, keepdims=True)


__all__ = [
    "ConvexCell",
    "SimplexPartition",
    "SIMPLEX_TRIANGLE",
    "mesh_design_points",
    "voronoi_cell",
    "voronoi_partition",
    "cell_area",
    "cell_diameter",
    "uniform_simplex_sample",
    "last_coordinate",
]
