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
        if np.any(cross < -1e-12 * max(1.0, np.abs(cross).max())):
            raise DomainError("cell vertices are not in convex ccw order")
        if not _point_strictly_inside(self.site, v):
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


def _edge_crosses(vertices: np.ndarray) -> np.ndarray:
    a = vertices
    b = _shifted(vertices, 1)
    c = _shifted(vertices, 2)
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )


def _point_strictly_inside(p, vertices: np.ndarray) -> bool:
    a = vertices
    b = _shifted(vertices)
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        p[0] - a[:, 0]
    )
    return bool(np.all(cross > 1e-12 * np.linalg.norm(b - a, axis=1)))


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
    values = vertices @ normal - offset
    scale = max(1.0, float(np.abs(values).max()))
    inside = values <= CLIP_TOL * scale
    if np.all(inside):
        return vertices
    pts, f, ins = vertices.tolist(), values.tolist(), inside.tolist()
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


def _radius(vertices: np.ndarray, s: np.ndarray) -> float:
    return float(np.sqrt(((vertices - s) ** 2).sum(axis=1)).max())


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
    others = np.asarray(other_sites, dtype=float).reshape(-1, 2)
    by_xy = others[np.lexsort((others[:, 1], others[:, 0]))]
    return _nearest_first_cell(np.asarray(site, dtype=float), by_xy, domain)


def _nearest_first_cell(s: np.ndarray, by_xy: np.ndarray, domain) -> np.ndarray:
    """:func:`voronoi_cell` for other sites already sorted by x, then y: a
    stable sort by distance then visits them by distance, x and y."""
    poly = np.asarray(domain, dtype=float)
    dists = np.linalg.norm(by_xy - s, axis=1)
    order = np.argsort(dists, kind="stable")
    if order.size and dists[order[0]] <= 1e-12:
        raise DegenerateSiteError(f"coincident sites at {s}")
    reach = _SKIP_MARGIN * 2.0 * _radius(poly, s)
    for k in order:
        if dists[k] > reach:
            break
        t = by_xy[k]
        # points closer to s than t: (t - s) . x <= (|t|^2 - |s|^2) / 2
        clipped = _clip_halfplane(poly, t - s, 0.5 * (t @ t - s @ s))
        if clipped is poly:
            continue
        poly = clipped
        if poly.shape[0] < 3:
            break
        reach = _SKIP_MARGIN * 2.0 * _radius(poly, s)
    return _dedup_ring(poly)


def voronoi_partition(sites) -> SimplexPartition:
    """Voronoi partition of the simplex triangle for distinct interior sites.

    Permuting the sites permutes the cells: each cell is the same polygon,
    bit for bit, whatever the order of the sites.
    """
    pts = validate_points(sites, dim=2)
    rank = np.lexsort((pts[:, 1], pts[:, 0]))  # the sites by x, then y
    by_xy = pts[rank]
    cells = []
    for i, r in enumerate(np.argsort(rank)):  # r: where site i sits in by_xy
        verts = _nearest_first_cell(pts[i], np.delete(by_xy, r, axis=0), SIMPLEX_TRIANGLE)
        if verts.shape[0] < 3:
            raise DegenerateSiteError(f"site {i} produced an empty cell")
        cells.append(ConvexCell(vertices=verts, site=pts[i]))
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
