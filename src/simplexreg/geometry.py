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
from .kernel import WEIGHT_BLOCK_BYTES, last_coordinate, validate_points

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


def _clip_rings(rings: np.ndarray, counts: np.ndarray, normals: np.ndarray, offsets):
    """Sutherland-Hodgman clip of convex rings, each against its own
    half-plane ``normal . x <= offset``, in one array pass.

    ``rings`` (B, M, 2) holds ring i in its first ``counts[i]`` rows (the
    rest is padding).  Returns ``(changed, clipped, sizes)``: the indices
    of the rings the clip changes, and those rings clipped, padded to the
    largest of their ``sizes``; every other ring lies inside its
    half-plane, within ``CLIP_TOL`` relative to its largest bisector value,
    and stays as it is.  A vertex walk visits each vertex in turn, keeping
    it if inside and then the crossing of its edge to the next vertex if
    the edge crosses the line; the same IEEE operations run here on arrays,
    so a clip gives the walk's bits.  The bisector values are one stacked
    ``matmul``: each row is the matrix-vector product of its ring alone.
    """
    M = rings.shape[1]
    f = np.matmul(rings, normals[:, :, None])[:, :, 0]
    f -= offsets[:, None]
    pad = np.arange(M) >= counts[:, None]
    scale = np.abs(f)
    scale[pad] = 0.0
    tol = CLIP_TOL * np.maximum(1.0, scale.max(axis=1))
    inside = f <= tol[:, None]
    inside[pad] = True
    changed = np.flatnonzero(~inside.all(axis=1))
    if changed.size == 0:
        return changed, rings[:0], counts[:0]
    rings, f, inside, counts = rings[changed], f[changed], inside[changed], counts[changed]
    # whether the next vertex around the ring is inside; padding stays
    # inside, so no edge crosses there
    inside_next = np.ones_like(inside)
    inside_next[:, :-1] = inside[:, 1:]
    inside_next[np.arange(changed.size), counts - 1] = inside[:, 0]
    cross = inside != inside_next
    keep = inside & ~pad[changed]
    # each vertex writes itself if kept, then its edge's crossing
    end = np.cumsum(keep.view(np.int8) + cross.view(np.int8), axis=1, dtype=np.intp)
    sizes = end[:, -1]
    out = np.zeros((changed.size, sizes.max(), 2))
    row, col = np.nonzero(keep)
    out[row, end[row, col] - 1 - cross[row, col]] = rings[row, col]
    row, col = np.nonzero(cross)
    col_next = np.where(col + 1 < counts[row], col + 1, 0)
    fi, fj = f[row, col], f[row, col_next]
    t = fi / (fi - fj)
    a = rings[row, col]
    out[row, end[row, col] - 1] = a + t[:, None] * (rings[row, col_next] - a)
    return changed, out, sizes


def _dedup_ring(vertices: np.ndarray) -> np.ndarray:
    """Drop each vertex within ``DEDUP_TOL`` of the last one kept, and the
    last kept if it is within ``DEDUP_TOL`` of the first (on Python floats,
    which keep the bits of the numpy distances)."""
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


def _reach(rings: np.ndarray, counts: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``_SKIP_MARGIN * 2 * max_v |v - s|`` over each ring's vertices, for
    the sites ``s`` (B, 2)."""
    d = rings - s[:, None, :]
    r2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    r2[np.arange(rings.shape[1]) >= counts[:, None]] = 0.0
    return _SKIP_MARGIN * 2.0 * np.sqrt(r2.max(axis=1, initial=0.0))


def _nearest_first_cells(S: np.ndarray, by_xy: np.ndarray, sq, domain) -> list[np.ndarray]:
    """:func:`voronoi_cell` of each site of ``S``, all of them among the
    sites ``by_xy`` (sorted by x, then y, with ``sq[k] = by_xy[k] @
    by_xy[k]``), walked in lockstep.

    A stable sort by distance visits each site itself first and the others
    by distance, x and y.  Step k clips every cell still walking against
    the bisector of its k-th site, in one :func:`_clip_rings` call; a cell
    stops at its first site beyond its reach or when fewer than three
    vertices are left.
    """
    B = S.shape[0]
    diff = by_xy[None, :, :] - S[:, None, :]
    diff *= diff
    dists = diff[..., 0] + diff[..., 1]  # as np.linalg.norm(..., axis=-1)
    del diff
    np.sqrt(dists, out=dists)
    order = np.argsort(dists, axis=1, kind="stable")
    if by_xy.shape[0] > 1:
        nearest = np.take_along_axis(dists, order[:, 1:2], axis=1)[:, 0]
        if (nearest <= 1e-12).any():
            raise DegenerateSiteError(f"coincident sites at {S[np.argmax(nearest <= 1e-12)]}")
    ss = np.matmul(S[:, None, :], S[:, :, None])[:, 0, 0]
    domain = np.asarray(domain, dtype=float)
    rings = np.repeat(domain[None], B, axis=0)
    counts = np.full(B, domain.shape[0])
    reach = _reach(rings, counts, S)
    live = np.arange(B)
    for k in range(1, by_xy.shape[0]):
        live = live[dists[live, order[live, k]] <= reach[live]]
        if live.size == 0:
            break
        t = order[live, k]
        # points closer to s than t: (t - s) . x <= (|t|^2 - |s|^2) / 2
        changed, clipped, sizes = _clip_rings(
            rings[live], counts[live], by_xy[t] - S[live], 0.5 * (sq[t] - ss[live])
        )
        if changed.size == 0:
            continue
        cells = live[changed]
        if clipped.shape[1] > rings.shape[1]:
            pad = np.zeros((B, clipped.shape[1] - rings.shape[1], 2))
            rings = np.concatenate([rings, pad], axis=1)
        rings[cells, : clipped.shape[1]] = clipped
        counts[cells] = sizes
        reach[cells] = _reach(clipped, sizes, S[cells])
        live = live[counts[live] >= 3]
    return [_dedup_ring(ring[:count]) for ring, count in zip(rings, counts)]


def _sorted_sites(sites: np.ndarray):
    """The sites by x, then y, and each one's ``t @ t`` (a stacked
    ``matmul``, which gives the bits of the per-site ``@``)."""
    by_xy = sites[np.lexsort((sites[:, 1], sites[:, 0]))]
    return by_xy, np.matmul(by_xy[:, None, :], by_xy[:, :, None])[:, 0, 0]


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
    O(n log n) per cell.
    """
    s = np.asarray(site, dtype=float).reshape(1, 2)
    sites = np.vstack([np.asarray(other_sites, dtype=float).reshape(-1, 2), s])
    return _nearest_first_cells(s, *_sorted_sites(sites), domain)[0]


def voronoi_partition(sites) -> SimplexPartition:
    """Voronoi partition of the simplex triangle for distinct interior sites.

    Every cell is :func:`voronoi_cell` of its site against the others, and
    the cells walk in lockstep, one row block of sites at a time: a block's
    coordinate differences to all n sites, from which its distances and
    visiting order come, take at most ``WEIGHT_BLOCK_BYTES``, so memory
    stays bounded however many sites there are.  Permuting the sites
    permutes the cells: each cell is the same polygon, bit for bit,
    whatever the order of the sites or the blocks.
    """
    pts = validate_points(sites, dim=2)
    by_xy, sq = _sorted_sites(pts)
    rows = max(1, WEIGHT_BLOCK_BYTES // (16 * pts.shape[0]))
    rings = []
    for lo in range(0, pts.shape[0], rows):
        rings += _nearest_first_cells(pts[lo : lo + rows], by_xy, sq, SIMPLEX_TRIANGLE)
    cells = []
    for i, (s, verts) in enumerate(zip(pts, rings)):
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
