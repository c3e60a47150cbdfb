"""Error-controlled integration over convex polygons and the 2-simplex.

One engine, :func:`integrate_cells_batch`, integrates a vector-valued
integrand over several convex cells from their root triangulations
(:func:`root_triangles`): the centroid fan or, where the integrand has a
layer of known thickness along the simplex edges (the Gasser-Muller kernel
at bandwidth b, the boundary-singular variance constant over the simplex
shrunk by eps), bands graded toward those edges at that scale.  It
evaluates the cells' first rounds together and refines each cell that did
not pass by bisecting triangles along their longest edge;
:func:`integrate_polygon` and :func:`integrate_simplex` are its one-cell
calls.  Each triangle carries an embedded pair of symmetric quadrature
rules (degree 5 with 7 points, degree 7 with 13 points; they share the
centroid, so 19 evaluations per triangle); the difference between the two
rules is the local error estimate and the degree-7 value is the one
committed.

Every component refines until it meets ``max(relative_tolerance * |value|,
absolute_floor)``, sharing all function evaluations across components,
which makes the Gasser-Muller weights of a thousand evaluation points at
once affordable.  Their caller raises the floor to a tenth of the relative
tolerance shared among the cells, since the weights of a row sum to 1.

Running out of subdivision depth is reported through the ``converged`` flag
of the result, never silently and never as an exception: batch evaluation
near simplex corners must degrade gracefully where the kernel is extremely
peaked and the weights are astronomically small.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import MismatchError
from .geometry import (
    SIMPLEX_TRIANGLE,
    ConvexCell,
    _clip_rings,
    _dedup_ring,
    _shifted,
    cell_area,
)
from .kernel import WEIGHT_BLOCK_BYTES

# Hard safety valve against pathological integrands; generous enough that a
# smooth integrand at the default tolerances never gets close.
_MAX_TRIANGLES = 262144
# Most bands a graded root triangulation puts along each simplex edge.
_GRADED_LEVELS = 12


def _orbit3(a: float) -> list[tuple[float, float, float]]:
    c = 1.0 - 2.0 * a
    return [(c, a, a), (a, c, a), (a, a, c)]


def _orbit6(a: float, b: float) -> list[tuple[float, float, float]]:
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# Degree-5 rule (7 points) and degree-7 rule (13 points), barycentric
# coordinates with weights normalized to sum to one.
_BARY = np.array(
    [(1 / 3, 1 / 3, 1 / 3)]
    + _orbit3(0.470142064105115)
    + _orbit3(0.101286507323456)
    + _orbit3(0.260345966079038)
    + _orbit3(0.065130102902216)
    + _orbit6(0.638444188569809, 0.312865496004875)
)
_W5 = np.concatenate(
    [
        [0.225],
        np.full(3, 0.132394152788506),
        np.full(3, 0.125939180544827),
        np.zeros(12),
    ]
)
_W7 = np.concatenate(
    [
        [-0.149570044467670],
        np.zeros(6),
        np.full(3, 0.175615257433204),
        np.full(3, 0.053347235608839),
        np.full(6, 0.077113760890257),
    ]
)
_NQ = _BARY.shape[0]  # 19 shared evaluation points per triangle


@dataclass(frozen=True)
class CubatureConfig:
    """Tolerances for the adaptive integrator.

    ``absolute_floor`` is the floor of :func:`integrate_polygon`,
    :func:`integrate_simplex` (the MISE constants among them) and direct
    :func:`integrate_cells_batch` calls.  The Gasser-Muller cell integrals
    (:func:`~simplexreg.estimators.gm_weight_matrix`) raise it to
    ``relative_tolerance / (10 n)`` for n cells where that is larger, since
    their weights add up to 1.
    """

    relative_tolerance: float = 1e-3
    absolute_floor: float = 1e-14
    max_subdivisions: int = 20

    def __post_init__(self):
        if not 0.0 < self.relative_tolerance <= 0.1:
            raise ValueError(
                f"relative_tolerance must be in (0, 0.1], got {self.relative_tolerance}"
            )
        if not 0.0 < self.absolute_floor < np.inf:
            raise ValueError(
                f"absolute_floor must be positive and finite, got {self.absolute_floor}"
            )
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class CubatureResult:
    """Integral value with its error estimate and a convergence flag."""

    value: float
    error_estimate: float
    converged: bool
    triangles: int

    def __float__(self) -> float:
        return self.value


def _tri_areas(coords: np.ndarray) -> np.ndarray:
    e = coords[:, 1:] - coords[:, :1]  # edges b - a and c - a
    return 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])


# Rows: the fine (degree-7) weights and the rule difference, whose
# magnitude is the error estimate.
_RULES = np.stack([_W7, _W7 - _W5])
# Largest |rule value| / (triangle area * max |f|) over the two rows.
_RULE_GAIN = float(np.abs(_RULES).sum(axis=1).max())


def _eval_rules(f_batch, coords: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Apply the embedded rule pair to a batch of triangles.

    ``f_batch(points, cols)`` returns integrand values for the requested
    component columns only.  Returns one ``(2, T, a)`` array for
    ``a = len(cols)``: the per-triangle fine values, then the error
    estimates.  The points come from one ``(19, 3) @ (3, 2T)`` product
    ordered rule point first, so the values reshape without a copy to
    ``(19, T*a)`` and both rules are one ``(2, 19) @ (19, T*a)`` product
    (``@``: BLAS at one thread beat ``einsum``'s own loop at every size
    measured), scaled by the areas in place.
    """
    T, a = coords.shape[0], cols.size
    pts = (_BARY @ coords.transpose(1, 0, 2).reshape(3, 2 * T)).reshape(_NQ * T, 2)
    vals = np.asarray(f_batch(pts, cols), dtype=float).reshape(_NQ, T * a)
    out = (_RULES @ vals).reshape(2, T, a)
    out *= _tri_areas(coords)[:, None]
    np.abs(out[1], out=out[1])
    return out


def negligible_components(log_bounds, area, cfg: CubatureConfig) -> np.ndarray:
    """Components that need no integration: they pass the first round
    with a value below the floor.

    ``log_bounds`` (m, n) bounds ``log |f|`` from above on each of n cells
    of the given ``area`` (NaN where no bound is known).  The first round's
    value and error estimate of a component are each at most
    ``area * G * exp(bound)``, with ``G`` the larger rule's sum of absolute
    weights; where that is at most half the absolute floor (the half covers
    rounding) the component passes in the first round and leaves the
    refinement of every other component as it is.
    """
    with np.errstate(divide="ignore"):
        limit = np.log(0.5 * cfg.absolute_floor / (_RULE_GAIN * np.asarray(area)))
    return log_bounds <= limit


# Children of a triangle whose longest edge is e (row e): indices into its
# vertices 0-2 followed by its edge midpoints 3-5, where edge e runs from
# vertex e to vertex e + 1 (mod 3).  The first child keeps vertex e, the
# second vertex e + 1, and both keep the vertex opposite the edge.
_NEXT = np.array([1, 2, 0])
_CHILDREN = np.array([[0, 3, 2, 3, 1, 2], [1, 4, 0, 4, 2, 0], [2, 5, 1, 5, 0, 1]])


def _split_longest_edge(coords: np.ndarray) -> np.ndarray:
    """Bisect each triangle of ``coords`` (T, 3, 2) into two children,
    ``(2T, 3, 2)`` with the children of triangle t at rows 2t and 2t + 1."""
    T = coords.shape[0]
    ext = np.empty((T, 6, 2))  # the vertices, then the edge midpoints
    ext[:, :3] = coords
    nxt = coords[:, _NEXT]
    mids = ext[:, 3:]
    np.subtract(nxt, coords, out=mids)  # first the edge vectors, for their lengths
    longest = np.argmax((mids * mids).sum(axis=2), axis=1)
    np.add(coords, nxt, out=mids)
    mids *= 0.5
    rows = _CHILDREN[longest] + 6 * np.arange(T)[:, None]
    return ext.reshape(6 * T, 2)[rows].reshape(2 * T, 3, 2)


def _passes(totals: np.ndarray, cfg: CubatureConfig) -> np.ndarray:
    """Flags of the components whose ``(2, ...)`` value and error totals
    pass: the error is at most ``max(relative_tolerance * |value|,
    absolute_floor)``."""
    tol = np.abs(totals[0])
    tol *= cfg.relative_tolerance
    return totals[1] <= np.maximum(tol, cfg.absolute_floor, out=tol)


def _adaptive(f_batch, coords: np.ndarray, est: np.ndarray, cfg: CubatureConfig):
    """Adaptive refinement of one cell from its root triangles ``coords``
    and their first-round ``(2, T, m)`` estimate ``est``.

    Each round writes every active component's value, error and flag, then
    freezes the components that passed.  It splits every splittable triangle
    whose error is within a factor four of the worst splittable error on
    some active component, evaluating all children in one batched call.  The
    loop stops when all components passed, the triangle cap is reached, no
    splittable triangle carries error, or no triangle is marked.  Values and
    errors live in one ``(2, T, a)`` array, so a round takes one sum, one
    column select when components freeze, and one concatenate; the first
    round's array is dropped by the first of these.
    """
    m = est.shape[2]
    active = np.arange(m)
    depth = np.zeros(coords.shape[0], dtype=int)
    out = np.empty((2, m))
    out_conv = np.empty(m, dtype=bool)
    max_tris = coords.shape[0]
    while True:
        total = est.sum(axis=1)
        passed = _passes(total, cfg)
        out[:, active] = total
        out_conv[active] = passed
        if passed.any():
            keep_cols = ~passed
            active = active[keep_cols]
            est = est[:, :, keep_cols]
        errs = est[1]
        splittable = depth < cfg.max_subdivisions
        # initial=0: with no active component left nothing needs splitting
        if splittable.all():
            col_max = errs.max(axis=0, initial=0.0)
            mark = (errs >= 0.25 * col_max).any(axis=1)
        else:
            col_max = np.where(splittable[:, None], errs, 0.0).max(axis=0, initial=0.0)
            mark = splittable & (errs >= 0.25 * col_max).any(axis=1)
        if coords.shape[0] > _MAX_TRIANGLES or (col_max <= 0.0).all() or not mark.any():
            break
        children = _split_longest_edge(coords[mark])
        child_est = _eval_rules(f_batch, children, active)
        child_depth = np.repeat(depth[mark] + 1, 2)
        keep = ~mark
        coords = np.concatenate([coords[keep], children])
        est = np.concatenate([est[:, keep], child_est], axis=1)
        depth = np.concatenate([depth[keep], child_depth])
        max_tris = max(max_tris, coords.shape[0])
    return out[0], out[1], bool(out_conv.all()), max_tris


def fan_triangulation(vertices: np.ndarray) -> np.ndarray:
    """Triangulate a convex polygon from its centroid: (m, 3, 2) array."""
    v = np.asarray(vertices, dtype=float)
    tris = np.empty((v.shape[0], 3, 2))
    tris[:, 0] = v.sum(axis=0) / v.shape[0]  # the centroid, as v.mean(axis=0)
    tris[:, 1] = v
    tris[:, 2] = _shifted(v)
    return tris


def _split_at_line(polys: list[np.ndarray], owners: list[int], normal, offset: float):
    """Split each convex piece along the line ``normal . x = offset``: the
    pieces and the indices of the cells they belong to.

    Both clips of every piece are one :func:`_clip_rings` call.  A piece
    the line misses by more than the clipping tolerance, so that one of its
    clips is empty, is kept as it is; any other piece gives way to its two
    halves that keep an area after deduplication (or stays if neither
    does).
    """
    n = len(polys)
    both = polys * 2  # clipped below, then above the line
    counts = np.array([p.shape[0] for p in both])
    rings = np.zeros((2 * n, counts.max(), 2))
    for ring, poly in zip(rings, both):
        ring[: poly.shape[0]] = poly
    sides = np.repeat([normal, -normal], n, axis=0)
    changed, clipped, sizes = _clip_rings(rings, counts, sides, np.repeat([offset, -offset], n))
    for row, ring, size in zip(changed, clipped, sizes):
        both[row] = ring[:size]
    out: list[np.ndarray] = []
    out_owners: list[int] = []
    for poly, owner, lo, hi in zip(polys, owners, both[:n], both[n:]):
        pieces = []
        if lo.shape[0] and hi.shape[0]:
            pieces = [
                p for p in map(_dedup_ring, (lo, hi)) if p.shape[0] >= 3 and cell_area(p) > 1e-16
            ]
        pieces = pieces or [poly]
        out += pieces
        out_owners += [owner] * len(pieces)
    return out, out_owners


def _graded_roots(cells: list[np.ndarray], scale: float) -> list[np.ndarray]:
    """Root triangles for each cell, geometrically graded toward the
    simplex edges.

    The smoothing kernel for centers near a simplex edge concentrates in a
    layer of thickness of order the bandwidth along that edge, far below the
    resolution the error estimator can detect from a coarse fan.  Splitting
    each polygon into bands at distances ``scale * 4^k`` from each of the
    three simplex edges puts quadrature points inside any such layer from
    the start, so the adaptive stage only has to polish.  Each band line
    splits the pieces of every cell in one :func:`_split_at_line` call; a
    cell's pieces stay in their order, so its roots do not depend on the
    other cells.
    """
    polys, owners = list(cells), list(range(len(cells)))
    if scale > 0.0:
        for normal in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, -1.0])):
            # offset value of the simplex edge along this normal
            base = -1.0 if normal[0] < 0 else 0.0
            for k in range(_GRADED_LEVELS):
                level = base + scale * 4.0**k
                # layers thicker than ~0.2 are visible to the error
                # estimator without help
                if level - base > 0.2:
                    break
                polys, owners = _split_at_line(polys, owners, normal, level)
    fans: list[list[np.ndarray]] = [[] for _ in cells]
    for poly, owner in zip(polys, owners):
        fans[owner].append(fan_triangulation(poly))
    return [np.concatenate(f) for f in fans]


# Root triangulations kept, by cell vertex bytes and scale, the least
# recently used dropped first: the roots depend only on the cell and the
# scale, and a study integrates over the same cells at the same bandwidths
# in every replication.  Each access is one dict operation (a hit is popped
# and put back, so it moves to the end), so callers on several threads at
# worst grade a cell twice.
_ROOTS_CACHE_SIZE = 8192
_roots_cache: dict[tuple[bytes, float], np.ndarray] = {}


def root_triangles(cells, boundary_layer_scale: float = 0.0) -> list[np.ndarray]:
    """The read-only ``(T, 3, 2)`` root triangulations of ``cells``
    (ConvexCells or vertex arrays), the input of
    :func:`integrate_cells_batch`: graded toward the simplex edges at a
    positive ``boundary_layer_scale`` (:func:`_graded_roots`), the centroid
    fan at 0.  They are cached by cell and scale; the cells not cached are
    graded together.
    """
    scale = float(boundary_layer_scale)
    keys = []
    for cell in cells:
        verts = cell.vertices if isinstance(cell, ConvexCell) else np.asarray(cell, float)
        keys.append((np.ascontiguousarray(verts, dtype=float).tobytes(), scale))
    found = dict.fromkeys(keys)
    for key in found:
        found[key] = _roots_cache.pop(key, None)
    todo = [key for key, roots in found.items() if roots is None]
    if todo:
        rings = [np.frombuffer(vertex_bytes).reshape(-1, 2) for vertex_bytes, _ in todo]
        for key, roots in zip(todo, _graded_roots(rings, scale)):
            roots.setflags(write=False)
            found[key] = roots
    _roots_cache.update(found)
    excess = len(_roots_cache) - _ROOTS_CACHE_SIZE
    if excess > 0:
        for key in list(_roots_cache)[:excess]:
            _roots_cache.pop(key, None)
    return [found[key] for key in keys]


def _callback_values(fn, points: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """One value of ``shape`` per point of ``points`` ``(..., d)``: a callable
    ``fn`` gives them as ``fn(points)``, and a constant array ``fn`` of
    ``shape`` is broadcast.  Any other shape raises :class:`MismatchError`."""
    per_point = points.shape[:-1] + shape
    if callable(fn):
        vals, expected = np.asarray(fn(points), dtype=float), per_point
    else:
        vals, expected = np.asarray(fn, dtype=float), shape
    if vals.shape != expected:
        raise MismatchError(
            f"{name} has shape {vals.shape} at points {points.shape}; expected {expected}"
        )
    return vals if callable(fn) else np.broadcast_to(vals, per_point)


def _as_batch_callable(f):
    """The engine's ``(points, cols)`` form of an integrand ``f((q, 2)) -> (q,)``."""

    def call(pts: np.ndarray, _cols) -> np.ndarray:
        return _callback_values(f, pts, (), "integrand")[:, None]

    return call


def integrate_polygon(f, cell, cfg: CubatureConfig | None = None) -> CubatureResult:
    """Integrate ``f`` over a convex polygonal cell.

    Parameters
    ----------
    f : callable
        Real-valued integrand on simplex points: maps an ``(q, 2)`` array
        of points to their ``(q,)`` values.  Any other shape raises
        :class:`MismatchError`.
    cell : ConvexCell or (m, 2) array
        The integration region.
    cfg : CubatureConfig, optional
        Tolerances; defaults match the package-wide defaults.

    Returns
    -------
    CubatureResult
        Value, summed error estimate, convergence flag and triangle count.
        ``converged`` is False when the subdivision depth was exhausted; the
        best available estimate is still returned.
    """
    return _integrate_scalar(f, cell, cfg, 0.0)


def _integrate_scalar(f, cell, cfg, boundary_layer_scale: float) -> CubatureResult:
    """:func:`integrate_cells_batch` of a real-valued ``f`` over one cell,
    as one result."""
    values, errors, converged, triangles = integrate_cells_batch(
        _as_batch_callable(f), root_triangles([cell], boundary_layer_scale), 1, cfg
    )
    return CubatureResult(
        float(values[0, 0]), float(errors[0, 0]), bool(converged[0]), int(triangles[0])
    )


def _first_round_chunks(sizes, n_components: int) -> list[slice]:
    """Runs of consecutive cells, of ``sizes[i]`` root triangles each,
    whose first round together holds at most ``WEIGHT_BLOCK_BYTES / 8``
    bytes of rule points and integrand values; a larger cell is a run of
    its own.
    """
    # triangles in a run: each has _NQ rule points of 2 coordinates and
    # n_components values, 8 bytes each
    limit = (WEIGHT_BLOCK_BYTES // 8) // (8 * _NQ * (2 + n_components))
    runs, first, size = [], 0, 0
    for i, n in enumerate(sizes):
        if i > first and size + n > limit:
            runs.append(slice(first, i))
            first, size = i, 0
        size += n
    return runs + [slice(first, len(sizes))]


def integrate_cells_batch(f_batch, roots, n_components: int, cfg: CubatureConfig | None = None):
    """Integrate ``f_batch`` over each of several convex cells, given by
    their :func:`root_triangles`.

    ``f_batch(points, cols)`` maps ``(q, 2)`` points to the ``(q,
    len(cols))`` values of the requested components.  The first rounds of
    consecutive cells are evaluated together, within ``WEIGHT_BLOCK_BYTES
    / 8`` bytes of rule points and values, and summed per cell.  A cell
    whose components all pass takes those totals; any other cell refines
    from its slice of the estimate, its components sharing evaluations
    until each passes or the depth runs out, passed ones frozen (no longer
    requested).

    Returns ``(values, errors, converged, triangles)``: ``(len(roots),
    n_components)`` values and error estimates, and per cell whether every
    component passed and the most triangles it held.
    """
    cfg = cfg or CubatureConfig()
    sizes = np.array([r.shape[0] for r in roots])
    values = np.empty((len(roots), n_components))
    errors = np.empty_like(values)
    converged = np.ones(len(roots), dtype=bool)
    triangles = sizes.copy()
    for run in _first_round_chunks(sizes, n_components):
        est = _eval_rules(f_batch, np.concatenate(roots[run]), np.arange(n_components))
        starts = np.cumsum(sizes[run]) - sizes[run]
        totals = np.add.reduceat(est, starts, axis=1)  # (2, cells, n_components)
        values[run], errors[run] = totals
        cells = range(len(roots))[run]
        parts = {
            c: est[:, lo : lo + sizes[c]]
            for c, lo, ok in zip(cells, starts, _passes(totals, cfg).all(axis=1))
            if not ok
        }
        # the parts are handed over, not held here, so a run's first round
        # is freed once its last refining cell's refinement moves past it
        del est
        for c in list(parts):
            values[c], errors[c], converged[c], triangles[c] = _adaptive(
                f_batch, roots[c], parts.pop(c), cfg
            )
    return values, errors, converged, triangles


def shrunken_simplex_triangle(eps: float = 1e-4) -> np.ndarray:
    """Vertices of ``{s : s_1 >= eps, s_2 >= eps, s_3 >= eps}`` in ``S_2``."""
    return np.array([[eps, eps], [1.0 - 2.0 * eps, eps], [eps, 1.0 - 2.0 * eps]])


def integrate_simplex(
    f,
    cfg: CubatureConfig | None = None,
    boundary_singular: bool = False,
    eps: float = 1e-4,
) -> CubatureResult:
    """Integrate ``f`` over the whole 2-simplex.

    With ``boundary_singular=True`` the domain shrinks to
    ``{s : s_i >= eps, s_{d+1} >= eps}``; inverse-square-root boundary
    singularities (the variance constant has one) are integrable, so the
    truncation error is of order ``sqrt(eps)``.  The singularity then sits
    on the simplex edges, ``eps`` outside the domain, so the root
    triangulation is graded toward those edges at scale ``eps`` (bands at
    ``eps * 4^k``, see :func:`root_triangles`): the boundary layers
    are resolved from the first round instead of being found by many
    rounds of bisection from a centroid fan.
    """
    domain = shrunken_simplex_triangle(eps) if boundary_singular else SIMPLEX_TRIANGLE
    return _integrate_scalar(f, domain, cfg, eps if boundary_singular else 0.0)


__all__ = [
    "CubatureConfig",
    "CubatureResult",
    "fan_triangulation",
    "integrate_polygon",
    "integrate_cells_batch",
    "integrate_simplex",
    "negligible_components",
    "root_triangles",
    "shrunken_simplex_triangle",
]
