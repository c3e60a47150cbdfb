"""Dirichlet density and the location-adaptive smoothing kernel on the simplex.

The simplex ``S_d`` is the set of d nonnegative coordinates with sum at most
one; the implicit last coordinate is ``x_{d+1} = 1 - sum(x)``.  The smoothing
kernel centered at a point ``s`` with bandwidth ``b`` is the Dirichlet density
with parameters ``alpha = s/b + 1`` and ``beta = s_{d+1}/b + 1``; its mode sits
at ``s`` and it concentrates around ``s`` as ``b`` shrinks.

Everything is evaluated in log space (log-gamma based), because the Dirichlet
parameters reach the thousands for small bandwidths and direct gamma
evaluation overflows.  All functions are pure and safe to call concurrently.
``scipy.special`` is imported inside the functions that call it, here and in
``asymptotics`` and ``simulation``, so NW/LL work such as ``simplexreg fit``
never loads it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError

POINT_TOL = 1e-12
# Bytes of one row block of an m x n array, m points against n sites: no
# call holds more of such arrays at once.  The NW/LL paths
# (``estimators.weight_row_blocks(m, 2 * n)``) hold a block's
# bandwidth-free log-kernel and one bandwidth's weights together,
# ``geometry.voronoi_partition`` a block's coordinate differences, and
# ``cubature.integrate_cells_batch`` an eighth of it for the first-round
# rule points and values of a run of cells.  Each NW/LL
# (block, bandwidth) pair pays fixed numpy work (moment columns, contraction
# set-up, the small tests and solves): on a 2-vCPU x86 host, `fit` at
# n = 990 took 0.66-0.92 CPU s per command with this budget, 1.02-1.26 s
# with 2 MiB and 0.74-1.04 s with one block per call (two interleaved
# rounds of five commands each).
WEIGHT_BLOCK_BYTES = 4 * 2**20


def validate_points(points, dim: int | None = None) -> np.ndarray:
    """Validate an (n, d) array of barycentric coordinates and clamp float noise.

    Coordinates within ``POINT_TOL`` of the valid range are clamped to [0, 1],
    and a row whose clamped sum still exceeds 1 is divided by its sum until
    it does not; anything farther out raises :class:`DomainError` (user
    error, not rounding).  Each row is validated on its own, so a row gives
    the same bits in any batch, and validating validated points returns
    them bit for bit.

    Parameters
    ----------
    points : array_like, shape (n, d) or (d,)
        First d barycentric coordinates of points in ``S_d``; a single
        point is one row.
    dim : int, optional
        Required dimension; mismatch raises :class:`DomainError`.

    Returns
    -------
    ndarray, shape (n, d)
        The clamped coordinates as float64.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if dim is not None and pts.shape[1] != dim:
        raise DomainError(f"expected dimension {dim}, got {pts.shape[1]}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("point has non-finite coordinates")
    low = pts.min(initial=np.inf)
    if low < -POINT_TOL:
        negative = np.any(pts < -POINT_TOL, axis=1)
        raise DomainError(f"negative coordinate beyond tolerance: {pts[negative][0]}")
    sums = pts.sum(axis=1)
    if np.any(sums > 1.0 + POINT_TOL):
        raise DomainError(f"coordinate sum {sums.max()} exceeds 1 beyond tolerance")
    # whole-array extremes first: row reductions over a few columns are
    # slow, and points already in [0, 1] (a design validated before, met
    # again in every row block of a batch) need neither the clamp nor new sums
    if low < 0.0 or pts.max(initial=-np.inf) > 1.0:
        pts = np.clip(pts, 0.0, 1.0)
        sums = pts.sum(axis=1)
    else:
        pts = pts.copy()
    # A row's largest coordinate exceeds 1/d, so it is a normal float and
    # each division by a sum above 1 strictly lowers it: the loop ends
    # (after at most two passes on near-boundary rows in practice).
    over = np.nonzero(sums > 1.0)[0]
    while over.size:
        pts[over] /= pts[over].sum(axis=1)[:, None]
        over = over[pts[over].sum(axis=1) > 1.0]
    return pts


def validate_point(x, dim: int | None = None) -> np.ndarray:
    """:func:`validate_points` for a single point of shape (d,)."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise DomainError(f"expected a single point, got shape {p.shape}")
    return validate_points(p[None, :], dim)[0]


def last_coordinate(x) -> np.ndarray | float:
    """Implicit coordinate ``x_{d+1} = 1 - sum(x)``, clamped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    rest = 1.0 - x.sum(axis=-1)
    return np.clip(rest, 0.0, 1.0)


def _xlogy(c, x):
    """Elementwise c*log(x) with the boundary conventions.

    ``0 * log 0 == 0``; ``c * log 0 == -inf`` for c > 0; c < 0 at x == 0 is a
    pole and raises.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    if np.any(zero & (c < 0.0)):
        raise PoleError("negative exponent at a zero coordinate")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c * np.log(x)
    out = np.where(zero & (c == 0.0), 0.0, out)
    out = np.where(zero & (c > 0.0), -np.inf, out)
    return out


def log_dirichlet_density(alpha, beta: float, x) -> float | np.ndarray:
    """Log of the Dirichlet(alpha, beta) density at points of ``S_d``.

    Parameters
    ----------
    alpha : array_like, shape (d,)
        Positive shape parameters for the explicit coordinates.
    beta : float
        Positive shape parameter for the implicit last coordinate.
    x : array_like, shape (d,) or (n, d)
        Evaluation point(s) inside the simplex.

    Returns
    -------
    float or ndarray
        ``log K_{alpha,beta}(x)``; ``-inf`` where the density vanishes on the
        boundary.

    Raises
    ------
    DomainError
        If ``x`` lies outside the simplex beyond tolerance or the parameter
        vectors are invalid.
    PoleError
        If an exponent below zero meets a zero coordinate.
    """
    from scipy.special import gammaln

    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(a <= 0.0) or beta <= 0.0:
        raise DomainError("Dirichlet parameters must be positive")
    single = np.asarray(x).ndim == 1
    pts = validate_points(x, dim=a.size)
    rest = last_coordinate(pts)
    norm = gammaln(a.sum() + beta) - gammaln(beta) - gammaln(a).sum()
    terms = _xlogy(a - 1.0, pts).sum(axis=1) + _xlogy(beta - 1.0, rest)
    out = norm + terms
    return float(out[0]) if single else out


def _check_bandwidth(b: float) -> None:
    if not (b > 0.0 and np.isfinite(b)):
        raise DomainError(f"bandwidth must be positive and finite, got {b}")


def kernel_params(s, b: float) -> tuple[np.ndarray, float]:
    """Dirichlet parameters ``(s/b + 1, s_{d+1}/b + 1)`` of the kernel at s."""
    _check_bandwidth(b)
    s = validate_point(s)
    return s / b + 1.0, float(last_coordinate(s)) / b + 1.0


def log_kappa(s, b: float, x) -> float | np.ndarray:
    """Log of the smoothing kernel ``kappa_{s,b}`` at ``x`` (vectorized in x)."""
    alpha, beta = kernel_params(s, b)
    return log_dirichlet_density(alpha, beta, x)


def kappa(s, b: float, x) -> float | np.ndarray:
    """Smoothing kernel ``kappa_{s,b}(x)``; finite and nonnegative on ``S_d``.

    All exponents ``s_i/b`` are nonnegative, so no pole can occur and the
    value is zero (not infinite) on boundary faces the center is away from.
    """
    return np.exp(log_kappa(s, b, x))


def _centres(S: np.ndarray, b: float):
    """Full coordinates of validated centres and their log normalisations
    ``logGamma(1/b + d + 1) - sum_j logGamma(s_j/b + 1)``."""
    from scipy.special import gammaln

    S_full = np.column_stack([S, last_coordinate(S)])
    norm = gammaln(1.0 / b + S.shape[1] + 1.0) - gammaln(S_full / b + 1.0).sum(axis=1)
    return S_full, norm


def _log_coordinates(points: np.ndarray):
    """Full coordinates of points, clipped to [0, 1], and their logs with
    ``log 0`` clamped to -1e300, so that products keep ``0 * log 0 = 0``."""
    full = np.clip(np.column_stack([points, last_coordinate(points)]), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return full, np.maximum(np.log(full), -1e300)


def _log_kernel_products(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``S_full @ logX^T`` for validated centres S and points X: the
    bandwidth-free part of :func:`log_kappa_matrix`, ``-inf`` where a
    positive exponent meets a zero coordinate."""
    S_full = np.column_stack([S, last_coordinate(S)])
    X_full, logX = _log_coordinates(X)
    out = S_full @ logX.T
    zero_x = X_full == 0.0
    if zero_x.any():
        # A positive exponent meeting a zero coordinate is exactly -inf.
        hits = zero_x.astype(float) @ (S_full > 0.0).T.astype(float)
        out[(hits > 0.0).T] = -np.inf
    return out


def log_kappa_matrix(eval_points, b: float, x_points) -> np.ndarray:
    """Log kernel values for many centers against many evaluation points.

    Entry ``[i, j]`` is ``log kappa_{s_i, b}(x_j)`` for centers ``s_i`` in
    ``eval_points`` and points ``x_j`` in ``x_points``.  The inner loop is a
    single matrix product; NW, LL and LOOCV take its bandwidth-free part,
    :func:`_log_kernel_products`, directly.

    Points ``x_j`` on the simplex boundary get ``-inf`` where a positive
    exponent meets the zero coordinate, consistent with :func:`log_kappa`.
    """
    _check_bandwidth(b)
    S = validate_points(eval_points)
    X = validate_points(x_points, dim=S.shape[1])
    _, norm = _centres(S, b)
    # in place, so only one m x n array is alive at a time
    out = _log_kernel_products(S, X)
    out /= b
    out += norm[:, None]
    return out


def kappa_columns(eval_points, b: float):
    """The GM cell integrand: maps ``(q, d)`` points x and indices ``cols``
    to the ``(q, len(cols))`` values ``kappa_{s_i,b}(x)``, ``i`` in ``cols``.

    The log normalisation is a last row of the exponent matrix and meets a
    row of ones under the log coordinates, so a call is one
    ``(q, d + 2) @ (d + 2, len(cols))`` product and an ``exp`` in place.
    """
    _check_bandwidth(b)
    S_full, norm = _centres(validate_points(eval_points), b)
    exponents = np.vstack([(S_full / b).T, norm])  # (d + 2, m)
    d = S_full.shape[1] - 1

    def f_batch(pts: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # rows: the full coordinates as in _log_coordinates, then ones
        logs = np.empty((d + 2, pts.shape[0]))
        full = logs[: d + 1]
        full[:d] = pts.T
        full[:d].sum(axis=0, out=full[d])
        np.subtract(1.0, full[d], out=full[d])
        np.clip(full, 0.0, 1.0, out=full)
        with np.errstate(divide="ignore"):
            np.log(full, out=full)
        np.maximum(full, -1e300, out=full)
        logs[d + 1] = 1.0
        out = logs.T @ exponents.take(cols, axis=1)
        return np.exp(out, out=out)

    return f_batch


def _tangent_planes(vertices: np.ndarray) -> np.ndarray:
    """Tangent data of a convex cell with r vertices, ``(P * (1 + r), 3)``.

    The P tangent points ``p`` are the cell's centroid and its vertices
    pulled 30% toward it; each contributes the row ``log p - 1`` and the r
    rows ``v / p`` (full coordinates).  NaN or infinite entries at
    degenerate cells make the bounds that use them NaN.
    """
    V = np.column_stack([vertices, last_coordinate(vertices)])
    c = V.mean(axis=0)
    P = np.vstack([c, 0.7 * V + 0.3 * c])
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.concatenate([np.log(P)[:, None] - 1.0, V[None] / P[:, None]], axis=1)
    return rows.reshape(-1, 3)


@lru_cache(maxsize=8192)
def _cached_tangent_planes(vertex_bytes: bytes, dim: int) -> np.ndarray:
    """Read-only :func:`_tangent_planes` of a cell given by its vertex
    bytes.  They do not depend on the bandwidth, and the GM weights bound
    the same cells at every bandwidth of a grid."""
    planes = _tangent_planes(np.frombuffer(vertex_bytes).reshape(-1, dim))
    planes.setflags(write=False)
    return planes


def log_kappa_cell_bounds(eval_points, b: float, cells) -> np.ndarray:
    """Upper bounds on ``log kappa_{s_i,b}`` over convex cells, ``(m, cells)``.

    ``log kappa_{s,b}(x) = norm + sum_j (s_j/b) log x_j`` is concave in x,
    so ``log x_j <= log p_j - 1 + x_j/p_j`` at any interior point p gives
    an affine upper bound, whose maximum over a convex cell sits at a
    vertex.  Each bound is the least over the tangent points of
    :func:`_tangent_planes` (cached per cell), from one product per cell.
    ``cells`` holds vertex arrays; a NaN bound means none is known.
    """
    _check_bandwidth(b)
    S_full, norm = _centres(validate_points(eval_points), b)
    centres = np.ascontiguousarray(S_full.T)
    m = centres.shape[1]
    out = np.empty((len(cells), m))
    with np.errstate(invalid="ignore"):
        for j, vertices in enumerate(cells):
            V = np.ascontiguousarray(vertices, dtype=float)
            planes = _cached_tangent_planes(V.tobytes(), V.shape[1])
            # (plane, [log p - 1, v_1 / p, ...], centre): reduce over the
            # middle axes, so the inner loops run along the centres
            A = (planes @ centres).reshape(-1, V.shape[0] + 1, m)
            np.min(A[:, 0] + A[:, 1:].max(axis=1), axis=0, out=out[j])
    out /= b
    out += norm
    return out.T


def global_bound(d: int, b: float) -> float:
    """Uniform upper bound ``prod_{k=1..d} (1/b + k)`` on the kernel over
    all center/evaluation pairs in ``S_d``."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    _check_bandwidth(b)
    return float(np.prod(1.0 / b + np.arange(1, d + 1)))


def kappa_gradient_coordinate(s, b: float, x, k: int) -> float:
    """Analytic partial derivative of ``x -> kappa_{s,b}(x)`` in coordinate k.

    Differentiating the density (with the implicit last coordinate moving
    opposite to ``x_k``) gives a difference of two neighboring Dirichlet
    densities sharing the common factor ``1/b + d``:

        (1/b + d) * [K_{s/b + 1 - e_k, s_{d+1}/b + 1}(x)
                     - K_{s/b + 1, s_{d+1}/b}(x)]

    Parameters
    ----------
    s, x : array_like, shape (d,)
        Kernel center and evaluation point; the shifted parameters
        ``s_k/b`` and ``s_{d+1}/b`` must stay positive, so ``s`` must not
        lie on the corresponding boundary faces.
    k : int
        Zero-based coordinate index.
    """
    s = validate_point(s)
    d = s.size
    if not 0 <= k < d:
        raise DomainError(f"coordinate index {k} out of range for d={d}")
    alpha, beta = kernel_params(s, b)
    if alpha[k] - 1.0 <= 0.0 or beta - 1.0 <= 0.0:
        raise DomainError(
            "shifted Dirichlet parameters are nonpositive; "
            "the center must be interior in coordinates k and d+1"
        )
    alpha_minus = alpha.copy()
    alpha_minus[k] -= 1.0
    term_k = np.exp(log_dirichlet_density(alpha_minus, beta, x))
    term_last = np.exp(log_dirichlet_density(alpha, beta - 1.0, x))
    return float((1.0 / b + d) * (term_k - term_last))
