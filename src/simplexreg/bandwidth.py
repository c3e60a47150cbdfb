"""Bandwidth selection by cross-validation with a grid + golden-section search.

Two criteria are provided: a Monte Carlo least-squares criterion against a
known target (the simulation-study selector) and leave-one-out
cross-validation for the local linear smoother on real data.  The latter
runs the LL evaluation of grids and the study,
:func:`~simplexreg.estimators.kernel_estimates`, with each point's own
weight removed (``leave_one_out=True``), over a whole search grid in one
call.  Both criteria can be multimodal, so the minimizer evaluates a
log-spaced grid first and only then refines the best bracket by golden
section; the full evaluation trace is returned for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cubature import CubatureConfig
from .errors import AllInfiniteError
from .estimators import GM, LL, Design, batch_estimate, kernel_estimates
from .geometry import SimplexPartition
from .kernel import validate_points

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement stops once its bracket is this narrow
REFINE_TOL = 1e-4


def default_grid(num: int = 40, lo: float = 1e-3, hi: float = 1.0) -> np.ndarray:
    """Log-spaced bandwidth grid; above ``hi`` the kernel over-smooths to a
    near-global average, below ``lo`` it concentrates under mesh resolution."""
    return np.geomspace(lo, hi, num)


@dataclass(frozen=True)
class BandwidthSearch:
    """Grid plus optional golden-section refinement of the best bracket."""

    grid: np.ndarray = field(default_factory=default_grid)
    refine: bool = True

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("grid must be a nonempty 1-d array")
        if np.any(g <= 0.0) or np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly increasing and positive")
        object.__setattr__(self, "grid", g)


@dataclass(frozen=True)
class BandwidthResult:
    """Selected bandwidth with its objective value and evaluation trace."""

    b_hat: float
    objective_value: float
    trace: tuple[tuple[float, float], ...]
    boundary_minimum: bool = False


def minimize_bandwidth(objective, search: BandwidthSearch | None = None) -> BandwidthResult:
    """Minimize a bandwidth objective over the search grid.

    Non-finite objective values are allowed (flagged points are skipped);
    when every grid point is non-finite :class:`AllInfiniteError` is raised.
    The returned bandwidth always attains the minimum of the whole trace.
    """
    search = search or BandwidthSearch()
    grid = search.grid
    trace: list[tuple[float, float]] = []
    cache: dict[float, float] = {}

    def ev(b: float) -> float:
        b = float(b)
        if b not in cache:
            v = float(objective(b))
            if not np.isfinite(v):
                v = np.inf
            cache[b] = v
            trace.append((b, v))
        return cache[b]

    values = np.array([ev(b) for b in grid])
    if not np.any(np.isfinite(values)):
        raise AllInfiniteError("objective is non-finite on the whole grid")
    i = int(np.argmin(values))
    boundary = i == 0 or i == grid.size - 1

    if search.refine and not boundary and grid.size >= 3:
        lo, hi = grid[i - 1], grid[i + 1]
        a, b = lo, hi
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        while b - a > REFINE_TOL:
            if ev(c) <= ev(d):
                b, d = d, c
                c = b - _GOLDEN * (b - a)
            else:
                a, c = c, d
                d = a + _GOLDEN * (b - a)

    b_best, v_best = min(trace, key=lambda t: (t[1], t[0]))
    return BandwidthResult(
        b_hat=float(b_best),
        objective_value=float(v_best),
        trace=tuple(trace),
        boundary_minimum=boundary,
    )


def lscv(
    method: str,
    design: Design,
    m_true,
    eval_sample,
    b: float,
    partition: SimplexPartition | None = None,
    cfg: CubatureConfig | None = None,
) -> float:
    """Monte Carlo least-squares criterion against a known target.

    ``(1 / (N d!)) * sum_i |mhat_b(U_i) - m(U_i)|^2`` over a uniform sample
    ``U_1..U_N`` on the simplex; the ``d!`` factor is the uniform density, so
    this is an unbiased Monte Carlo estimate of the mean integrated squared
    error.  Reuse the same ``eval_sample`` across bandwidths within a search
    (common random numbers) to keep the criterion curve smooth.

    Points where estimation fails are excluded and the count renormalized;
    if every point fails the criterion is ``inf``.
    """
    U = validate_points(eval_sample, dim=design.dim)
    est = batch_estimate(method, design, b, U, partition=partition, cfg=cfg)
    return _mc_ise(est, np.asarray(m_true(U), dtype=float), design.dim)


def _mc_ise(est: np.ndarray, truth: np.ndarray, dim: int) -> float:
    """``sum_i |est_i - truth_i|^2 / (N d!)`` over the N finite terms;
    ``inf`` when no term is finite."""
    sq = (est - truth) ** 2
    ok = np.isfinite(sq)
    if not np.any(ok):
        return float("inf")
    return float(sq[ok].sum() / (ok.sum() * float(math.factorial(dim))))


def loocv_ll(design: Design, b: float) -> float:
    """Leave-one-out cross-validation for the local linear smoother:
    ``(1/n) sum_i (y_i - mhat_(-i)(x_i))^2``; ``inf`` if any held-out
    prediction is undefined (a flagged, skippable bandwidth).

    The held-out predictions are the local linear fits of
    :func:`~simplexreg.estimators.kernel_estimates` with
    ``leave_one_out=True``: the row of observation i drops it from both the
    normal equations and the log-weight rescaling, and a singular system
    falls back to the leave-one-out kernel average.
    """
    return _loocv_values(design, [b])[0]


def _loocv_values(design: Design, bandwidths) -> list[float]:
    """:func:`loocv_ll` at each of a 1-D sequence of bandwidths, from one
    :func:`kernel_estimates` call."""
    X, y = design.points, design.responses
    est, _ = kernel_estimates(X, X, bandwidths, y[:, None], [LL], leave_one_out=True)
    return [
        float("inf") if np.any(np.isnan(preds)) else float(np.mean((y - preds) ** 2))
        for preds in est[LL][:, :, 0]
    ]


def select_lscv(
    method: str,
    design: Design,
    m_true,
    eval_sample,
    search: BandwidthSearch | None = None,
    partition: SimplexPartition | None = None,
    cfg: CubatureConfig | None = None,
) -> BandwidthResult:
    """Minimize the LSCV criterion over a bandwidth search."""
    if method == GM and partition is None:
        raise ValueError("GM selection requires a partition")
    return minimize_bandwidth(
        lambda b: lscv(method, design, m_true, eval_sample, b, partition, cfg),
        search,
    )


def select_loocv_ll(design: Design, search: BandwidthSearch | None = None) -> BandwidthResult:
    """Minimize the leave-one-out criterion for the local linear smoother.

    The whole grid is one :func:`kernel_estimates` call, so each row
    block's bandwidth-free log-kernel serves every grid bandwidth; the
    golden-section probes are :func:`loocv_ll` calls.  Every value equals
    :func:`loocv_ll` at its bandwidth bit for bit.
    """
    search = search or BandwidthSearch()
    on_grid = dict(zip(search.grid.tolist(), _loocv_values(design, search.grid)))
    return minimize_bandwidth(
        lambda b: on_grid[b] if b in on_grid else loocv_ll(design, b), search
    )


__all__ = [
    "BandwidthSearch",
    "BandwidthResult",
    "default_grid",
    "minimize_bandwidth",
    "lscv",
    "loocv_ll",
    "select_lscv",
    "select_loocv_ll",
]
