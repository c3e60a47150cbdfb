"""The three regression estimators over a common fixed design.

Given design points ``x_1..x_n`` on the simplex with responses ``Y_1..Y_n``:

* ``gm``: weighted response sum where weight i is the integral of the
  smoothing kernel over design point i's Voronoi cell;
* ``nw``: kernel-weighted average of the responses (weights normalized);
* ``ll``: intercept of the kernel-weighted least-squares affine fit centered
  at the evaluation point.

NW and LL are the degree-0 and degree-1 kernel-weighted least-squares fits
of one moment contraction; a singular LL system keeps the NW value, flagged.
Weights span hundreds of orders of magnitude, so they come from log-kernel
values with per-row max subtraction, which cancels the kernel's
normalisation: the weight at bandwidth b is ``exp(D / b)`` for one
bandwidth-free ``D``.  GM's cells are the Voronoi cells of the design
points, so a :class:`Design` builds its own partition on first GM use
(:attr:`Design.partition`); only the low-level cell integrals,
:func:`gm_weight_matrix`, take a partition.  All is pure given immutable
inputs.  :func:`batch_estimate` is the one evaluation path; the single-point
functions are its one-row calls.  Every NW and LL value, LOOCV and the
study included, comes from :func:`kernel_estimates`, which builds ``D``
one row block at a time and serves every bandwidth of a call from it, so
memory stays bounded however many points and bandwidths a call holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cubature import CubatureConfig, integrate_polygon_batch, negligible_components
from .errors import (
    AllWeightsVanishedError,
    DomainError,
    InsufficientDataError,
    MismatchError,
)
from .geometry import SimplexPartition, voronoi_partition
from .kernel import (
    _check_bandwidth,
    _log_kernel_products,
    kappa_columns,
    log_kappa_cell_bounds,
    validate_points,
)

LL_RCOND = 1e-10
# Bytes of one row block's bandwidth-free log-kernel and one bandwidth's
# weights together (``weight_row_blocks(m, 2 * n)``): no NW/LL call holds
# more of its m x n matrices.  Each (block, bandwidth) pair pays fixed numpy
# work (moment columns, contraction set-up, the small tests and solves): on
# a 2-vCPU x86 host, `fit` at n = 990 took 0.66-0.92 CPU s per command with
# this budget, 1.02-1.26 s with 2 MiB and 0.74-1.04 s with one block per
# call (two interleaved rounds of five commands each).
WEIGHT_BLOCK_BYTES = 4 * 2**20

GM = "GM"
NW = "NW"
LL = "LL"
METHODS = (GM, NW, LL)


@dataclass(frozen=True)
class Design:
    """Paired design points (n, d) and responses (n,)."""

    points: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        pts = validate_points(self.points)
        y = np.atleast_1d(np.asarray(self.responses, dtype=float))
        if pts.shape[0] != y.size:
            raise MismatchError(
                f"{pts.shape[0]} points but {y.size} responses"
            )
        if pts.shape[0] < 1:
            raise InsufficientDataError("design needs at least one observation")
        if not np.all(np.isfinite(y)):
            raise MismatchError("responses must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def partition(self) -> SimplexPartition:
        """The Voronoi partition of the design points, the GM cells; built on
        first access, so NW and LL never build one.  Raises
        :class:`DomainError` unless d = 2 and
        :class:`~simplexreg.errors.DegenerateSiteError` for repeated points."""
        return voronoi_partition(self.points)


def gm_weight_matrix(
    partition: SimplexPartition,
    b: float,
    eval_points,
    cfg: CubatureConfig | None = None,
):
    """Kernel cell integrals for a batch of evaluation points.

    Returns ``(weights, cell_converged)`` where ``weights[i, j]`` is the
    integral of the kernel centered at evaluation point i over cell j, and
    ``cell_converged[j]`` reports whether cell j's cubature met tolerance for
    every evaluation point.  The kernel integral is nonnegative, so signed
    quadrature noise at the absolute floor is clamped away.

    The points of a batch share each cell's refinement: a triangle is split
    when any point's integral needs it.  So a weight depends, within the
    cubature tolerance, on which other points share the call, though not on
    their order (permuting the points permutes the rows, up to rounding).

    A pair whose kernel is bounded (by concavity of the log-kernel, see
    :func:`~simplexreg.kernel.log_kappa_cell_bounds`) so far below the
    absolute floor that it would pass the first cubature round anyway is
    not integrated: its weight is exactly 0, the true weight is below the
    floor, and every other pair's weight and every flag stay as they are.
    """
    cfg = cfg or CubatureConfig()
    S = validate_points(eval_points, dim=2)
    m = S.shape[0]
    f_batch = kappa_columns(S, b)
    cells = partition.cells
    bounds = log_kappa_cell_bounds(S, b, [cell.vertices for cell in cells])
    skip = negligible_components(bounds, [cell.area for cell in cells], cfg)
    weights = np.zeros((m, len(partition)))
    converged = np.ones(len(partition), dtype=bool)
    for j, cell in enumerate(cells):
        keep = np.flatnonzero(~skip[:, j])
        if keep.size == 0:
            continue
        vals, _, ok, _ = integrate_polygon_batch(
            _columns_of(f_batch, keep), cell, keep.size, cfg, boundary_layer_scale=b
        )
        weights[keep, j] = np.maximum(vals, 0.0)
        converged[j] = ok
    return weights, converged


def _columns_of(f_batch, keep: np.ndarray):
    """``f_batch`` restricted to the components ``keep``, renumbered 0.."""
    return lambda pts, cols: f_batch(pts, keep[cols])


class KernelWeights:
    """Kernel weights of design points against evaluation points at one
    bandwidth ``b`` or at each of a 1-D sequence of them, shared by NW and
    LL evaluation.

    The row-max rescaling cancels the kernel's normalisation, so the
    stabilized weight at bandwidth b is ``exp(D / b)`` with the
    bandwidth-free ``D = G - rowmax(G)``, ``G[i, j] = sum_l s_il log x_jl``
    over full coordinates.  ``w`` holds the weights at the bandwidth last
    selected by :meth:`at`, the first one from construction; with one
    bandwidth they overwrite D, with several they share one buffer.  With
    ``leave_one_out=True`` the evaluation points are the design points
    ``rows`` (a slice, all of them by default) and each point's own weight
    is removed before the row rescaling, so the row of design point i is the
    fit without observation i.
    """

    def __init__(
        self,
        x_points,
        eval_points,
        b,
        leave_one_out: bool = False,
        rows: slice = slice(None),
    ):
        self.X = validate_points(x_points)
        self.S = validate_points(eval_points, dim=self.X.shape[1])
        self.leave_one_out = leave_one_out
        self.bandwidths = _bandwidths(b)
        D = _log_kernel_products(self.S, self.X)
        if leave_one_out:
            held_out = np.arange(self.X.shape[0])[rows]
            if self.S.shape[0] != held_out.size:
                raise MismatchError("leave-one-out weights need the design as points")
            D[np.arange(held_out.size), held_out] = -np.inf
        top = D.max(axis=1)
        self.dead = np.isneginf(top)
        # in place, so D and the weights are the only m x n arrays alive
        D -= np.where(self.dead, 0.0, top)[:, None]
        self._D = D
        self.w = D if self.bandwidths.size == 1 else np.empty_like(D)
        self._at = None
        self.at(0)

    def at(self, i: int) -> KernelWeights:
        """These weights at bandwidth ``bandwidths[i]``: ``w = exp(D / b)``."""
        if i != self._at:
            np.divide(self._D, self.bandwidths[i], out=self.w)
            np.exp(self.w, out=self.w)
            self._at = i
        return self

    def nw(self, responses: np.ndarray) -> np.ndarray:
        """Kernel-weighted averages, the degree-0 fits of :meth:`_fits`."""
        return self._fits(responses, 0)[0]

    def ll(self, responses: np.ndarray):
        """Local linear estimates, the degree-1 fits of :meth:`_fits`, and their flags."""
        n, d = self.X.shape
        need = d + 2 if self.leave_one_out else d + 1
        if n < need:
            raise InsufficientDataError(f"local linear fit needs n >= {need}, got {n}")
        return self._fits(responses, 1)

    def _fits(self, responses, degree: int):
        """Weighted least-squares fits of degree 0 (``z = [1]``) or 1
        (``z = [1, x]``) to ``(n,)`` or ``(n, r)`` responses: ``(m,)`` or
        ``(m, r)`` values, NaN where every weight vanished, and the ``(m,)``
        flags of the degree-1 points that kept the NW value.

        One contraction of the weight rows with the design columns ``z z^T``
        and ``y z`` (numpy's own loop, not BLAS, so a point's values do not
        depend on its batch) gives each point's normal matrix ``R`` and
        right-hand sides ``r``; the NW value is ``r_0 / R_00``.  Degree 1
        centres them at the evaluation point ``s`` (``A = T R T^T``, ``T r``,
        ``T = [[1, 0], [-s, I]]``) and flags the points whose ``A`` is
        singular within ``LL_RCOND`` (:func:`_singular`).
        """
        n = self.X.shape[0]
        Y = np.asarray(responses, dtype=float)
        if Y.ndim not in (1, 2) or Y.shape[0] != n:
            raise MismatchError(f"responses of shape {Y.shape} for {n} design points")
        cols = Y.reshape(n, -1).T
        m, r = self.S.shape[0], cols.shape[0]
        z = np.vstack([np.ones(n), self.X.T][: degree + 1])
        j, k = np.triu_indices(len(z))
        P = np.vstack([z[j] * z[k], *(y * z for y in cols)])
        M = np.einsum("mn,kn->mk", self.w, P)
        A = np.empty((m, len(z), len(z)))
        A[:, j, k] = A[:, k, j] = M[:, : j.size]
        rhs = M[:, j.size :].reshape(m, r, len(z))
        nw = ~self.dead  # the points that take the NW value r_0 / R_00
        est = np.full((m, r), np.nan)
        if degree:
            # T R, then (T R) T^T, then T r; row and column 0 stay as they are
            A[:, 1:, :] -= self.S[:, :, None] * A[:, None, 0, :]
            A[:, :, 1:] -= A[:, :, :1] * self.S[:, None, :]
            rhs[:, :, 1:] -= rhs[:, :, :1] * self.S[:, None, :]
            singular = _singular(A)
            good, nw = nw & ~singular, nw & singular
            for c in range(r):
                est[good, c] = np.linalg.solve(A[good], rhs[good, c, :, None])[:, 0, 0]
        # the first normal equation alone is the NW average
        est[nw] = rhs[nw, :, 0] / A[nw, 0, :1]
        return (est[:, 0] if Y.ndim == 1 else est), nw & (degree > 0)


def _bandwidths(b) -> np.ndarray:
    """One bandwidth or a 1-D sequence of them as a validated 1-D array."""
    bs = np.atleast_1d(np.asarray(b, dtype=float))
    if bs.ndim != 1 or bs.size == 0:
        raise DomainError(f"expected a bandwidth or a 1-D sequence, got shape {bs.shape}")
    for value in bs:
        _check_bandwidth(value)
    return bs


def _clearly_regular(A: np.ndarray) -> np.ndarray:
    """Flags of the symmetric positive semidefinite ``(m, k, k)`` matrices
    ``A`` that are certainly not singular within ``LL_RCOND``.

    ``det A <= lambda_min lambda_max^(k-1)`` and ``tr A >= lambda_max``, so
    ``det A > 2 LL_RCOND (tr A)^k`` gives ``lambda_min > 2 LL_RCOND
    lambda_max``; the factor 2 leaves room for rounding.
    """
    scale = np.trace(A, axis1=1, axis2=2) ** A.shape[-1]
    with np.errstate(invalid="ignore"):
        return np.linalg.det(A) > 2.0 * LL_RCOND * scale


def _singular(A: np.ndarray) -> np.ndarray:
    """Flags of the symmetric positive semidefinite ``(m, k, k)`` matrices
    ``A`` that are singular within ``LL_RCOND``: ``min|lambda| <= LL_RCOND
    max|lambda|`` (their eigenvalues are their singular values), or not
    finite.  Only the matrices :func:`_clearly_regular` does not clear go
    to ``eigvalsh``.
    """
    singular = ~_clearly_regular(A)
    rest = np.flatnonzero(singular & np.isfinite(A).all(axis=(1, 2)))
    if rest.size:
        ev = np.abs(np.linalg.eigvalsh(A[rest]))
        singular[rest] = ev.min(axis=1) <= LL_RCOND * ev.max(axis=1)
    return singular


def weight_row_blocks(m: int, n: int) -> list[slice]:
    """Row slices of an ``(m, n)`` float matrix: the fewest near-equal
    blocks (sized as by ``np.array_split``) of at most
    ``WEIGHT_BLOCK_BYTES`` each, or single rows where one row is larger.

    A row's NW and LL values do not depend on the other rows of its block,
    so evaluating block by block gives the values of one whole-matrix call.
    """
    rows = max(1, WEIGHT_BLOCK_BYTES // (8 * n))
    count = max(1, -(-m // rows))
    size, extra = divmod(m, count)
    edges = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def kernel_estimates(x_points, eval_points, b, Y, methods, leave_one_out=False):
    """NW and/or LL estimates of the ``(n, r)`` response columns ``Y`` at a
    bandwidth ``b`` or at each of a 1-D sequence of bandwidths.

    Returns ``(estimates, fell_back)``: ``estimates`` maps each of NW and LL
    in ``methods`` to its ``(m, r)`` degree-0 or degree-1 fits (NaN where
    every weight vanished), and ``fell_back`` flags the ``(m,)`` points where
    LL kept the NW value; a sequence of bandwidths adds a leading bandwidth
    axis to both.  With ``leave_one_out=True`` the evaluation points are the
    design points, each row leaving its own observation out.

    This is the one loop over :func:`weight_row_blocks`: each block's
    bandwidth-free :class:`KernelWeights` serves every bandwidth and is
    freed before the next is built.  Blocks are sized for D and one
    bandwidth's weights, whatever the number of bandwidths, so a value at a
    bandwidth of a sequence is bit for bit the value of a call at that
    bandwidth alone.
    """
    X = validate_points(x_points)
    S = validate_points(eval_points, dim=X.shape[1])
    if leave_one_out and S.shape[0] != X.shape[0]:
        raise MismatchError("leave-one-out estimates need the design as points")
    bs = _bandwidths(b)
    Y = np.asarray(Y, dtype=float)
    shape = (bs.size, S.shape[0], Y.shape[1])
    est = {meth: np.empty(shape) for meth in (NW, LL) if meth in methods}
    fell_back = np.zeros(shape[:2], dtype=bool)
    for rows in weight_row_blocks(S.shape[0], 2 * X.shape[0]):
        kw = KernelWeights(X, S[rows], bs, leave_one_out, rows)
        for i in range(bs.size):
            kw.at(i)
            if NW in est:
                est[NW][i, rows] = kw.nw(Y)
            if LL in est:
                est[LL][i, rows], fell_back[i, rows] = kw.ll(Y)
        del kw  # so the next block's weights replace this block's
    if np.ndim(b) == 0:
        return {meth: values[0] for meth, values in est.items()}, fell_back[0]
    return est, fell_back


def batch_estimate(
    method: str,
    design: Design,
    b: float,
    eval_points,
    cfg: CubatureConfig | None = None,
    diagnostics: list | None = None,
) -> np.ndarray:
    """Evaluate one estimator at many points.

    This is the one evaluation path: the single-point functions are its
    one-row calls.  NW and LL are one :func:`kernel_estimates` call, so a
    batch of any size holds at most one row block of kernel weights.
    Per-point failures become NaN entries and are appended to
    ``diagnostics`` (as ``(point index, message)`` pairs, the index into the
    whole batch) rather than aborting the batch.  GM integrates over the
    cells of ``design.partition``, and its entries are ``(cell index,
    message)`` pairs instead, one per cell whose cubature missed its
    tolerance.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    S = validate_points(eval_points, dim=design.dim)
    if method == GM:
        W, conv = gm_weight_matrix(design.partition, b, S, cfg)
        if diagnostics is not None:
            diagnostics.extend(
                (int(j), f"cell {j}: cubature tolerance not reached")
                for j in np.nonzero(~conv)[0]
            )
        # numpy's own loop, not BLAS: a point's value does not depend on its batch
        return np.einsum("mn,n->m", W, design.responses)
    est, fell_back = kernel_estimates(design.points, S, b, design.responses[:, None], [method])
    out = est[method][:, 0]
    if diagnostics is not None:
        for i in np.nonzero(fell_back)[0]:
            diagnostics.append((int(i), "ll singular; nw fallback"))
        for i in np.nonzero(np.isnan(out))[0]:
            diagnostics.append((int(i), "all kernel weights vanished"))
    return out


def _estimate_one(
    method: str,
    design: Design,
    b: float,
    s,
    cfg: CubatureConfig | None = None,
    diagnostics: list | None = None,
) -> float:
    """:func:`batch_estimate` at the one point ``s``; a point where every
    kernel weight vanished raises :class:`AllWeightsVanishedError`."""
    flags: list = []
    value = batch_estimate(method, design, b, s, cfg, flags)[0]
    if np.isnan(value):
        raise AllWeightsVanishedError(
            "all kernel weights vanished; no design point supports this estimate"
        )
    if diagnostics is not None:
        diagnostics.extend(flags)
    return float(value)


def gm_estimate(
    design: Design,
    b: float,
    s,
    cfg: CubatureConfig | None = None,
    diagnostics: list | None = None,
) -> float:
    """Gasser-Muller estimate at ``s`` over the cells of ``design.partition``,
    the one-row :func:`batch_estimate`.

    When a list is supplied, each cell whose cubature missed its tolerance
    is appended to ``diagnostics`` as a ``(cell index, message)`` pair; the
    estimate is still returned.
    """
    return _estimate_one(GM, design, b, s, cfg, diagnostics)


def nw_estimate(design: Design, b: float, s) -> float:
    """Nadaraya-Watson estimate at ``s``, the one-row :func:`batch_estimate`."""
    return _estimate_one(NW, design, b, s)


def ll_estimate(design: Design, b: float, s, diagnostics: list | None = None) -> float:
    """Local linear estimate at ``s``, the one-row :func:`batch_estimate`.

    Where the normal equations are singular the NW value is returned and,
    when a list is supplied, ``(0, "ll singular; nw fallback")`` is appended
    to ``diagnostics``.
    """
    return _estimate_one(LL, design, b, s, diagnostics=diagnostics)


__all__ = [
    "Design",
    "KernelWeights",
    "GM",
    "NW",
    "LL",
    "METHODS",
    "gm_weight_matrix",
    "gm_estimate",
    "nw_estimate",
    "ll_estimate",
    "batch_estimate",
    "kernel_estimates",
    "weight_row_blocks",
]
