"""Monte Carlo study harness: target functions, noise model, ISE statistics.

A study cell is a (target function, mesh size, method) triple.  Each
replication draws Gaussian noise scaled from the spread of the true response
values, draws a fresh uniform evaluation sample, selects the bandwidth by
cross-validation against the known target, and records the Monte Carlo
integrated squared error at the selected bandwidth.  Cells are aggregated
into mean/SD/median/IQR rows, reported times 1e7 at output only.

Reproducibility: every random stream is derived from the master seed with
counter-based spawn keys, so reruns are bit-identical and replications are
independent units of work.  For a fixed mesh, the evaluation sample and the
standard normal draws of replication r are shared across target functions
and methods (only the noise scale differs); that makes the expensive
Gasser-Muller weight matrices reusable across the whole study without
changing any row's marginal distribution.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import TargetFunction, clt_standardize, uniform_profile
from .bandwidth import BandwidthSearch, _mc_ise
from .cubature import CubatureConfig
from .errors import DegenerateIqrWarning, UnknownFunctionError
from .estimators import GM, LL, METHODS, NW, Design, gm_weight_matrix, kernel_estimates
from .geometry import (
    mesh_design_points,
    uniform_simplex_sample,
    voronoi_partition,
)
from .kernel import validate_points


def _m1(s):
    s = np.asarray(s, float)
    return np.log1p(s[..., 0] + s[..., 1])


def _m2(s):
    s = np.asarray(s, float)
    return np.sin(s[..., 0]) + np.cos(s[..., 1])


def _m3(s):
    s = np.asarray(s, float)
    return np.sqrt(s[..., 0]) + np.sqrt(s[..., 1])


def _m4(s):
    s = np.asarray(s, float)
    return s[..., 0] * (1.0 + s[..., 1])


def _m5(s):
    s = np.asarray(s, float)
    return (s[..., 0] + 0.25) ** 2 + (s[..., 1] + 0.75) ** 2


def _m6(s):
    s = np.asarray(s, float)
    return (1.0 + s[..., 0]) * np.exp(s[..., 1])


def _symmetric(a, b, c):
    """The symmetric matrices ``[[a, b], [b, c]]``, shaped ``(..., 2, 2)``."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


_TARGETS = {
    "m1": TargetFunction(
        value=_m1,
        gradient=lambda s: np.ones(2) / (1.0 + s[..., 0] + s[..., 1])[..., None],
        hessian=lambda s: -np.ones((2, 2)) / ((1.0 + s[..., 0] + s[..., 1]) ** 2)[..., None, None],
        label="m1",
    ),
    "m2": TargetFunction(
        value=_m2,
        gradient=lambda s: np.stack([np.cos(s[..., 0]), -np.sin(s[..., 1])], -1),
        hessian=lambda s: _symmetric(-np.sin(s[..., 0]), 0.0, -np.cos(s[..., 1])),
        label="m2",
    ),
    "m3": TargetFunction(
        value=_m3,
        gradient=lambda s: 0.5 / np.sqrt(s),
        hessian=lambda s: _symmetric(-0.25 * s[..., 0] ** -1.5, 0.0, -0.25 * s[..., 1] ** -1.5),
        label="m3",
    ),
    "m4": TargetFunction(
        value=_m4,
        gradient=lambda s: np.stack([1.0 + s[..., 1], s[..., 0]], -1),
        hessian=lambda s: np.array([[0.0, 1.0], [1.0, 0.0]]),
        label="m4",
    ),
    "m5": TargetFunction(
        value=_m5,
        gradient=lambda s: 2.0 * (s + [0.25, 0.75]),
        hessian=lambda s: 2.0 * np.eye(2),
        label="m5",
    ),
    "m6": TargetFunction(
        value=_m6,
        gradient=lambda s: np.stack([np.exp(s[..., 1]), (1.0 + s[..., 0]) * np.exp(s[..., 1])], -1),
        hessian=lambda s: _symmetric(0.0, np.exp(s[..., 1]), (1.0 + s[..., 0]) * np.exp(s[..., 1])),
        label="m6",
    ),
}

FUNCTION_IDS = tuple(sorted(_TARGETS))


def target_function(name: str) -> TargetFunction:
    """One of the six study targets m1..m6, with analytic derivatives."""
    try:
        return _TARGETS[name]
    except KeyError:
        raise UnknownFunctionError(
            f"unknown target {name!r}; expected one of {FUNCTION_IDS}"
        ) from None


def noise_sd(m: TargetFunction, points) -> float:
    """Gaussian noise standard deviation from the response spread,
    ``IQR(m(x_1..x_n))/10``: the reading consistent with the reported study
    magnitudes."""
    vals = np.asarray(m(validate_points(points)), dtype=float)
    q75, q25 = np.percentile(vals, [75.0, 25.0])
    iqr = float(q75 - q25)
    if iqr == 0.0:
        warnings.warn(
            "response spread is zero; generating noiseless responses",
            DegenerateIqrWarning,
            stacklevel=2,
        )
        return 0.0
    return iqr / 10.0


def generate_responses(
    m: TargetFunction,
    points,
    seed,
    zero_noise: bool = False,
) -> Design:
    """Simulate ``Y_i = m(x_i) + eps_i`` with iid centered Gaussian errors.

    Deterministic given ``seed``; the same seed shares the underlying
    standard normal draws across target functions (only the scale differs).
    """
    pts = validate_points(points)
    if pts.shape[0] < 2:
        raise ValueError("need at least two points for a well-defined spread")
    truth = np.asarray(m(pts), dtype=float)
    if zero_noise:
        return Design(points=pts, responses=truth)
    sd = noise_sd(m, pts)
    eps = np.random.default_rng(seed).standard_normal(pts.shape[0]) * sd
    return Design(points=pts, responses=truth + eps)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a Monte Carlo comparison study (selection on the
    grid of ``search`` only, so ``search.refine`` must be False)."""

    functions: tuple[str, ...] = ("m1", "m2", "m3", "m4", "m5", "m6")
    k_values: tuple[int, ...] = (7, 10, 14)
    methods: tuple[str, ...] = (GM, NW, LL)
    replications: int = 100
    seed: int = 0
    cubature: CubatureConfig = field(default_factory=CubatureConfig)
    lscv_sample_size: int = 1000
    search: BandwidthSearch = field(
        default_factory=lambda: BandwidthSearch(refine=False)
    )

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for k in self.k_values:
            if k < 2:
                raise ValueError("mesh sizes must satisfy k >= 2")
        for f in self.functions:
            if f not in _TARGETS:
                raise UnknownFunctionError(f"unknown target {f!r}")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}")
        if self.search.refine:
            raise ValueError("the study selects on the grid only; use refine=False")


@dataclass(frozen=True)
class StudyResult:
    """One aggregated study row (integrated squared errors scaled by 1e7).

    ``converged`` is False when some GM cell integral stopped short of the
    cubature tolerance, at some grid bandwidth of some replication; NW and
    LL rows integrate nothing and are always True.
    """

    function: str
    n: int
    method: str
    mean: float
    sd: float
    median: float
    iqr: float
    replications: int
    failures: int
    elapsed_seconds: float
    valid: bool
    converged: bool


_METHOD_ORDER = {GM: 0, NW: 1, LL: 2}


def _rep_seeds(master: int, k: int, rep: int):
    base = np.random.SeedSequence(entropy=master, spawn_key=(k, rep))
    return base.spawn(2)  # (sample stream, noise stream)


def _grid_criterion_values(cfg, points, partition, sample, designs, truths):
    """LSCV values on the shared grid for every (function, method) pair, and
    whether every GM cell integral met the cubature tolerance.

    Per bandwidth one GM weight matrix, then one
    :func:`~simplexreg.estimators.kernel_estimates` call over the whole
    grid (after the GM cubature, so its estimates do not add to that
    peak), serve all functions, whose responses are the columns of one
    matrix.  Values agree bit-for-bit with
    :func:`simplexreg.bandwidth.lscv`: the same estimators and the same
    criterion formula run underneath.
    """
    grid = cfg.search.grid
    dim = points.shape[1]
    ys = [designs[f].responses for f in cfg.functions]
    out = {
        (f, meth): np.full(grid.size, np.inf)
        for f in cfg.functions
        for meth in cfg.methods
    }

    def score(meth, bi, est):
        for f, column in zip(cfg.functions, est.T):
            out[(f, meth)][bi] = _mc_ise(column, truths[f], dim)

    gm_converged = True
    if GM in cfg.methods:
        for bi, b in enumerate(grid):
            gm_W, cell_converged = gm_weight_matrix(partition, b, sample, cfg.cubature)
            gm_converged &= bool(cell_converged.all())
            score(GM, bi, np.column_stack([np.einsum("mn,n->m", gm_W, y) for y in ys]))
    if NW in cfg.methods or LL in cfg.methods:
        ests, _ = kernel_estimates(points, sample, grid, np.column_stack(ys), cfg.methods)
        for meth, est in ests.items():
            for bi in range(grid.size):
                score(meth, bi, est[bi])
    return out, gm_converged


def run_study(cfg: StudyConfig) -> list[StudyResult]:
    """Run the full Monte Carlo comparison and return sorted summary rows.

    For each (function, mesh, method) cell: ``cfg.replications`` runs, each
    with fresh noise and a fresh uniform evaluation sample, bandwidth
    selected by minimizing the LSCV criterion on the ``cfg.search`` grid,
    and the ISE recorded at the selected bandwidth.  Failed replications are
    excluded and counted; a cell losing more than 10% of its replications is
    marked invalid.  A GM row whose cell integrals missed the cubature
    tolerance has ``converged=False``.  Fully deterministic given
    ``cfg.seed``.
    """
    rows: list[StudyResult] = []

    for k in cfg.k_values:
        points = mesh_design_points(k)
        n = points.shape[0]
        partition = voronoi_partition(points) if GM in cfg.methods else None
        ise = {(f, meth): [] for f in cfg.functions for meth in cfg.methods}
        failures = {(f, meth): 0 for f in cfg.functions for meth in cfg.methods}
        gm_converged = True
        started = time.perf_counter()

        for rep in range(cfg.replications):
            sample_seq, noise_seq = _rep_seeds(cfg.seed, k, rep)
            sample = uniform_simplex_sample(cfg.lscv_sample_size, sample_seq)
            designs = {
                f: generate_responses(target_function(f), points, noise_seq)
                for f in cfg.functions
            }
            truths = {
                f: np.asarray(target_function(f)(sample), float)
                for f in cfg.functions
            }
            values, converged = _grid_criterion_values(
                cfg, points, partition, sample, designs, truths
            )
            gm_converged &= converged

            for f in cfg.functions:
                for meth in cfg.methods:
                    vals = values[(f, meth)]
                    if not np.any(np.isfinite(vals)):
                        failures[(f, meth)] += 1
                        continue
                    ise[(f, meth)].append(float(vals.min()))

        elapsed = time.perf_counter() - started
        for f in cfg.functions:
            for meth in cfg.methods:
                vals = np.array(ise[(f, meth)], dtype=float) * 1e7
                nfail = failures[(f, meth)]
                stats = (math.nan,) * 4  # mean, sd, median, iqr of no values
                if vals.size:
                    q75, q25 = np.percentile(vals, [75.0, 25.0])
                    stats = (
                        float(vals.mean()),
                        float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                        float(np.median(vals)),
                        float(q75 - q25),
                    )
                rows.append(
                    StudyResult(
                        f, n, meth, *stats,
                        replications=int(vals.size),
                        failures=nfail,
                        elapsed_seconds=elapsed,
                        valid=nfail <= 0.1 * cfg.replications,
                        converged=gm_converged or meth != GM,
                    )
                )

    rows.sort(key=lambda r: (r.function, r.n, _METHOD_ORDER[r.method]))
    return rows


def _ks_normal_statistic(z) -> float:
    """Kolmogorov-Smirnov distance between the sample ``z`` and the standard
    normal: ``max_i max(i/n - Phi(z_(i)), Phi(z_(i)) - (i-1)/n)`` over the
    sorted sample, the statistic of ``scipy.stats.kstest(z, "norm")``
    without importing ``scipy.stats``."""
    from scipy.special import ndtr

    cdf = ndtr(np.sort(np.asarray(z, dtype=float)))
    n = cdf.size
    d_plus = np.arange(1.0, n + 1) / n - cdf
    d_minus = cdf - np.arange(0.0, n) / n
    return float(max(d_plus.max(), d_minus.max()))


@dataclass(frozen=True)
class CltStudyResult:
    """Mean-centered standardized replicates and their KS statistic.

    ``converged`` is False when some cell's GM weight integral stopped
    short of the cubature tolerance.
    """

    standardized: np.ndarray
    ks_statistic: float
    converged: bool


def _k_for_sample_size(n: int) -> int:
    k = int(round((math.sqrt(8 * n + 1) - 1) / 2))
    if k * (k + 1) // 2 != n or k < 2:
        raise ValueError(f"{n} is not a mesh sample size k(k+1)/2 with k >= 2")
    return k


def clt_study(
    m: TargetFunction,
    s,
    n: int,
    b: float,
    replications: int,
    seed: int,
    sigma: float = 1.0,
    cfg: CubatureConfig | None = None,
) -> CltStudyResult:
    """Empirical normality check of the Gasser-Muller estimator at a point.

    Runs ``replications`` noisy designs on the mesh with ``n`` points
    (homoscedastic Gaussian errors of known scale ``sigma``), standardizes
    the GM estimates by the limiting normal scale with the uniform design
    density, removes the bias by centering at the empirical mean, and
    reports the Kolmogorov-Smirnov statistic against the standard normal.

    The estimates share one row of GM weights at ``s``: the mesh's
    :func:`~simplexreg.geometry.voronoi_partition`, whose cells walk in
    lockstep, and one :func:`~simplexreg.estimators.gm_weight_matrix`
    call, whose cells share the one point and so one first-round kernel
    evaluation (at n = 105 and b = 0.2 every cell passes in that round).
    """
    if replications < 2:
        raise ValueError("the KS statistic needs at least two replications")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    k = _k_for_sample_size(n)
    points = mesh_design_points(k)
    partition = voronoi_partition(points)
    weights, cell_converged = gm_weight_matrix(partition, b, np.atleast_2d(s), cfg)
    w = weights[0]
    truth = np.asarray(m(points), dtype=float)
    base = float(w @ truth)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    noise = rng.standard_normal((replications, n))
    noise *= sigma  # in place: one replications x n array at a time
    estimates = base + noise @ w
    profile = uniform_profile(sigma**2, dim=2)
    z = clt_standardize(estimates, s, m, profile, n, b)
    z = z - z.mean()
    return CltStudyResult(
        standardized=z,
        ks_statistic=_ks_normal_statistic(z),
        converged=bool(cell_converged.all()),
    )


__all__ = [
    "FUNCTION_IDS",
    "target_function",
    "noise_sd",
    "generate_responses",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "CltStudyResult",
    "clt_study",
]
