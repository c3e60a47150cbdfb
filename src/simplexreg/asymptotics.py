"""Closed-form asymptotic constants of the Gasser-Muller smoother.

The large-sample behavior of the estimator at an interior point ``s`` is
governed by two quantities: the bias function

    g(s) = sum_i {1 - (d+1) s_i} dm/ds_i
           + (1/2) sum_{ij} s_i (1{i=j} - s_j) d2m/ds_i ds_j,

with pointwise bias ``b*g(s)`` to first order in the bandwidth, and the
variance constant ``psi_J(s)`` together with the design density ``f`` and the
noise variance ``sigma^2``, with leading pointwise variance
``n^-1 b^-(d+|J|)/2 psi_J(s) sigma^2(s)/f(s)`` (times an explicit gamma
correction for coordinates shrinking proportionally to ``b``).  Balancing the
two yields the MSE- and MISE-optimal bandwidths.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubature import CubatureConfig, integrate_simplex
from .errors import (
    BoundaryError,
    DomainError,
    MismatchError,
    MissingDerivativesError,
    ZeroBiasError,
)
from .kernel import last_coordinate, validate_point, validate_points

FD_STEP = 1e-5
# second differences lose ~eps/h^2 to cancellation, so the Hessian uses the
# standard larger step balancing truncation against rounding
FD_STEP_HESSIAN = 1e-4


@dataclass(frozen=True)
class TargetFunction:
    """Regression function with optional analytic derivative callbacks.

    All act on point arrays ``(..., d)``: ``value`` returns ``(...)``,
    ``gradient`` ``(..., d)`` or a constant ``(d,)``, ``hessian``
    ``(..., d, d)`` or a constant ``(d, d)``.  Absent derivatives are
    synthesized by boundary-aware finite differences of ``value``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def __call__(self, s) -> np.ndarray:
        return self.value(np.asarray(s, dtype=float))

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Gradient at validated points ``(n, d)``: ``(n, d)`` or constant ``(d,)``."""
        if self.gradient is not None:
            return _callback_values(self.gradient, points, points.shape[1:], "gradient")
        if self.value is None:
            raise MissingDerivativesError("no gradient and no value to differentiate")
        return fd_gradient(self.value, points)

    def hessian_at(self, points: np.ndarray) -> np.ndarray:
        """Hessian at validated points ``(n, d)``: ``(n, d, d)`` or constant ``(d, d)``."""
        if self.hessian is not None:
            return _callback_values(self.hessian, points, 2 * points.shape[1:], "hessian")
        if self.value is None:
            raise MissingDerivativesError("no hessian and no value to differentiate")
        return fd_hessian(self.value, points)


@dataclass(frozen=True)
class VarianceProfile:
    """Noise variance and design density as functions on the simplex.

    Both callables take points shaped ``(..., d)`` and return either a scalar
    (a constant) or an array shaped ``(...)``, one value per point; the
    integrals of :func:`mise_constants` pass whole ``(n, d)`` batches.
    """

    sigma2: Callable[[np.ndarray], float | np.ndarray]
    design_density: Callable[[np.ndarray], float | np.ndarray]


def uniform_profile(sigma2: float, dim: int = 2) -> VarianceProfile:
    """Constant-variance profile with the uniform design density ``d!``."""
    density = float(np.prod(np.arange(1, dim + 1)))
    return VarianceProfile(
        sigma2=lambda s, v=float(sigma2): v,
        design_density=lambda s, f0=density: f0,
    )


def _callback_values(fn, points: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """``fn(points)``, checked to be a constant of ``shape`` or one such
    value per point: a callback written for one point indexes rows of a
    batch, and raises :class:`MismatchError` here."""
    vals = np.asarray(fn(points), dtype=float)
    if vals.shape not in (shape, points.shape[:-1] + shape):
        raise MismatchError(
            f"{name} returned shape {vals.shape} for points of shape "
            f"{points.shape}; expected {shape} or {points.shape[:-1] + shape}"
        )
    return vals


def _as_points(s) -> tuple[np.ndarray, bool]:
    """Validated points ``(n, d)`` from ``(d,)`` or ``(n, d)``, and whether ``s`` was one."""
    pts = np.asarray(s, dtype=float)
    if pts.ndim > 2:
        raise DomainError(f"expected a point (d,) or points (n, d), got shape {pts.shape}")
    return validate_points(pts), pts.ndim <= 1


def _in_simplex(points: np.ndarray) -> np.ndarray:
    return np.all(points >= 0.0, axis=-1) & (points.sum(axis=-1) <= 1.0)


def _stencil(pts: np.ndarray, e: np.ndarray, h: float):
    """The rows whose central stencil ``s +- h e`` stays in the simplex,
    and for the other rows the sign and the step of a one-sided stencil:
    forward where ``s + 2 h e`` stays in, else backward."""
    central = _in_simplex(pts + h * e) & _in_simplex(pts - h * e)
    sign = np.where(_in_simplex(pts[~central] + 2 * h * e), 1.0, -1.0)
    return central, sign, (sign * h)[:, None] * e


def _first_difference(f, pts: np.ndarray, e: np.ndarray, h: float) -> np.ndarray:
    """Derivative of ``f`` along ``e`` at points ``(n, d)``: central, or
    one-sided of second order where the central stencil leaves the simplex."""
    central, sign, step = _stencil(pts, e, h)
    out = np.empty(pts.shape[0])
    c, p = pts[central], pts[~central]
    out[central] = (f(c + h * e) - f(c - h * e)) / (2.0 * h)
    out[~central] = sign * (-3.0 * f(p) + 4.0 * f(p + step) - f(p + 2.0 * step)) / (2.0 * h)
    return out


def fd_gradient(f, s, h: float = FD_STEP) -> np.ndarray:
    """Boundary-aware finite-difference gradient on the simplex of ``f``,
    which maps points ``(k, d)`` to ``(k,)``: ``(d,)`` at a point ``(d,)``,
    ``(n, d)`` at points ``(n, d)``, each row the single-point call's bits."""
    pts, single = _as_points(s)
    grad = np.stack([_first_difference(f, pts, e, h) for e in np.eye(pts.shape[1])], axis=-1)
    return grad[0] if single else grad


def fd_hessian(f, s, h: float = FD_STEP_HESSIAN) -> np.ndarray:
    """Boundary-aware finite-difference Hessian (symmetric) on the simplex,
    ``(d, d)`` at a point ``(d,)`` and ``(n, d, d)`` at points ``(n, d)``."""
    pts, single = _as_points(s)
    d = pts.shape[1]
    unit = np.eye(d)
    H = np.empty((pts.shape[0], d, d))
    f0 = f(pts)
    for i, e in enumerate(unit):
        central, _, step = _stencil(pts, e, h)
        c, p = pts[central], pts[~central]
        H[central, i, i] = (f(c + h * e) - 2.0 * f0[central] + f(c - h * e)) / h**2
        H[~central, i, i] = (f0[~central] - 2.0 * f(p + step) + f(p + 2.0 * step)) / h**2
        for j in range(i + 1, d):
            # the j-difference of the i-difference: in the interior, the
            # four corners s +- h e_i +- h e_j
            H[:, i, j] = H[:, j, i] = _first_difference(
                lambda q: _first_difference(f, q, e, h), pts, unit[j], h
            )
    return H[0] if single else H


def bias_g(m: TargetFunction, s) -> float | np.ndarray:
    """First-order bias coefficient ``g(s)`` of the Gasser-Muller smoother.

    A float at a point ``(d,)``, an ``(n,)`` array at points ``(n, d)``.
    The callbacks of ``m`` see ``(n, d)`` arrays (``(1, d)`` for a point),
    so each batch entry equals the single-point call bit for bit; a
    callback result of a shape :class:`TargetFunction` does not state
    raises :class:`MismatchError`.
    """
    pts, single = _as_points(s)
    d = pts.shape[1]
    first = ((1.0 - (d + 1) * pts) * m.gradient_at(pts)).sum(axis=-1)
    shape = np.eye(d) * pts[:, None, :] - pts[:, :, None] * pts[:, None, :]
    g = first + 0.5 * (shape * m.hessian_at(pts)).sum(axis=(-2, -1))
    return float(g[0]) if single else g


def psi_J(s, J=()) -> float | np.ndarray:
    """Variance constant ``{(4 pi)^(d-|J|) s_{d+1} prod_{i not in J} s_i}^-1/2``.

    ``J`` holds the (zero-based) indices of coordinates that shrink
    proportionally to the bandwidth; the interior case is ``J = ()``.

    ``s`` is one point of shape ``(d,)``, for which a float is returned, or
    a batch of shape ``(n, d)``, for which an ``(n,)`` array is returned.
    Each batch entry equals the single-point call on that row bit for bit.
    Any invalid row raises: :class:`DomainError` outside the simplex,
    :class:`BoundaryError` on a boundary face the constant diverges on or
    where the product of the coordinates underflows to 0.
    """
    pts, single = _as_points(s)
    d = pts.shape[1]
    J = tuple(sorted(set(int(j) for j in J)))
    if any(j < 0 or j >= d for j in J):
        raise DomainError(f"J must index coordinates 0..{d - 1}, got {J}")
    prod = last_coordinate(pts)
    for i in range(d):
        if i not in J:
            prod = prod * pts[:, i]
    zero = prod <= 0.0  # also where positive coordinates underflow together
    if np.any(zero):
        raise BoundaryError(
            f"psi needs s_{{d+1}} prod_(i not in J) s_i > 0 at {pts[zero][0]}"
        )
    base = (4.0 * np.pi) ** (d - len(J)) * prod
    # numpy's vectorized power may take a SIMD path whose last bit differs
    # from the scalar one.  Square root and division are correctly rounded
    # on every path, so each batch entry equals the single-point value bit
    # for bit.  Both overwrite base, a temporary, so they add no array.
    np.sqrt(base, out=base)
    np.divide(1.0, base, out=base)
    return float(base[0]) if single else base


def _gamma_shrink_factor(lam: float) -> float:
    # Gamma(2 lam + 1) / (2^(2 lam + 1) Gamma(lam + 1)^2)
    from scipy.special import gammaln

    return float(
        np.exp(gammaln(2 * lam + 1) - (2 * lam + 1) * np.log(2.0) - 2 * gammaln(lam + 1))
    )


def _variance_constant(points, profile: VarianceProfile, J=()) -> float | np.ndarray:
    """``psi_J sigma^2 / f`` at a point ``(d,)`` or at points ``(n, d)``."""
    return (
        psi_J(points, J)
        * _callback_values(profile.sigma2, points, (), "profile.sigma2")
        / _callback_values(profile.design_density, points, (), "profile.design_density")
    )


def variance_leading(
    s,
    J,
    lambdas,
    profile: VarianceProfile,
    n: int,
    b: float,
) -> float:
    """Leading term of the pointwise variance (no remainder).

    ``lambdas[i]`` is the limit of ``s_i / b`` for ``i`` in ``J``; those
    entries must be at least 2, the range the leading term is stated for.
    """
    s = validate_point(s)
    d = s.size
    J = tuple(sorted(set(int(j) for j in J)))
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lam.size != d:
        raise DomainError(f"lambdas must have length {d}")
    if any(lam[j] < 2.0 for j in J):
        raise DomainError("lambda_i >= 2 required for every i in J")
    base = _variance_constant(s, profile, J)
    for j in J:
        base *= _gamma_shrink_factor(lam[j])
    return float(n**-1.0 * b ** (-(d + len(J)) / 2.0) * base)


def mse_expression(b: float, g2: float, vconst: float, n: int, d: int) -> float:
    """Two-term asymptotic MSE ``b^2 g^2 + n^-1 b^-d/2 vconst``."""
    return b**2 * g2 + vconst / (n * b ** (d / 2.0))


def optimal_bandwidth(g2: float, vconst: float, n: int, d: int) -> tuple[float, float]:
    """Minimizer ``b`` of :func:`mse_expression` and its minimum, for a
    squared bias coefficient ``g2`` (pointwise or integrated) and a variance
    constant ``vconst``."""
    if d not in (1, 2, 3):
        raise DomainError(f"optimal-bandwidth formulas require d in {{1,2,3}}, got d={d}")
    if n < 1:
        raise DomainError(f"sample size n must be at least 1, got {n}")
    if vconst < 0.0:
        raise DomainError(f"sigma^2 psi / f must be non-negative, got {vconst}")
    if g2 <= 1e-300:
        raise ZeroBiasError("squared bias coefficient underflows; no finite optimum")
    b_opt = n ** (-2.0 / (d + 4)) * ((d / 4.0) * vconst / g2) ** (2.0 / (d + 4))
    lead = (1.0 + d / 4.0) / (d / 4.0) ** (d / (d + 4.0))
    value = n ** (-4.0 / (d + 4)) * lead * vconst ** (4.0 / (d + 4)) * g2 ** (
        d / (d + 4.0)
    )
    return float(b_opt), float(value)


def mse_opt_bandwidth(
    s,
    m: TargetFunction,
    profile: VarianceProfile,
    n: int,
) -> tuple[float, float]:
    """MSE-optimal bandwidth and optimal MSE value at an interior point."""
    s = validate_point(s)
    g = bias_g(m, s)
    if abs(g) <= 1e-12:
        raise ZeroBiasError(f"bias coefficient vanishes at {s}; no finite optimum")
    return optimal_bandwidth(g * g, _variance_constant(s, profile), n, s.size)


def mise_constants(
    m: TargetFunction,
    profile: VarianceProfile,
    cfg: CubatureConfig | None = None,
) -> tuple[float, float, bool]:
    """The two MISE integrals over the 2-simplex: integrated squared bias
    coefficient and integrated variance constant (the latter over the
    epsilon-shrunken simplex, since it diverges on the boundary, from roots
    graded toward the simplex edges at scale epsilon; see
    :func:`~simplexreg.cubature.integrate_simplex`), and whether both met
    the cubature tolerance (m3's ``g^2`` grows like ``1/s_i`` at the edges
    and is not integrable, so its integral stops at the triangle cap).
    Each integrand takes a cubature round's ``(n, 2)`` points at once, so
    the callbacks of ``m`` and ``profile`` see point arrays.
    """
    cfg = cfg or CubatureConfig()
    g2 = integrate_simplex(lambda p: bias_g(m, p) ** 2, cfg)
    v = integrate_simplex(lambda p: _variance_constant(p, profile), cfg, boundary_singular=True)
    return g2.value, v.value, g2.converged and v.converged


def mise_opt_bandwidth(
    m: TargetFunction,
    profile: VarianceProfile,
    cfg: CubatureConfig | None = None,
    n: int = 100,
) -> tuple[float, float]:
    """MISE-optimal bandwidth and value over the 2-simplex: the
    :func:`optimal_bandwidth` of the :func:`mise_constants`."""
    g2_int, v_int, _ = mise_constants(m, profile, cfg)
    return optimal_bandwidth(g2_int, v_int, n, 2)


def clt_standardize(
    estimate,
    s,
    m: TargetFunction,
    profile: VarianceProfile,
    n: int,
    b: float,
) -> float | np.ndarray:
    """Studentize estimates by the limiting normal scale:
    ``n^1/2 b^d/4 (estimate - m(s)) / sqrt(psi(s) sigma^2(s) / f(s))``.

    ``estimate`` is a float, for which a float is returned, or an array of
    estimates at the same point ``s``, standardized elementwise into an
    array of the same shape.
    """
    s = validate_point(s)
    vconst = _variance_constant(s, profile)
    if vconst <= 0.0:
        raise DomainError("sigma^2(s) / f(s) must be positive")
    est = np.asarray(estimate, dtype=float)
    z = np.sqrt(n) * b ** (s.size / 4.0) * (est - float(m(s))) / np.sqrt(vconst)
    return float(z) if est.ndim == 0 else z


__all__ = [
    "TargetFunction",
    "VarianceProfile",
    "uniform_profile",
    "fd_gradient",
    "fd_hessian",
    "bias_g",
    "psi_J",
    "variance_leading",
    "mse_expression",
    "mse_opt_bandwidth",
    "optimal_bandwidth",
    "mise_constants",
    "mise_opt_bandwidth",
    "clt_standardize",
]
