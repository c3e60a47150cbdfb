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

    ``value`` must accept arrays shaped ``(..., d)`` and return ``(...)``.
    ``gradient`` and ``hessian`` act on a single point; when absent they are
    synthesized by boundary-aware central differences.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def __call__(self, s) -> np.ndarray:
        return self.value(np.asarray(s, dtype=float))

    def gradient_at(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(s), dtype=float)
        if self.value is None:
            raise MissingDerivativesError("no gradient and no value to differentiate")
        return fd_gradient(self.value, s)

    def hessian_at(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(s), dtype=float)
        if self.value is None:
            raise MissingDerivativesError("no hessian and no value to differentiate")
        return fd_hessian(self.value, s)


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


def _inside(s: np.ndarray) -> bool:
    return bool(np.all(s >= 0.0) and s.sum() <= 1.0)


def _step_points(s: np.ndarray, i: int, h: float):
    """Stencil abscissae along coordinate i: central if both sides stay in
    the simplex, otherwise shifted one-sided."""
    e = np.zeros_like(s)
    e[i] = 1.0
    if _inside(s + h * e) and _inside(s - h * e):
        return "central", (s - h * e, s + h * e)
    if _inside(s + 2 * h * e):
        return "forward", (s + h * e, s + 2 * h * e)
    return "backward", (s - h * e, s - 2 * h * e)


def fd_gradient(f, s, h: float = FD_STEP) -> np.ndarray:
    """Boundary-aware finite-difference gradient on the simplex."""
    s = np.asarray(s, dtype=float)
    grad = np.empty_like(s)
    f0 = None
    for i in range(s.size):
        kind, (p1, p2) = _step_points(s, i, h)
        if kind == "central":
            grad[i] = (f(p2) - f(p1)) / (2.0 * h)
        else:
            if f0 is None:
                f0 = f(s)
            sign = 1.0 if kind == "forward" else -1.0
            grad[i] = sign * (-3.0 * f0 + 4.0 * f(p1) - f(p2)) / (2.0 * h)
    return grad


def fd_hessian(f, s, h: float = FD_STEP_HESSIAN) -> np.ndarray:
    """Boundary-aware finite-difference Hessian (symmetric) on the simplex."""
    s = np.asarray(s, dtype=float)
    d = s.size
    H = np.empty((d, d))
    f0 = float(f(s))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        if _inside(s + ei) and _inside(s - ei):
            H[i, i] = (float(f(s + ei)) - 2.0 * f0 + float(f(s - ei))) / h**2
        else:
            sign = 1.0 if _inside(s + 2 * ei) else -1.0
            H[i, i] = (
                f0
                - 2.0 * float(f(s + sign * ei))
                + float(f(s + sign * 2 * ei))
            ) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            pts = (s + ei + ej, s + ei - ej, s - ei + ej, s - ei - ej)
            if all(_inside(p) for p in pts):
                H[i, j] = (
                    float(f(pts[0]))
                    - float(f(pts[1]))
                    - float(f(pts[2]))
                    + float(f(pts[3]))
                ) / (4.0 * h**2)
            else:
                # differentiate the i-gradient along j, one-sided if needed
                gi = lambda p: fd_gradient(f, p, h)[i]
                kind, (p1, p2) = _step_points(s, j, h)
                if kind == "central":
                    H[i, j] = (gi(p2) - gi(p1)) / (2.0 * h)
                else:
                    sign = 1.0 if kind == "forward" else -1.0
                    H[i, j] = sign * (-3.0 * gi(s) + 4.0 * gi(p1) - gi(p2)) / (2.0 * h)
            H[j, i] = H[i, j]
    return H


def bias_g(m: TargetFunction, s) -> float:
    """First-order bias coefficient ``g(s)`` of the Gasser-Muller smoother."""
    s = validate_point(s)
    d = s.size
    grad = m.gradient_at(s)
    hess = m.hessian_at(s)
    first = float(((1.0 - (d + 1) * s) * grad).sum())
    shape = np.diag(s) - np.outer(s, s)
    second = 0.5 * float((shape * hess).sum())
    return first + second


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
    pts = np.asarray(s, dtype=float)
    single = pts.ndim <= 1
    if pts.ndim > 2:
        raise DomainError(f"expected a point (d,) or points (n, d), got shape {pts.shape}")
    pts = validate_points(pts)
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
    base = psi_J(s, J) * profile.sigma2(s) / profile.design_density(s)
    for j in J:
        base *= _gamma_shrink_factor(lam[j])
    return float(n**-1.0 * b ** (-(d + len(J)) / 2.0) * base)


def mse_expression(b: float, g2: float, vconst: float, n: int, d: int) -> float:
    """Two-term asymptotic MSE ``b^2 g^2 + n^-1 b^-d/2 vconst``."""
    return b**2 * g2 + vconst / (n * b ** (d / 2.0))


def _optimal_from_constants(g2: float, vconst: float, n: int, d: int):
    if d not in (1, 2, 3):
        raise DomainError(f"optimal-bandwidth formulas require d in {{1,2,3}}, got d={d}")
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
    vconst = psi_J(s) * profile.sigma2(s) / profile.design_density(s)
    return _optimal_from_constants(g * g, vconst, n, s.size)


def _profile_values(fn, points: np.ndarray, name: str) -> np.ndarray:
    vals = np.asarray(fn(points), dtype=float)
    if vals.shape not in ((), points.shape[:-1]):
        raise MismatchError(
            f"profile.{name} returned shape {vals.shape} for points of shape "
            f"{points.shape}; expected a scalar or {points.shape[:-1]}"
        )
    return vals


def mise_constants(
    m: TargetFunction,
    profile: VarianceProfile,
    cfg: CubatureConfig | None = None,
) -> tuple[float, float]:
    """The two MISE integrals over the 2-simplex: integrated squared bias
    coefficient and integrated variance constant (the latter over the
    epsilon-shrunken simplex, since it diverges on the boundary, from roots
    graded toward the simplex edges at scale epsilon; see
    :func:`~simplexreg.cubature.integrate_simplex`).

    The variance integrand is evaluated once per cubature round on the
    whole batch of points, so ``profile.sigma2`` and
    ``profile.design_density`` receive ``(n, 2)`` arrays and must return a
    scalar or an ``(n,)`` array (any other shape raises
    :class:`MismatchError`).  The bias coefficient is evaluated point by
    point, because the derivative callbacks of ``m`` act on a single point.
    """
    cfg = cfg or CubatureConfig()

    def g2(points: np.ndarray) -> np.ndarray:
        return np.array([bias_g(m, p) ** 2 for p in points])

    def vfun(points: np.ndarray) -> np.ndarray:
        return (
            psi_J(points)
            * _profile_values(profile.sigma2, points, "sigma2")
            / _profile_values(profile.design_density, points, "design_density")
        )

    g2_int = integrate_simplex(g2, cfg).value
    v_int = integrate_simplex(vfun, cfg, boundary_singular=True).value
    return g2_int, v_int


def mise_opt_bandwidth(
    m: TargetFunction,
    profile: VarianceProfile,
    cfg: CubatureConfig | None = None,
    n: int = 100,
) -> tuple[float, float]:
    """MISE-optimal bandwidth and value over the 2-simplex.

    Integrates the squared bias coefficient and the boundary-singular
    variance constant and plugs the two numbers into the same optimum as
    the pointwise case.
    """
    g2_int, v_int = mise_constants(m, profile, cfg)
    if g2_int <= 1e-300:
        raise ZeroBiasError("integrated squared bias underflows; no finite optimum")
    return _optimal_from_constants(g2_int, v_int, n, 2)


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
    d = s.size
    sig2 = profile.sigma2(s)
    if sig2 <= 0.0:
        raise DomainError("sigma^2(s) must be positive")
    scale = np.sqrt(psi_J(s) * sig2 / profile.design_density(s))
    est = np.asarray(estimate, dtype=float)
    z = np.sqrt(n) * b ** (d / 4.0) * (est - float(m(s))) / scale
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
    "mise_opt_bandwidth",
    "clt_standardize",
]
