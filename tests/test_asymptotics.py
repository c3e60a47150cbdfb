import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simplexreg import (
    TargetFunction,
    bias_g,
    clt_standardize,
    mise_opt_bandwidth,
    mse_opt_bandwidth,
    psi_J,
    target_function,
    uniform_profile,
    variance_leading,
)
from simplexreg.asymptotics import (
    VarianceProfile,
    fd_gradient,
    fd_hessian,
    mise_constants,
    mse_expression,
)
from simplexreg.errors import BoundaryError, DomainError, MismatchError, ZeroBiasError

from conftest import near_simplex_points, random_interior_points, shrunken_psi_integral

ALL_TARGETS = ["m1", "m2", "m3", "m4", "m5", "m6"]


class TestBiasG:
    def test_constant_function_has_zero_bias(self):
        m = TargetFunction(value=lambda s: np.full(np.asarray(s).shape[:-1], 3.0))
        assert bias_g(m, [0.3, 0.25]) == pytest.approx(0.0, abs=1e-6)

    def test_linear_coordinate_function(self):
        m = TargetFunction(value=lambda s: np.asarray(s)[..., 0])
        for s1 in (0.1, 1 / 3, 0.6):
            assert bias_g(m, [s1, 0.2]) == pytest.approx(1 - 3 * s1, abs=1e-7)

    def test_m5_analytic_vs_finite_difference(self):
        m5 = target_function("m5")
        s = [1 / 3, 1 / 3]
        analytic = bias_g(m5, s)
        synthesized = TargetFunction(value=m5.value)
        assert bias_g(synthesized, s) == pytest.approx(analytic, rel=1e-6)
        assert analytic == pytest.approx(4 / 9, rel=1e-12)

    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_analytic_derivatives_match_finite_differences(self, name):
        m = target_function(name)
        numeric = TargetFunction(value=m.value)
        for s in random_interior_points(50, 1001, margin=0.05):
            a = bias_g(m, s)
            f = bias_g(numeric, s)
            assert f == pytest.approx(a, rel=1e-4, abs=1e-6)


class TestFiniteDifferences:
    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_gradient_and_hessian(self, name):
        m = target_function(name)
        for s in random_interior_points(10, 55, margin=0.05):
            assert_allclose(
                fd_gradient(m.value, s), m.gradient(s), rtol=1e-4, atol=1e-6
            )
            assert_allclose(
                fd_hessian(m.value, s), m.hessian(s), rtol=1e-3, atol=1e-3
            )

    def test_boundary_aware_stencils_stay_inside(self):
        m = target_function("m1")
        g = fd_gradient(m.value, np.array([0.0, 0.5]), h=1e-5)
        assert np.all(np.isfinite(g))
        corner = fd_hessian(m.value, np.array([0.0, 0.0]), h=1e-5)
        assert np.all(np.isfinite(corner))


# points on edges and at vertices, where the stencils go one-sided
# (and, at a vertex, leave the simplex)
EDGE_POINTS = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.0, 0.4], [0.4, 0.0],
     [0.3, 0.7 - 1e-6], [1e-6, 0.5], [0.5, 1e-5], [2e-5, 2e-5]]
)


def study_target(name, analytic):
    m = target_function(name)
    return m if analytic else TargetFunction(value=m.value)


def assert_batch_is_per_row(m, pts):
    """bias_g, fd_gradient and fd_hessian of a batch equal the per-row calls
    bit for bit."""
    calls = (
        lambda p: bias_g(m, p),
        lambda p: fd_gradient(m.value, p),
        lambda p: fd_hessian(m.value, p),
    )
    # m3 meets 1/sqrt(0) on the edges, and sqrt(<0) where a stencil leaves
    # the simplex at a vertex
    with np.errstate(all="ignore"):
        for call in calls:
            batch = call(pts)
            rows = np.array([call(p) for p in pts])
            assert batch.shape == rows.shape
            assert batch.tobytes() == rows.tobytes()


class TestArrayForm:
    @pytest.mark.parametrize("analytic", [True, False])
    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_batch_equals_per_row_calls(self, name, analytic):
        pts = np.vstack([random_interior_points(100, 17, margin=1e-3), EDGE_POINTS])
        assert_batch_is_per_row(study_target(name, analytic), pts)

    @settings(max_examples=200, deadline=None)
    @given(near_simplex_points(), st.sampled_from(ALL_TARGETS), st.booleans())
    def test_batch_equals_per_row_calls_near_the_boundary(self, pts, name, analytic):
        assert_batch_is_per_row(study_target(name, analytic), pts)

    def test_point_gives_float_and_batch_gives_arrays(self):
        m = target_function("m6")
        assert type(bias_g(m, [0.2, 0.3])) is float
        assert bias_g(m, np.empty((0, 2))).shape == (0,)
        assert fd_gradient(m.value, random_interior_points(4, 1)).shape == (4, 2)
        assert fd_hessian(m.value, [0.2, 0.3]).shape == (2, 2)

    def test_one_point_callbacks_raise_on_a_batch(self):
        m2 = target_function("m2")
        one_point_gradient = TargetFunction(
            value=m2.value,
            gradient=lambda s: np.array([np.cos(s[0]), -np.sin(s[1])]),
            hessian=m2.hessian,
        )
        one_point_hessian = TargetFunction(
            value=m2.value,
            gradient=m2.gradient,
            hessian=lambda s: np.diag([-np.sin(s[0]), -np.cos(s[1])]),
        )
        for m in (one_point_gradient, one_point_hessian):
            with pytest.raises(MismatchError):
                bias_g(m, random_interior_points(5, 3))


class TestPsi:
    def test_interior_value(self):
        assert psi_J([1 / 3, 1 / 3]) == pytest.approx(
            0.4134966715663440371335, rel=1e-13
        )
        assert psi_J([1 / 3, 1 / 3]) == pytest.approx(np.sqrt(27) / (4 * np.pi))

    def test_full_index_set_collapses_product(self):
        s = [0.2, 0.3]
        assert psi_J(s, J=(0, 1)) == pytest.approx((1 - 0.5) ** -0.5, rel=1e-13)

    def test_divergence_toward_boundary(self):
        values = [psi_J([0.3, s2]) for s2 in (0.6, 0.67, 0.699, 0.69999)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_permutation_symmetry(self):
        s = np.array([0.15, 0.55])
        assert psi_J(s) == pytest.approx(psi_J(s[::-1]), rel=1e-14)

    def test_boundary_raises(self):
        with pytest.raises(BoundaryError):
            psi_J([0.0, 0.3])
        with pytest.raises(BoundaryError):
            psi_J([0.5, 0.5])
        # coordinates in J may sit on the boundary
        assert np.isfinite(psi_J([0.0, 0.3], J=(0,)))

    @pytest.mark.parametrize("J", [(), (0,), (0, 1)])
    def test_batch_equals_per_row_calls(self, J):
        pts = random_interior_points(200, 9, margin=1e-3)
        batch = psi_J(pts, J)
        assert isinstance(batch, np.ndarray) and batch.shape == (200,)
        assert batch.tolist() == [psi_J(p, J) for p in pts]

    @settings(max_examples=300, deadline=None)
    @given(near_simplex_points(), st.sampled_from([(), (0,), (1,), (0, 1)]))
    @example(np.array([[-1e-13, 0.5], [0.2, 0.3]]), (0,))
    # positive coordinates whose product underflows to 0
    @example(np.array([[1e-200, 1e-200]]), ())
    @example(np.array([[5e-324, 0.5]]), ())
    def test_batch_equals_per_row_calls_near_the_boundary(self, pts, J):
        singles = []
        for p in pts:
            try:
                singles.append(psi_J(p, J))
            except BoundaryError:
                with pytest.raises(BoundaryError):
                    psi_J(pts, J)
                return
        assert psi_J(pts, J).tolist() == singles

    def test_point_gives_float_and_batch_gives_array(self):
        assert type(psi_J(np.array([0.2, 0.3]))) is float
        assert psi_J(np.empty((0, 2))).shape == (0,)

    def test_one_boundary_row_fails_the_batch(self):
        pts = random_interior_points(5, 3)
        pts[2] = [0.0, 0.4]
        with pytest.raises(BoundaryError):
            psi_J(pts)
        assert psi_J(pts, J=(0,)).shape == (5,)
        pts[2] = [0.7, 0.3]  # on the face s_3 = 0, which no J can excuse
        with pytest.raises(BoundaryError):
            psi_J(pts, J=(0, 1))
        pts[2] = [0.8, 0.4]
        with pytest.raises(DomainError):
            psi_J(pts)
        with pytest.raises(DomainError):
            psi_J(np.full((2, 3, 2), 0.2))


class TestVarianceLeading:
    def test_empty_index_set_reduction(self):
        profile = uniform_profile(1.3)
        s = [0.3, 0.25]
        n, b = 100, 0.1
        expected = psi_J(s) * 1.3 / 2.0 / (n * b)
        assert variance_leading(s, (), [2, 2], profile, n, b) == pytest.approx(
            expected, rel=1e-12
        )

    def test_gamma_factor_at_lambda_two(self):
        # Gamma(5) / (2^5 Gamma(3)^2) = 24 / 128 = 3/16
        profile = uniform_profile(1.0)
        s = [0.2, 0.3]
        base = psi_J(s, J=(0,)) * 0.5
        n, b = 50, 0.05
        value = variance_leading(s, (0,), [2.0, 2.0], profile, n, b)
        expected = base * (3.0 / 16.0) / (n * b**1.5)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_lambda_below_two_rejected(self):
        with pytest.raises(DomainError):
            variance_leading([0.2, 0.3], (0,), [1.5, 2.0], uniform_profile(1.0), 10, 0.1)

    def test_continuity_in_s_on_interior(self):
        profile = uniform_profile(1.0)
        line = [variance_leading([t, 0.3], (), [2, 2], profile, 100, 0.1)
                for t in np.linspace(0.1, 0.6, 30)]
        diffs = np.abs(np.diff(line)) / np.abs(line[:-1])
        assert diffs.max() < 0.2


class TestMseOptimal:
    def test_self_consistency_identity(self):
        m5 = target_function("m5")
        profile = uniform_profile(0.8)
        s = [0.3, 0.2]
        n = 200
        b_opt, mse_opt = mse_opt_bandwidth(s, m5, profile, n)
        g2 = bias_g(m5, s) ** 2
        v = psi_J(s) * profile.sigma2(s) / profile.design_density(s)
        assert mse_expression(b_opt, g2, v, n, 2) == pytest.approx(mse_opt, rel=1e-10)

    def test_stationarity_at_optimum(self):
        m5 = target_function("m5")
        profile = uniform_profile(0.8)
        s = [0.3, 0.2]
        n = 200
        b_opt, mse_opt = mse_opt_bandwidth(s, m5, profile, n)
        g2 = bias_g(m5, s) ** 2
        v = psi_J(s) * profile.sigma2(s) / profile.design_density(s)
        h = 1e-4 * b_opt
        deriv = (
            mse_expression(b_opt + h, g2, v, n, 2)
            - mse_expression(b_opt - h, g2, v, n, 2)
        ) / (2 * h)
        assert abs(deriv) * b_opt / mse_opt <= 1e-6

    def test_rate_exponent_read_off(self):
        m5 = target_function("m5")
        profile = uniform_profile(1.0)
        s = [0.3, 0.2]
        ns = np.array([100, 1000, 10000])
        bs = np.array([mse_opt_bandwidth(s, m5, profile, n)[0] for n in ns])
        slope = np.polyfit(np.log(ns), np.log(bs), 1)[0]
        assert slope == pytest.approx(-1 / 3, abs=1e-6)

    @pytest.mark.parametrize("sigma2, n", [(-1.0, 100), (1.0, 0), (1.0, -5)])
    def test_negative_variance_or_sample_size_rejected(self, sigma2, n):
        with pytest.raises(DomainError):
            mse_opt_bandwidth([0.3, 0.2], target_function("m5"), uniform_profile(sigma2), n)

    def test_zero_bias_raises(self):
        m = TargetFunction(
            value=lambda s: np.asarray(s)[..., 0],
            gradient=lambda s: np.array([1.0, 0.0]),
            hessian=lambda s: np.zeros((2, 2)),
        )
        with pytest.raises(ZeroBiasError):
            mse_opt_bandwidth([1 / 3, 0.25], m, uniform_profile(1.0), 100)


class TestMiseOptimal:
    def test_variance_integral_matches_uniform_closed_form(self):
        # with f = 2 and constant sigma^2 the integral is sigma^2/2 * int psi;
        # int psi over the whole simplex is exactly 1/2, and shrinking by eps
        # truncates about 1.5*sqrt(eps)
        sigma2 = 1.7
        profile = uniform_profile(sigma2)
        m5 = target_function("m5")
        _, v_int, _ = mise_constants(m5, profile)
        expected = sigma2 / 2.0 * (0.5 - 1.5 * np.sqrt(1e-4))
        assert v_int == pytest.approx(expected, rel=0.01)

    def test_variance_integral_matches_exact_value(self):
        # sigma^2 / f times the exact integral of psi over the shrunken simplex
        _, v_int, _ = mise_constants(target_function("m5"), uniform_profile(1.7))
        assert v_int == pytest.approx(1.7 / 2.0 * shrunken_psi_integral(1e-4), rel=1e-3)

    def test_linear_target_bias_integral_closed_form(self):
        # m = 2 + 3 s1 - s2 gives g = 2 - 9 s1 + 3 s2; the exact monomial
        # integrals over the simplex give int g^2 = 3.25
        m = TargetFunction(
            value=lambda s: 2.0 + 3.0 * np.asarray(s)[..., 0] - np.asarray(s)[..., 1],
            gradient=lambda s: np.array([3.0, -1.0]),
            hessian=lambda s: np.zeros((2, 2)),
        )
        g2_int, _, _ = mise_constants(m, uniform_profile(1.0))
        assert g2_int == pytest.approx(3.25, rel=1e-6)

    def test_self_consistency_identity(self):
        m5 = target_function("m5")
        profile = uniform_profile(1.0)
        n = 500
        b_opt, mise_opt = mise_opt_bandwidth(m5, profile, n=n)
        g2_int, v_int, _ = mise_constants(m5, profile)
        assert mse_expression(b_opt, g2_int, v_int, n, 2) == pytest.approx(
            mise_opt, rel=1e-10
        )

    @pytest.mark.parametrize("name, converged", [("m2", True), ("m3", False)])
    def test_reports_whether_the_integrals_converged(self, name, converged):
        # m3's g grows like s_i^-1/2 at the edges, so the integral of g^2
        # diverges logarithmically and the cubature stops at its triangle cap
        g2_int, v_int, flag = mise_constants(target_function(name), uniform_profile(1.0))
        assert flag is converged
        assert g2_int > 0 and v_int > 0

    def test_array_profile_matches_constant_profile(self):
        # callables returning one value per point give the same integral as
        # the constants they reproduce
        m5 = target_function("m5")
        arrays = VarianceProfile(
            sigma2=lambda s: np.full(np.shape(s)[:-1], 1.7),
            design_density=lambda s: np.full(np.shape(s)[:-1], 2.0),
        )
        assert mise_constants(m5, arrays) == mise_constants(m5, uniform_profile(1.7))

    @pytest.mark.parametrize("field", ["sigma2", "design_density"])
    def test_rejects_profile_values_of_the_wrong_shape(self, field):
        good = lambda s: np.ones(np.shape(s)[:-1])
        bad = lambda s: np.ones(np.shape(s)[:-1] + (1,))
        profile = VarianceProfile(**{"sigma2": good, "design_density": good, field: bad})
        with pytest.raises(MismatchError):
            mise_constants(target_function("m5"), profile)


class TestCltStandardize:
    def test_zero_at_truth(self):
        m5 = target_function("m5")
        s = [0.3, 0.3]
        value = clt_standardize(float(m5(np.array(s))), s, m5, uniform_profile(1.0), 100, 0.1)
        assert value == 0.0

    def test_linear_in_estimate(self):
        m5 = target_function("m5")
        s = [0.3, 0.3]
        profile = uniform_profile(2.0)
        z1 = clt_standardize(1.0, s, m5, profile, 100, 0.1)
        z2 = clt_standardize(2.0, s, m5, profile, 100, 0.1)
        z3 = clt_standardize(3.0, s, m5, profile, 100, 0.1)
        assert z3 - z2 == pytest.approx(z2 - z1, rel=1e-9)

    def test_scales_with_rate(self):
        m5 = target_function("m5")
        s = [0.3, 0.3]
        profile = uniform_profile(1.0)
        z_100 = clt_standardize(1.0, s, m5, profile, 100, 0.1)
        z_400 = clt_standardize(1.0, s, m5, profile, 400, 0.1)
        assert z_400 == pytest.approx(2.0 * z_100, rel=1e-12)

    def test_array_equals_elementwise_calls(self):
        m5 = target_function("m5")
        s = [0.3, 0.3]
        profile = uniform_profile(2.0)
        estimates = np.random.default_rng(4).normal(1.0, 0.3, size=50)
        z = clt_standardize(estimates, s, m5, profile, 100, 0.1)
        assert z.shape == (50,)
        assert z.tolist() == [
            clt_standardize(e, s, m5, profile, 100, 0.1) for e in estimates
        ]
