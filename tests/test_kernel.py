import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simplexreg import (
    CubatureConfig,
    global_bound,
    integrate_simplex,
    kappa,
    kappa_gradient_coordinate,
    log_dirichlet_density,
    log_kappa,
    log_kappa_matrix,
    psi_J,
    uniform_simplex_sample,
)
from simplexreg.cubature import _BARY, _graded_roots
from simplexreg.errors import DomainError, PoleError
from simplexreg.kernel import (
    kappa_columns,
    kernel_params,
    log_kappa_cell_bounds,
    validate_point,
    validate_points,
)

from conftest import near_simplex_points, random_interior_points


class TestLogDirichletDensity:
    def test_uniform_density_is_constant_two(self):
        assert_allclose(
            log_dirichlet_density([1.0, 1.0], 1.0, [0.3, 0.3]), np.log(2.0)
        )

    def test_symmetric_beta_at_center(self):
        # Beta(2, 2) density at 1/2 is 6 * 0.5 * 0.5
        assert_allclose(np.exp(log_dirichlet_density([2.0], 2.0, [0.5])), 1.5)

    def test_matches_high_precision_evaluation(self):
        # 50-digit evaluation of the gamma closed form, frozen
        value = log_dirichlet_density([3.5, 2.0], 4.0, [0.2, 0.35])
        assert_allclose(value, 1.227660354984895800175, rtol=1e-14)

    def test_zero_coordinate_with_unit_exponent(self):
        # exponent 0 at a zero coordinate contributes nothing
        value = log_dirichlet_density([1.0, 2.0], 1.0, [0.0, 0.5])
        assert np.isfinite(value)

    def test_zero_coordinate_with_positive_exponent_is_minus_inf(self):
        assert log_dirichlet_density([2.0, 2.0], 1.0, [0.0, 0.5]) == -np.inf

    def test_zero_coordinate_with_negative_exponent_raises(self):
        with pytest.raises(PoleError):
            log_dirichlet_density([0.5, 2.0], 1.0, [0.0, 0.5])

    def test_point_outside_simplex_raises(self):
        with pytest.raises(DomainError):
            log_dirichlet_density([1.0, 1.0], 1.0, [0.7, 0.4])
        with pytest.raises(DomainError):
            log_dirichlet_density([1.0, 1.0], 1.0, [-0.01, 0.4])

    def test_float_noise_is_clamped(self):
        value = log_dirichlet_density([1.5, 1.5], 1.5, [0.3, 0.7 + 1e-13])
        assert np.isfinite(value) or value == -np.inf


class TestKappa:
    def test_matches_high_precision_evaluation(self):
        assert_allclose(
            kappa([0.5, 0.25], 0.1, [0.5, 0.25]), 11.02943755626834676878, rtol=1e-13
        )

    def test_mode_is_at_the_center(self):
        s = np.array([0.3, 0.45])
        grid = np.linspace(0.005, 0.995, 120)
        pts = np.array([(a, b) for a in grid for b in grid if a + b < 0.999])
        vals = kappa(s, 0.05, pts)
        best = pts[np.argmax(vals)]
        assert np.linalg.norm(best - s) < 1.5 * (grid[1] - grid[0])

    def test_normalizes_to_one(self):
        cfg = CubatureConfig(relative_tolerance=1e-3)
        for b in (0.05, 0.1, 0.2):
            res = integrate_simplex(lambda p: kappa([0.3, 0.4], b, p), cfg)
            assert res.converged
            assert abs(res.value - 1.0) < 10 * cfg.relative_tolerance

    def test_nonnegative_and_finite_on_boundary(self):
        vals = kappa([0.4, 0.3], 0.1, [[0.0, 0.5], [0.5, 0.5], [1.0, 0.0]])
        assert np.all(vals >= 0.0)
        assert np.all(np.isfinite(vals))

    def test_no_overflow_at_small_bandwidths(self):
        pts = random_interior_points(50, 99)
        for b in (1e-2, 1e-3, 1e-4):
            vals = kappa([0.3, 0.35], b, pts)
            assert np.all(np.isfinite(vals))

    def test_no_overflow_in_three_dimensions(self):
        s = [0.3, 0.25, 0.2]
        for b in (1e-2, 1e-3, 1e-4):
            assert np.isfinite(log_kappa(s, b, [0.28, 0.27, 0.22]))
            assert np.isfinite(kappa(s, b, [0.28, 0.27, 0.22]))

    def test_kappa_columns_match_scalar_kernel_on_an_edge_cell(self, partition7):
        # the GM integrand at the quadrature points of a cell on the edge s_2 = 0
        b = 0.1
        cell = next(c for c in partition7.cells if np.any(c.vertices[:, 1] == 0.0))
        roots = _graded_roots([cell.vertices], b)[0]
        pts = np.einsum("qb,tbv->tqv", _BARY, roots).reshape(-1, 2)
        assert pts[:, 1].min() < 1e-2
        centers = np.vstack([random_interior_points(4, 5), [[0.5, 0.0], [0.0, 0.0]]])
        cols = np.array([5, 1, 4])
        vals = kappa_columns(centers, b)(pts, cols)
        assert vals.shape == (pts.shape[0], cols.size)
        for k, i in enumerate(cols):
            assert_allclose(vals[:, k], kappa(centers[i], b, pts), rtol=1e-12)


class TestKappaColumns:
    @pytest.mark.parametrize("b", [0.1, 0.3, 1.0])
    def test_match_the_kernel_matrix(self, b):
        # corner and edge centres and points: log 0 meets zero exponents
        # (a factor 1) and positive ones (a factor 0)
        edge = [[0.5, 0.0], [0.0, 0.4], [0.3, 0.7], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        S = np.vstack([uniform_simplex_sample(30, 4), edge])
        X = np.vstack([uniform_simplex_sample(200, 5), edge, [[1e-12, 0.5]]])
        cols = np.arange(S.shape[0])[::-1]
        got = kappa_columns(S, b)(X, cols)
        want = np.exp(log_kappa_matrix(S[cols], b, X)).T
        assert got.shape == (X.shape[0], cols.size)
        assert np.array_equal(got == 0.0, want == 0.0) and (want == 0.0).any()
        assert_allclose(got, want, rtol=1e-13, atol=0)


class TestCellBounds:
    @pytest.mark.parametrize("b", [1e-3, 0.02, 0.3])
    def test_bounds_dominate_the_kernel_on_each_cell(self, partition7, b):
        # checked at each cell's vertices and its root quadrature points
        corners = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1e-9, 0.3]]
        centers = np.vstack([uniform_simplex_sample(50, 3), corners])
        cells = [c.vertices for c in partition7.cells]
        bounds = log_kappa_cell_bounds(centers, b, cells)
        assert bounds.shape == (54, 28) and np.all(np.isfinite(bounds))
        for j, vertices in enumerate(cells):
            roots = _graded_roots([vertices], b)[0]
            pts = np.vstack(
                [vertices, np.einsum("qb,tbv->tqv", _BARY, roots).reshape(-1, 2)]
            )
            top = log_kappa_matrix(centers, b, pts).max(axis=1)
            assert np.all(top <= bounds[:, j] + 1e-12 * (1.0 + np.abs(bounds[:, j])))


class TestGlobalBound:
    def test_single_factor(self):
        assert global_bound(1, 1.0) == pytest.approx(2.0)

    def test_two_factors(self):
        assert global_bound(2, 0.5) == pytest.approx(12.0)

    @pytest.mark.parametrize("b", [0.05, 0.2, 1.0])
    def test_bounds_kernel_everywhere(self, b):
        rng = np.random.default_rng(1234)
        centers = uniform_simplex_sample(10_000, rng.integers(2**63))
        points = uniform_simplex_sample(10_000, rng.integers(2**63))
        bound = global_bound(2, b)
        logs = np.array(
            [log_kappa(s, b, x) for s, x in zip(centers[:200], points[:200])]
        )
        assert np.all(np.exp(logs) <= bound * (1 + 1e-12))
        # matrix path covers the full 1e4 sample cheaply
        diag = np.diagonal(log_kappa_matrix(centers, b, points))
        assert np.all(np.exp(diag) <= bound * (1 + 1e-12))

    def test_local_bound_stays_bounded_as_bandwidth_shrinks(self):
        s = np.array([0.3, 0.45])
        grid = np.linspace(0.004, 0.996, 200)
        pts = np.array([(a, c) for a in grid for c in grid if a + c < 0.999])
        scale = psi_J(s)
        for b in (0.2, 0.1, 0.05, 0.025):
            peak = kappa(s, b, pts).max() * b
            assert peak / scale <= 10.0


class TestKappaGradient:
    def test_symmetric_point_has_equal_components(self):
        s = np.array([1 / 3, 1 / 3])
        g0 = kappa_gradient_coordinate(s, 0.1, s, 0)
        g1 = kappa_gradient_coordinate(s, 0.1, s, 1)
        assert_allclose(g0, g1, rtol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        centers = random_interior_points(50, 11, margin=0.05)
        points = random_interior_points(50, 13, margin=0.05)
        h = 1e-6
        for s, x in zip(centers, points):
            b = float(rng.uniform(0.05, 0.3))
            for k in (0, 1):
                e = np.zeros(2)
                e[k] = h
                fd = (kappa(s, b, x + e) - kappa(s, b, x - e)) / (2 * h)
                an = kappa_gradient_coordinate(s, b, x, k)
                assert abs(an - fd) <= 1e-4 * (1.0 + abs(an))

    def test_univariate_beta_closed_form(self):
        # frozen 50-digit evaluation of the Beta-kernel derivative
        # at s=0.4, b=0.2, x=0.55
        an = kappa_gradient_coordinate([0.4], 0.2, [0.55], 0)
        assert_allclose(an, -5.011875, rtol=1e-12)

    def test_boundary_center_raises(self):
        with pytest.raises(DomainError):
            kappa_gradient_coordinate([0.0, 0.5], 0.1, [0.3, 0.3], 0)


@st.composite
def over_one_rows(draw):
    """(k, 2) points whose coordinate sums lie in (1, 1 + 9e-13]."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        a = draw(st.floats(0.0, 1.0))
        row = [a, 1.0 - a + draw(st.floats(0.0, 9e-13))]
        if 1.0 < sum(row) <= 1.0 + 9e-13:
            rows.append(row)
    return np.array(rows).reshape(-1, 2)


def validate_points_oracle(points, tol=1e-12):
    """Point validation with row reductions and an unconditional clamp,
    kept as an oracle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)) or np.any(pts < -tol):
        raise DomainError("invalid")
    if np.any(pts.sum(axis=1) > 1.0 + tol):
        raise DomainError("invalid")
    pts = np.clip(pts, 0.0, 1.0)
    over = np.nonzero(pts.sum(axis=1) > 1.0)[0]
    while over.size:
        pts[over] /= pts[over].sum(axis=1)[:, None]
        over = over[pts[over].sum(axis=1) > 1.0]
    return pts


class TestValidation:
    @settings(max_examples=300, deadline=None)
    @given(near_simplex_points(), over_one_rows())
    @example(np.array([[-0.0, 0.5], [0.25, 0.25]]), np.empty((0, 2)))
    @example(np.array([[0.25, 0.25]]), np.array([[0.5, 0.5 + 2**-52]]))
    def test_matches_clamp_everything_oracle(self, pts, over):
        pts = np.vstack([pts, over])
        given_pts = pts.copy()
        got, want = validate_points(pts), validate_points_oracle(pts)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.shares_memory(got, pts)
        assert np.array_equal(pts, given_pts)

    def test_clamped_rows_get_new_sums(self):
        # a clamped negative part can push a three-part row over 1
        pts = np.array([[-4e-13, 0.5, 0.5 + 2e-13], [0.2, 0.3, 0.4]])
        got = validate_points(pts)
        assert np.array_equal(got, validate_points_oracle(pts))
        assert got[0].sum() <= 1.0 < np.clip(pts[0], 0.0, 1.0).sum()

    def test_validate_point_clamps_noise(self):
        p = validate_point([0.3, -1e-13])
        assert p[1] == 0.0

    def test_validate_point_rejects_user_error(self):
        with pytest.raises(DomainError):
            validate_point([0.3, -1e-6])
        with pytest.raises(DomainError):
            validate_point([0.9, 0.2])

    @settings(max_examples=300, deadline=None)
    @given(near_simplex_points())
    @example(np.array([[-1e-13, 1.0 + 5e-13], [0.3, 0.2]]))
    def test_batch_rows_equal_single_point_calls(self, pts):
        batch = validate_points(pts)
        for row, p in zip(batch, pts):
            assert np.array_equal(row, validate_point(p))

    @settings(max_examples=300, deadline=None)
    @given(near_simplex_points(), over_one_rows())
    @example(np.empty((0, 2)), np.array([[0.12835567428051406, 0.871644325719663]]))
    def test_validating_twice_equals_validating_once(self, pts, over):
        pts = np.vstack([pts, over])
        once = validate_points(pts)
        assert np.array_equal(validate_points(once), once)
        assert np.all(once.sum(axis=1) <= 1.0)
        # rows that clamping alone brings onto the simplex keep their bits
        clamped = np.clip(pts, 0.0, 1.0)
        kept = clamped.sum(axis=1) <= 1.0
        assert np.array_equal(once[kept], clamped[kept])

    @pytest.mark.parametrize("b", [0.0, -0.1, np.inf, np.nan])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda b: kernel_params([0.2, 0.3], b),
            lambda b: log_kappa_matrix([[0.2, 0.3]], b, [[0.3, 0.3]]),
            lambda b: kappa_columns([[0.2, 0.3]], b),
            lambda b: log_kappa_cell_bounds([[0.2, 0.3]], b, [np.eye(3)[:, :2]]),
            lambda b: global_bound(2, b),
        ],
        ids=[
            "kernel_params",
            "log_kappa_matrix",
            "kappa_columns",
            "log_kappa_cell_bounds",
            "global_bound",
        ],
    )
    def test_bandwidth_must_be_positive_and_finite(self, entry, b):
        with pytest.raises(DomainError, match="bandwidth must be positive and finite"):
            entry(b)

    def test_log_kappa_matrix_matches_scalar_path(self):
        centers = random_interior_points(6, 3)
        points = random_interior_points(5, 4)
        mat = log_kappa_matrix(centers, 0.13, points)
        for i, s in enumerate(centers):
            assert_allclose(mat[i], log_kappa(s, 0.13, points), rtol=1e-12)

    def test_log_kappa_matrix_boundary_conventions(self):
        # positive exponent meets zero coordinate -> -inf; zero exponent -> finite
        mat = log_kappa_matrix([[0.4, 0.3], [0.0, 0.3]], 0.1, [[0.0, 0.6]])
        assert mat[0, 0] == -np.inf
        assert np.isfinite(mat[1, 0])
