import math

import numpy as np
import pytest

from simplexreg import (
    BandwidthSearch,
    Design,
    loocv_ll,
    lscv,
    minimize_bandwidth,
    nw_estimate,
    select_loocv_ll,
    select_lscv,
    target_function,
    uniform_simplex_sample,
)
from simplexreg import estimators
from simplexreg.errors import AllInfiniteError, InsufficientDataError, MismatchError
from simplexreg.estimators import KernelWeights

from conftest import edge_design, force_blocks, peak_traced_bytes, random_interior_points


class TestMinimizeBandwidth:
    def test_known_quadratic(self):
        result = minimize_bandwidth(lambda b: (b - 0.3) ** 2)
        assert result.b_hat == pytest.approx(0.3, abs=1e-4)
        assert not result.boundary_minimum

    def test_monotone_decreasing_flags_boundary(self):
        result = minimize_bandwidth(lambda b: -b)
        assert result.b_hat == pytest.approx(1.0)
        assert result.boundary_minimum

    def test_all_infinite_raises(self):
        with pytest.raises(AllInfiniteError):
            minimize_bandwidth(lambda b: float("nan"))

    def test_b_hat_attains_trace_minimum(self):
        result = minimize_bandwidth(lambda b: np.sin(20 * b) + 2.0)
        values = [v for _, v in result.trace]
        assert result.objective_value <= min(values) + 1e-15

    def test_flagged_points_are_skipped(self):
        def objective(b):
            return float("inf") if b < 0.05 else (b - 0.3) ** 2

        result = minimize_bandwidth(objective)
        assert result.b_hat == pytest.approx(0.3, abs=1e-4)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BandwidthSearch(grid=np.array([0.3, 0.2]))
        with pytest.raises(ValueError):
            BandwidthSearch(grid=np.array([-0.1, 0.2]))


class TestLscv:
    def test_zero_for_perfect_estimator(self, mesh7):
        # the LL smoother reproduces affine targets exactly, so the
        # criterion against the affine truth is numerically zero
        m = lambda p: 1.0 + 2.0 * np.asarray(p)[..., 0] - 0.5 * np.asarray(p)[..., 1]
        design = Design(points=mesh7, responses=m(mesh7))
        sample = uniform_simplex_sample(500, 10)
        assert lscv("LL", design, m, sample, 0.2) < 1e-16

    def test_constant_target_is_zero_for_nw(self, mesh7):
        m = lambda p: np.full(np.asarray(p).shape[:-1], 2.0)
        design = Design(points=mesh7, responses=m(mesh7))
        sample = uniform_simplex_sample(400, 3)
        assert lscv("NW", design, m, sample, 0.1) < 1e-20

    @pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
    def test_matches_direct_loop_oracle(self, mesh7, b):
        m1 = target_function("m1")
        design = Design(points=mesh7, responses=np.asarray(m1(mesh7)))
        sample = uniform_simplex_sample(300, 17)
        loop = sum(
            (nw_estimate(design, b, u) - float(m1(u))) ** 2 for u in sample
        ) / (300 * math.factorial(2))
        assert lscv("NW", design, m1, sample, b) == pytest.approx(loop, rel=1e-12)

    def test_unbiasedness_across_independent_samples(self, mesh7):
        rng = np.random.default_rng(404)
        m1 = target_function("m1")
        design = Design(
            points=mesh7, responses=np.asarray(m1(mesh7)) + rng.normal(0, 0.02, 28)
        )
        values = []
        errors = []
        for seed in (1, 2):
            sample = uniform_simplex_sample(10_000, seed)
            sq = np.array(
                [
                    (v - t) ** 2
                    for v, t in zip(
                        KernelWeights(design.points, sample, 0.1).nw(design.responses),
                        np.asarray(m1(sample)),
                    )
                ]
            )
            values.append(sq.mean() / 2.0)
            errors.append(sq.std(ddof=1) / np.sqrt(sq.size) / 2.0)
        assert abs(values[0] - values[1]) < 3 * np.hypot(errors[0], errors[1])

    def test_gm_selection_runs_end_to_end(self):
        from simplexreg import mesh_design_points, voronoi_partition

        pts = mesh_design_points(2)
        part = voronoi_partition(pts)
        m4 = target_function("m4")
        design = Design(points=pts, responses=np.asarray(m4(pts)))
        sample = uniform_simplex_sample(60, 41)
        result = select_lscv(
            "GM",
            design,
            m4,
            sample,
            search=BandwidthSearch(grid=np.geomspace(0.1, 1.0, 5), refine=False),
            partition=part,
        )
        assert np.isfinite(result.objective_value)
        assert 0.1 <= result.b_hat <= 1.0

    def test_gm_selection_requires_partition(self, mesh7):
        m4 = target_function("m4")
        design = Design(points=mesh7, responses=np.asarray(m4(mesh7)))
        with pytest.raises(ValueError):
            select_lscv("GM", design, m4, uniform_simplex_sample(10, 1))

    def test_trace_reproducible_given_seed(self, mesh7):
        m1 = target_function("m1")
        design = Design(points=mesh7, responses=np.asarray(m1(mesh7)))
        search = BandwidthSearch(grid=np.geomspace(0.02, 1.0, 12), refine=True)
        sample = uniform_simplex_sample(200, 88)
        r1 = select_lscv("NW", design, m1, sample, search=search)
        r2 = select_lscv("NW", design, m1, sample, search=search)
        assert r1.trace == r2.trace
        assert r1.b_hat == r2.b_hat


class TestLoocv:
    def test_affine_responses_give_near_zero(self, mesh7):
        design = Design(
            points=mesh7, responses=1.0 + 2.0 * mesh7[:, 0] - 0.5 * mesh7[:, 1]
        )
        assert loocv_ll(design, 0.3) < 1e-12

    def test_minimal_sample_size_runs(self):
        pts = np.array([[0.2, 0.2], [0.5, 0.2], [0.2, 0.5], [0.35, 0.35]])
        design = Design(points=pts, responses=np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.isfinite(loocv_ll(design, 0.5))

    def test_too_few_points_raises(self):
        pts = np.array([[0.2, 0.2], [0.5, 0.2], [0.2, 0.5]])
        with pytest.raises(InsufficientDataError):
            loocv_ll(Design(points=pts, responses=np.zeros(3)), 0.3)

    def test_matches_naive_refit_oracle(self):
        rng = np.random.default_rng(2025)
        pts = random_interior_points(20, 606)
        y = np.sin(3 * pts[:, 0]) + rng.normal(0, 0.1, 20)
        design = Design(points=pts, responses=y)
        for b in (0.1, 0.3):
            naive_terms = []
            for i in range(20):
                kw = KernelWeights(np.delete(pts, i, axis=0), pts[i : i + 1], b)
                pred, _ = kw.ll(np.delete(y, i))
                naive_terms.append((y[i] - pred[0]) ** 2)
            naive = float(np.mean(naive_terms))
            assert loocv_ll(design, b) == pytest.approx(naive, rel=1e-12)

    def test_memory_is_bounded_by_the_budget(self):
        # one call's 990 x 990 weights would be 7.5 MiB
        X = random_interior_points(990, 5)
        design = Design(points=X, responses=np.cos(X[:, 0]) + X[:, 1])
        peak, value = peak_traced_bytes(lambda: loocv_ll(design, 0.05))
        assert np.isfinite(value)
        assert peak < 1.5 * estimators.WEIGHT_BLOCK_BYTES

    def test_grid_memory_is_bounded_by_the_budget(self):
        # the 40 grid bandwidths share each block's bandwidth-free log-kernel
        X = random_interior_points(990, 5)
        design = Design(points=X, responses=np.cos(X[:, 0]) + X[:, 1])
        peak, result = peak_traced_bytes(lambda: select_loocv_ll(design))
        assert np.isfinite(result.objective_value)
        assert peak < 1.5 * estimators.WEIGHT_BLOCK_BYTES

    def test_selection_trace_equals_loocv_values(self):
        rng = np.random.default_rng(77)
        pts = random_interior_points(60, 12)
        y = np.sin(3 * pts[:, 0]) + pts[:, 1] + rng.normal(0, 0.1, 60)
        design = Design(points=pts, responses=y)
        result = select_loocv_ll(design)
        # the grid values and the golden-section probes
        assert not result.boundary_minimum and len(result.trace) > 40
        for b, value in result.trace:
            assert value == loocv_ll(design, b), b

    @pytest.mark.parametrize("case", ["mesh10", "edges"])
    def test_blocked_rows_match_one_block(self, mesh10, monkeypatch, case):
        # at b = 2e-3 mesh10 mixes solved points with NW fallbacks; on the
        # edge design most held-out points see only collinear neighbours
        X, b = (mesh10, 2e-3) if case == "mesh10" else (edge_design(), 0.1)
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        design = Design(points=X, responses=y)
        n = X.shape[0]
        assert len(estimators.weight_row_blocks(n, n)) == 1
        one, one_fell_back = KernelWeights(X, X, b, leave_one_out=True).ll(y)
        one_value = loocv_ll(design, b)
        assert one_fell_back.any() and not one_fell_back.all()
        force_blocks(monkeypatch, n, rows=8)
        assert len(estimators.weight_row_blocks(n, n)) >= 3
        est, fell_back = estimators.kernel_estimates(X, X, b, y[:, None], ["LL"], True)
        assert np.array_equal(fell_back, one_fell_back)
        np.testing.assert_allclose(est["LL"][:, 0], one, rtol=1e-14)
        value = loocv_ll(design, b)
        assert value == pytest.approx(one_value, rel=1e-14)

    def test_leave_one_out_rows_must_match_the_points(self, mesh7):
        with pytest.raises(MismatchError):
            KernelWeights(mesh7, mesh7[:5], 0.1, leave_one_out=True, rows=slice(0, 6))
        with pytest.raises(MismatchError):
            KernelWeights(mesh7, mesh7[:5], 0.1, leave_one_out=True, rows=slice(26, 31))

    def test_select_loocv_runs_end_to_end(self):
        rng = np.random.default_rng(31)
        pts = random_interior_points(40, 11)
        y = 2.0 + pts[:, 0] + 0.5 * pts[:, 1] ** 2 + rng.normal(0, 0.01, 40)
        result = select_loocv_ll(
            Design(points=pts, responses=y),
            BandwidthSearch(grid=np.geomspace(0.05, 1.0, 10)),
        )
        assert result.objective_value <= min(v for _, v in result.trace) + 1e-18
        assert 0.05 <= result.b_hat <= 1.0
