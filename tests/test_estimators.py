import copy
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexreg import (
    CubatureConfig,
    Design,
    KernelWeights,
    batch_estimate,
    gm_estimate,
    gm_weight_matrix,
    kappa,
    ll_estimate,
    mesh_design_points,
    nw_estimate,
    uniform_simplex_sample,
    voronoi_partition,
)
from simplexreg import estimators, generate_responses, target_function
from simplexreg.app import barycentric_grid
from simplexreg.bandwidth import default_grid
from simplexreg.errors import (
    AllWeightsVanishedError,
    DegenerateSiteError,
    DomainError,
    InsufficientDataError,
    MismatchError,
)
from simplexreg.cubature import negligible_components
from simplexreg.kernel import (
    kappa_columns,
    log_kappa_cell_bounds,
    log_kappa_matrix,
    validate_points,
)

from conftest import (
    count_first_rounds,
    edge_design,
    force_blocks,
    integrate_one_cell,
    peak_traced_bytes,
    random_interior_points,
)


def noiseless(points, fn):
    return Design(points=points, responses=fn(points))


class TestDesign:
    def test_validates_lengths(self):
        with pytest.raises(MismatchError):
            Design(points=np.array([[0.1, 0.2]]), responses=np.array([1.0, 2.0]))

    def test_rejects_nonfinite_responses(self):
        with pytest.raises(MismatchError):
            Design(points=np.array([[0.1, 0.2]]), responses=np.array([np.inf]))

    def test_partition_is_built_once(self, mesh7):
        design = Design(points=mesh7, responses=np.zeros(28))
        assert design.partition is design.partition

    @pytest.mark.parametrize("k", [7, 10])
    def test_partition_is_the_voronoi_partition_of_the_points(self, k):
        points = mesh_design_points(k)
        design = Design(points=points, responses=np.zeros(len(points)))
        fresh = voronoi_partition(points)
        assert len(design.partition) == len(fresh)
        for cell, other in zip(design.partition.cells, fresh.cells):
            assert np.array_equal(cell.site, other.site)
            assert np.array_equal(cell.vertices, other.vertices)

    def test_gm_integrates_over_the_design_partition(self, mesh10):
        design = noiseless(mesh10, lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2)
        S, b = random_interior_points(30, 8), 0.08
        W, _ = gm_weight_matrix(voronoi_partition(mesh10), b, S)
        expected = np.einsum("mn,n->m", W, design.responses)
        assert np.array_equal(batch_estimate("GM", design, b, S), expected)

    @pytest.mark.parametrize(
        "points, error",
        [
            (np.vstack([mesh_design_points(7)] * 2)[:29], DegenerateSiteError),
            (uniform_simplex_sample(30, 1, dim=3), DomainError),
        ],
        ids=["repeated point", "three parts"],
    )
    def test_only_gm_needs_a_partition(self, points, error):
        design = noiseless(points, lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 1])
        s = points[1:3]
        assert np.isfinite(batch_estimate("NW", design, 0.1, s)).all()
        ll = batch_estimate("LL", design, 0.1, s)
        assert_allclose(ll, 1.0 + s[:, 0] - 2.0 * s[:, 1], atol=1e-10)
        with pytest.raises(error):
            batch_estimate("GM", design, 0.1, s)


class TestGm:
    def test_constant_responses(self, mesh7):
        cfg = CubatureConfig()
        design = Design(points=mesh7, responses=np.full(28, 4.2))
        value = gm_estimate(design, 0.1, [0.3, 0.3], cfg)
        assert abs(value - 4.2) <= 20 * cfg.relative_tolerance * 4.2

    def test_single_cell_design_returns_its_response(self):
        pts = np.array([[0.3, 0.3]])
        design = Design(points=pts, responses=np.array([7.5]))
        value = gm_estimate(design, 0.15, [0.2, 0.5])
        assert value == pytest.approx(7.5, rel=5e-3)

    def test_matches_tight_tolerance_self_oracle(self, mesh7):
        design = noiseless(mesh7, lambda p: p[:, 0] * (1 + p[:, 1]))
        s = [1 / 3, 1 / 3]
        coarse = gm_estimate(design, 0.1, s, CubatureConfig(1e-3))
        fine = gm_estimate(design, 0.1, s, CubatureConfig(1e-7))
        assert coarse == pytest.approx(fine, rel=5e-3)

    def test_weights_sum_to_one_for_interior_points(self, partition7):
        cfg = CubatureConfig()
        W, converged = gm_weight_matrix(
            partition7, 0.12, random_interior_points(5, 21), cfg
        )
        assert np.all(W >= 0.0)
        assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 20 * cfg.relative_tolerance)
        assert converged.all()

    def test_evaluation_points_are_validated_once(self, partition7):
        # rows summing to just over 1 are rescaled, these four twice (one
        # division leaves their sum above 1); validated rows are a fixed
        # point, so validating them again leaves every weight's bits alone
        rng = np.random.default_rng(1)
        a = rng.uniform(0.05, 0.95, 400)
        pts = np.column_stack([a, 1.0 - a + rng.uniform(0.0, 9e-13, 400)])
        one_division = pts / pts.sum(axis=1)[:, None]
        pts = pts[one_division.sum(axis=1) > 1.0][:4]
        assert len(pts) == 4
        W, conv = gm_weight_matrix(partition7, 0.05, pts)
        W_once, conv_once = gm_weight_matrix(partition7, 0.05, validate_points(pts))
        assert np.array_equal(W, W_once)
        assert np.array_equal(conv, conv_once)

    @pytest.mark.parametrize("b", [1e-3, 1e-2, 0.07, 0.5])
    def test_pruned_pairs_were_below_the_floor(self, partition7, b):
        # oracle: every cell integrated for every point at the GM floor,
        # the larger of the config's floor and rtol / (10 n), nothing pruned
        cfg = CubatureConfig()
        floor = max(cfg.absolute_floor, cfg.relative_tolerance / (10 * len(partition7)))
        gm_cfg = replace(cfg, absolute_floor=floor)
        corners = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1e-9, 0.3]]
        S = np.vstack([uniform_simplex_sample(200, 11), corners])
        f_batch = kappa_columns(S, b)
        runs = [
            integrate_one_cell(f_batch, cell, len(S), gm_cfg, scale=b)
            for cell in partition7.cells
        ]
        oracle = np.column_stack([run[0] for run in runs])
        W, converged = gm_weight_matrix(partition7, b, S, cfg)
        assert np.array_equal(converged, [run[2] for run in runs])
        pruned = (W == 0.0) & (oracle > 0.0)
        assert np.all(oracle[pruned] < floor)
        if b <= 1e-2:
            assert pruned.mean() > 0.2
        kept = ~pruned
        assert_allclose(W[kept], np.maximum(oracle[kept], 0.0), rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "count, b",
        [(1, 0.01), (1, 0.2), (1, 1.0), (10, 0.1), (200, 0.005)],
        ids=["one-0.01", "one-0.2", "one-1", "ten-0.1", "batch200-0.005"],
    )
    def test_grouped_first_round_matches_cell_by_cell(self, partition14, count, b, monkeypatch):
        # oracle: each cell integrated on its own for every point at the GM
        # floor, as in test_pruned_pairs_were_below_the_floor
        cfg = CubatureConfig()
        n = len(partition14)
        gm_cfg = replace(cfg, absolute_floor=cfg.relative_tolerance / (10 * n))
        S = [[1 / 3, 1 / 3]] if count == 1 else uniform_simplex_sample(count, 12)
        S = validate_points(S)
        f_batch = kappa_columns(S, b)
        runs = [
            integrate_one_cell(f_batch, cell, len(S), gm_cfg, scale=b)
            for cell in partition14.cells
        ]
        oracle = np.column_stack([run[0] for run in runs])
        first_rounds = count_first_rounds(monkeypatch)
        W, converged = gm_weight_matrix(partition14, b, S, cfg)
        assert np.array_equal(converged, [run[2] for run in runs])
        kept = W > 0.0
        assert np.abs(W[kept] - oracle[kept]).max() <= 1e-15
        assert np.all(oracle[~kept] < gm_cfg.absolute_floor)
        bounds = log_kappa_cell_bounds(S, b, [c.vertices for c in partition14.cells])
        skip = negligible_components(bounds, [c.area for c in partition14.cells], gm_cfg)
        kept_sets = {skip[:, j].tobytes() for j in range(n) if not skip[:, j].all()}
        if count <= 10:
            # few points: cells share their kept points and their first rounds
            assert len(first_rounds) < n // 4
        else:
            # the kept sets differ, and the big batch takes a first round per cell
            assert len(kept_sets) > n // 2
            assert len(first_rounds) == (~skip.all(axis=0)).sum()

    @pytest.mark.parametrize("b, fixed_floor_err", [(0.01, 0.745), (0.07, 0.997), (0.4, 0.704)])
    def test_estimates_match_a_tight_oracle(self, mesh7, partition7, b, fixed_floor_err):
        # oracle: every cell integrated for every point at rtol 1e-5 and
        # floor 1e-16, nothing pruned.  fixed_floor_err is the worst error
        # of m1, m2 and m4 with the former fixed floor of 1e-14, in units of
        # rtol * max|y|; the error sits in the large weights, so the floor
        # gm_weight_matrix derives from rtol may add at most 0.05 to it.
        cfg = CubatureConfig()
        tight = CubatureConfig(relative_tolerance=1e-5, absolute_floor=1e-16, max_subdivisions=30)
        S = uniform_simplex_sample(200, 11)
        Y = np.column_stack([target_function(name)(mesh7) for name in ("m1", "m2", "m4")])
        f_batch = kappa_columns(S, b)
        runs = [
            integrate_one_cell(f_batch, cell, len(S), tight, scale=b)
            for cell in partition7.cells
        ]
        assert all(run[2] for run in runs)
        oracle = np.maximum(np.column_stack([run[0] for run in runs]), 0.0)
        W, converged = gm_weight_matrix(partition7, b, S, cfg)
        assert converged.all()
        err = np.abs(W @ Y - oracle @ Y).max(axis=0)
        bound = (fixed_floor_err + 0.05) * cfg.relative_tolerance * np.abs(Y).max(axis=0)
        assert np.all(err <= bound)

    @pytest.mark.parametrize("b", [0.01, 0.2])
    def test_rows_follow_a_permutation_of_the_points(self, partition7, b):
        # refinement is shared by the batch and does not depend on the
        # order of its points; the kernel product rounds by position
        corners = [[0.0, 0.0], [0.5, 0.5], [0.2, 0.0]]
        S = np.vstack([uniform_simplex_sample(120, 8), corners])
        perm = np.random.default_rng(2).permutation(len(S))
        W, converged = gm_weight_matrix(partition7, b, S)
        W_perm, converged_perm = gm_weight_matrix(partition7, b, S[perm])
        assert np.array_equal(converged_perm, converged)
        assert np.array_equal(W_perm == 0.0, W[perm] == 0.0)
        assert_allclose(W_perm, W[perm], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("b", [0.005, 0.05, 0.3])
    @pytest.mark.parametrize(
        "sites", [mesh_design_points(7), uniform_simplex_sample(30, 7)], ids=["mesh7", "unif30"]
    )
    def test_columns_follow_a_permutation_of_the_sites(self, sites, b):
        # the partition does not depend on the order of the sites, and each
        # cell is integrated on its own, so the columns keep their bits
        S = np.vstack([uniform_simplex_sample(60, 4), [[0.0, 0.0], [0.5, 0.5], [0.2, 0.0]]])
        perm = np.random.default_rng(5).permutation(len(sites))
        W, converged = gm_weight_matrix(voronoi_partition(sites), b, S)
        W_perm, converged_perm = gm_weight_matrix(voronoi_partition(sites[perm]), b, S)
        assert np.array_equal(W_perm, W[:, perm])
        assert np.array_equal(converged_perm, converged[perm])

    def test_diagnostics_index_cells(self, mesh7, partition7):
        # too shallow a cubature for a peaked kernel: the entries name the
        # cells that missed their tolerance, for a batch and for one point
        design = noiseless(mesh7, lambda p: p[:, 0])
        cfg = CubatureConfig(max_subdivisions=1)
        S = np.array([[0.31, 0.22], [0.6, 0.3]])

        def expected(points):
            _, converged = gm_weight_matrix(partition7, 0.004, points, cfg)
            cells = np.nonzero(~converged)[0]
            assert cells.size and cells.max() >= points.shape[0]
            return [(int(j), f"cell {j}: cubature tolerance not reached") for j in cells]

        diags = []
        batch_estimate("GM", design, 0.004, S, cfg, diagnostics=diags)
        assert diags == expected(S)
        diags = []
        gm_estimate(design, 0.004, S[0], cfg, diagnostics=diags)
        assert diags == expected(S[:1])


class TestNw:
    def test_constant_responses_exact(self, mesh7):
        design = Design(points=mesh7, responses=np.full(28, -2.5))
        assert nw_estimate(design, 0.07, [0.4, 0.2]) == pytest.approx(-2.5, abs=1e-10)

    def test_single_point_design(self):
        design = Design(points=np.array([[0.25, 0.5]]), responses=np.array([3.25]))
        assert nw_estimate(design, 0.1, [0.6, 0.1]) == pytest.approx(3.25, abs=1e-12)

    def test_matches_direct_summation_oracle(self, mesh7):
        design = noiseless(mesh7, lambda p: np.log1p(p[:, 0] + p[:, 1]))
        s = np.array([0.2, 0.3])
        b = 0.05
        weights = np.array([kappa(s, b, x) for x in design.points])
        oracle = float(weights @ design.responses / weights.sum())
        assert nw_estimate(design, b, s) == pytest.approx(oracle, rel=1e-12)

    def test_log_sum_exp_survives_tiny_bandwidths(self, mesh7):
        design = noiseless(mesh7, lambda p: p[:, 0])
        s = [0.93, 0.035]
        b = 3e-5
        value = nw_estimate(design, b, s)
        assert np.isfinite(value)
        naive = np.array([kappa(s, b, x) for x in design.points])
        assert naive.sum() == 0.0  # the naive path underflows completely

    def test_agrees_with_naive_path_where_it_does_not_underflow(self, mesh7):
        rng = np.random.default_rng(5)
        design = Design(points=mesh7, responses=rng.normal(size=28))
        for s in random_interior_points(10, 77):
            for b in (0.05, 0.15, 0.5):
                w = np.array([kappa(s, b, x) for x in design.points])
                if w.sum() <= 1e-280:
                    continue
                naive = float(w @ design.responses / w.sum())
                assert nw_estimate(design, b, s) == pytest.approx(naive, rel=1e-12)

    def test_all_weights_vanished_raises(self):
        # boundary design points with positive exponents give exact zeros
        design = Design(
            points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            responses=np.array([1.0, 2.0, 3.0]),
        )
        with pytest.raises(AllWeightsVanishedError):
            nw_estimate(design, 0.2, [0.4, 0.3])


class TestLl:
    def test_reproduces_affine_functions_exactly(self, mesh7):
        design = noiseless(mesh7, lambda p: 2.0 + 3.0 * p[:, 0] - p[:, 1])
        for s in random_interior_points(10, 31):
            for b in (0.05, 0.2, 0.8):
                expected = 2.0 + 3.0 * s[0] - s[1]
                assert ll_estimate(design, b, s) == pytest.approx(expected, abs=1e-8)

    def test_constant_responses(self, mesh7):
        design = Design(points=mesh7, responses=np.full(28, 1.25))
        assert ll_estimate(design, 0.1, [0.3, 0.25]) == pytest.approx(1.25, abs=1e-10)

    def test_matches_high_precision_wls_oracle(self, mesh10):
        # frozen 60-digit solve of the 3x3 weighted normal equations
        # for m(s) = sin(s1) + cos(s2), b = 0.08, at (0.25, 0.25)
        design = noiseless(mesh10, lambda p: np.sin(p[:, 0]) + np.cos(p[:, 1]))
        value = ll_estimate(design, 0.08, [0.25, 0.25])
        assert value == pytest.approx(1.209827156134599325389, rel=1e-12)

    def test_insufficient_data(self):
        design = Design(points=np.array([[0.3, 0.3], [0.4, 0.2]]), responses=np.zeros(2))
        with pytest.raises(InsufficientDataError):
            ll_estimate(design, 0.1, [0.3, 0.3])

    def test_singular_system_falls_back_to_nw(self, mesh14):
        # a tiny bandwidth at a far corner concentrates all weight on one
        # design point, collapsing the normal equations
        design = noiseless(mesh14, lambda p: p[:, 0] + p[:, 1] ** 2)
        kw = KernelWeights(design.points, np.array([[0.9, 0.05]]), 5e-4)
        est, fell_back = kw.ll(design.responses)
        assert fell_back[0]
        nw = kw.nw(design.responses)
        assert est[0] == nw[0]
        diags = []
        assert ll_estimate(design, 5e-4, [0.9, 0.05], diags) == est[0]
        assert diags == [(0, "ll singular; nw fallback")]


def tensor_ll(kw, y):
    """The former local linear solver, kept as an oracle: it builds the
    ``(m, n, 3)`` centred design tensors in row chunks of at most 16 MB and
    contracts them with ``einsum("mnj,mnk->mjk")``."""
    n, d = kw.X.shape
    m = kw.S.shape[0]
    est = np.full(m, np.nan)
    fell_back = np.zeros(m, dtype=bool)
    step = max(1, 16_000_000 // (8 * n * (d + 1)))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        w = kw.w[rows]
        diff = kw.X[None, :, :] - kw.S[rows][:, None, :]
        z = np.concatenate([np.ones((w.shape[0], n, 1)), diff], axis=2)
        wz = w[:, :, None] * z
        A = np.einsum("mnj,mnk->mjk", wz, z)
        svals = np.linalg.svd(A, compute_uv=False)
        singular = (svals[:, -1] <= estimators.LL_RCOND * svals[:, 0]) | ~np.isfinite(
            svals
        ).all(axis=1)
        live = ~kw.dead[rows]
        good, fb = live & ~singular, live & singular
        fell_back[rows] = fb
        vals = est[rows]
        rhs = np.einsum("mnj,n->mj", wz, y)
        vals[good] = np.linalg.solve(A[good], rhs[good][:, :, None])[:, 0, 0]
        vals[fb] = rhs[fb, 0] / A[fb, 0, 0]
    return est, fell_back


def row_slice(kw, rows):
    """The same kernel weights restricted to some evaluation points."""
    part = copy.copy(kw)
    part.S, part.w, part.dead = kw.S[rows], kw.w[rows], kw.dead[rows]
    return part


class TestLlSolver:
    """The one local linear solver behind grid, study and LOOCV."""

    @pytest.mark.parametrize("case", ["grid", "leave_one_out", "edges"])
    def test_row_slices_match_full_call(self, mesh10, case):
        # at b = 2e-3 mesh10 mixes solved points with NW fallbacks; the edge
        # design adds points whose weights all vanish
        X, S, b = mesh10, barycentric_grid(20), 2e-3
        if case == "leave_one_out":
            S = mesh10
        elif case == "edges":
            X, b = edge_design(), 0.1
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        kw = KernelWeights(X, S, b, leave_one_out=case == "leave_one_out")
        est, fell_back = kw.ll(y)
        solved = ~fell_back & ~kw.dead
        assert fell_back.any() and solved.any()
        assert np.array_equal(np.isnan(est), kw.dead)
        assert kw.dead.any() == (case == "edges")
        m = S.shape[0]
        for rows in [slice(i, i + 1) for i in range(m)] + [np.arange(m)[::-3]]:
            est_rows, fell_back_rows = row_slice(kw, rows).ll(y)
            assert np.array_equal(est_rows, est[rows], equal_nan=True)
            assert np.array_equal(fell_back_rows, fell_back[rows])

    @pytest.mark.parametrize("k", [7, 10])
    def test_study_grid_matches_tensor_oracle(self, k):
        X = mesh_design_points(k)
        sample = uniform_simplex_sample(1000, 11)
        y = 2.0 + np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        y += np.random.default_rng(k).normal(0.0, 0.2, X.shape[0])
        fallbacks = 0
        for b in default_grid():
            kw = KernelWeights(X, sample, b)
            est, fell_back = kw.ll(y)
            ref, ref_fell_back = tensor_ll(kw, y)
            assert np.array_equal(fell_back, ref_fell_back), b
            assert_allclose(est, ref, rtol=1e-6, err_msg=f"b = {b}")
            fallbacks += int(fell_back.sum())
        assert fallbacks > 1000

    @pytest.mark.parametrize("b", [1e-3, 2e-3, 1e-2, 0.1, 1.0])
    def test_leave_one_out_matches_tensor_oracle(self, b):
        # a soil-like interior design of 990 points
        rng = np.random.default_rng(5)
        X = np.maximum(rng.dirichlet([2.5, 2.0, 1.5], size=990), 0.005)
        X = (X / X.sum(axis=1, keepdims=True))[:, :2]
        y = 6.2 - 1.1 * X[:, 0] + 0.4 * np.sin(3 * X[:, 1]) + rng.normal(0, 0.25, 990)
        kw = KernelWeights(X, X, b, leave_one_out=True)
        est, fell_back = kw.ll(y)
        ref, ref_fell_back = tensor_ll(kw, y)
        assert np.array_equal(fell_back, ref_fell_back)
        assert_allclose(est, ref, rtol=1e-6)

    def test_response_columns_match_single_solves(self, mesh10):
        Y = np.column_stack(
            [np.log1p(mesh10.sum(axis=1)), np.sin(mesh10[:, 0]), mesh10[:, 1] ** 3]
        )
        kw = KernelWeights(mesh10, barycentric_grid(20), 2e-3)
        est, fell_back = kw.ll(Y)
        nw = kw.nw(Y)
        assert est.shape == nw.shape == (231, 3) and fell_back.shape == (231,)
        for c in range(3):
            est_c, fell_back_c = kw.ll(Y[:, c])
            assert np.array_equal(est[:, c], est_c, equal_nan=True)
            assert np.array_equal(fell_back, fell_back_c)
            assert np.array_equal(nw[:, c], kw.nw(Y[:, c]), equal_nan=True)

    @pytest.mark.parametrize("b", [1e-3, 2e-3, 5e-3])
    def test_fallback_values_are_the_nw_values(self, mesh10, b):
        Y = np.column_stack(
            [
                generate_responses(target_function(f), mesh10, 3).responses
                for f in ("m1", "m2", "m4")
            ]
        )
        kw = KernelWeights(mesh10, barycentric_grid(60), b)
        est, fell_back = kw.ll(Y)
        assert fell_back.sum() > 100
        for c in range(3):
            assert np.array_equal(est[fell_back, c], kw.nw(Y[:, c])[fell_back])

    def test_memory_stays_bounded_on_a_large_grid(self):
        X = random_interior_points(1000, 5)
        kw = KernelWeights(X, barycentric_grid(100), 0.05)
        peak, _ = peak_traced_bytes(lambda: kw.ll(np.cos(X[:, 0]) + X[:, 1]))
        assert peak < 100 * 2**20

    def test_weights_keep_one_matrix_alive(self):
        # design points without zero coordinates: the m x n weight matrix
        # (39 MiB for 5151 x 990) is the only large array built
        X = random_interior_points(990, 5)
        grid = barycentric_grid(100)
        peak, kw = peak_traced_bytes(lambda: KernelWeights(X, grid, 0.05))
        assert kw.w.nbytes > 38 * 2**20
        assert peak < 60 * 2**20

    def test_responses_must_match_the_design(self, mesh7):
        kw = KernelWeights(mesh7, mesh7[:3], 0.1)
        for bad in (np.ones(56), np.ones((14, 2)), np.ones((28, 2, 1))):
            with pytest.raises(MismatchError):
                kw.ll(bad)
            with pytest.raises(MismatchError):
                kw.nw(bad)

    def test_leave_one_out_needs_the_design_as_points(self, mesh7):
        with pytest.raises(MismatchError):
            KernelWeights(mesh7, mesh7[:5], 0.1, leave_one_out=True)
        with pytest.raises(MismatchError):
            estimators.kernel_estimates(mesh7, mesh7[:5], 0.1, np.ones((28, 1)), ["LL"], True)


class TestBatch:
    def test_singleton_matches_single_call(self, mesh7):
        design = noiseless(mesh7, lambda p: np.exp(p[:, 0]) - p[:, 1])
        s = np.array([[0.22, 0.41]])
        assert batch_estimate("NW", design, 0.1, s)[0] == nw_estimate(design, 0.1, s[0])
        assert batch_estimate("LL", design, 0.1, s)[0] == ll_estimate(design, 0.1, s[0])
        gm_b = batch_estimate("GM", design, 0.1, s)[0]
        assert gm_b == gm_estimate(design, 0.1, s[0])

    def test_permutation_equivariance(self, mesh7):
        design = noiseless(mesh7, lambda p: p[:, 0] ** 2 + p[:, 1])
        pts = random_interior_points(40, 3)
        perm = np.random.default_rng(0).permutation(40)
        vals = batch_estimate("NW", design, 0.1, pts)
        vals_perm = batch_estimate("NW", design, 0.1, pts[perm])
        assert np.array_equal(vals[perm], vals_perm)

    def test_nw_batch_matches_loop(self, mesh7):
        design = noiseless(mesh7, lambda p: np.log1p(p[:, 0] + p[:, 1]))
        pts = uniform_simplex_sample(1000, 99)
        batch = batch_estimate("NW", design, 0.1, pts)
        # repeated batch calls are bit-identical
        assert np.array_equal(batch, batch_estimate("NW", design, 0.1, pts))
        # looped single calls agree to rounding: log_kappa_matrix forms its
        # kernel rows with a BLAS product, whose summation order depends on
        # how many evaluation points share the call
        loop = np.array([nw_estimate(design, 0.1, s) for s in pts[:200]])
        assert_allclose(batch[:200], loop, rtol=1e-14)
        sq_batch = np.mean((batch[:200] - loop) ** 2)
        assert sq_batch < 1e-28

    def test_nw_and_gm_rows_do_not_depend_on_the_batch(
        self, mesh10, partition10, monkeypatch
    ):
        S, b = barycentric_grid(20), 0.05
        design = noiseless(mesh10, lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2)
        kw = KernelWeights(mesh10, S, b)
        nw = kw.nw(design.responses)
        # hold the GM weights fixed, so only their products with y vary
        W, conv = estimators.gm_weight_matrix(partition10, b, S)
        row_of = {p.tobytes(): i for i, p in enumerate(validate_points(S))}

        def fixed_weights(partition, b, pts, cfg=None):
            return W[[row_of[p.tobytes()] for p in pts]], conv

        monkeypatch.setattr(estimators, "gm_weight_matrix", fixed_weights)
        gm = batch_estimate("GM", design, b, S)
        assert_allclose(gm, W @ design.responses, rtol=1e-14)
        for i in range(S.shape[0]):
            one = slice(i, i + 1)
            assert np.array_equal(row_slice(kw, one).nw(design.responses), nw[one])
            gm_one = batch_estimate("GM", design, b, S[one])
            assert np.array_equal(gm_one, gm[one])

    def test_diagnostics_collect_failures(self):
        design = Design(
            points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            responses=np.array([1.0, 2.0, 3.0]),
        )
        diags = []
        out = batch_estimate(
            "NW", design, 0.2, np.array([[0.4, 0.3], [0.0, 0.0]]), diagnostics=diags
        )
        assert np.isnan(out[0])
        assert np.isfinite(out[1])  # the corner point sits on a design point
        assert any(i == 0 for i, _ in diags)


class TestRowBlocks:
    """NW and LL evaluate the kernel weights one row block at a time."""

    @pytest.mark.parametrize(
        "m, n", [(0, 5), (1, 990), (5, 66), (231, 66), (5151, 990), (990, 990), (3, 10**6)]
    )
    def test_fewest_near_equal_blocks_under_the_budget(self, m, n):
        blocks = estimators.weight_row_blocks(m, n)
        sizes = [r.stop - r.start for r in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == z.start for a, z in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        budget = estimators.WEIGHT_BLOCK_BYTES
        assert max(sizes) * 8 * n <= budget or max(sizes) == 1
        # one block fewer would put a block over the budget
        fewer = len(blocks) - 1
        assert fewer == 0 or -(-m // fewer) * 8 * n > budget

    @pytest.mark.parametrize("method", ["NW", "LL"])
    def test_batch_memory_is_bounded_by_the_budget(self, method):
        # one call's 5151 x 990 weights would be 39 MiB
        X = random_interior_points(990, 5)
        design = Design(points=X, responses=np.cos(X[:, 0]) + X[:, 1])
        grid = barycentric_grid(100)
        peak, est = peak_traced_bytes(lambda: batch_estimate(method, design, 0.05, grid))
        assert np.isfinite(est).all()
        assert peak < 1.5 * estimators.WEIGHT_BLOCK_BYTES

    @pytest.mark.parametrize("case", ["mesh10", "edges"])
    @pytest.mark.parametrize("method", ["NW", "LL"])
    def test_blocked_batch_matches_one_block(self, mesh10, monkeypatch, case, method):
        # at b = 2e-3 mesh10 mixes solved points with NW fallbacks; on the
        # edge design interior points lose every weight
        X, b = (mesh10, 2e-3) if case == "mesh10" else (edge_design(), 0.1)
        design = noiseless(X, lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2)
        S = barycentric_grid(20)
        assert len(estimators.weight_row_blocks(S.shape[0], X.shape[0])) == 1
        one_diags = []
        one = batch_estimate(method, design, b, S, diagnostics=one_diags)
        force_blocks(monkeypatch, X.shape[0])
        assert len(estimators.weight_row_blocks(S.shape[0], X.shape[0])) >= 3
        diags = []
        blocked = batch_estimate(method, design, b, S, diagnostics=diags)
        # same flags with global point indices; values equal up to the
        # summation order of the log-kernel's BLAS product
        assert diags == one_diags
        assert any("vanished" in msg for _, msg in diags) == (case == "edges")
        assert any("fallback" in msg for _, msg in diags) == (method == "LL")
        assert_allclose(blocked, one, rtol=1e-14)

    @pytest.mark.parametrize("case", ["mesh10", "edges", "leave_one_out"])
    def test_blocked_columns_match_one_block_single_columns(self, mesh10, monkeypatch, case):
        # at b = 2e-3 mesh10 mixes solved points with NW fallbacks; on the
        # edge design interior points lose every weight
        X, b = (edge_design(), 0.1) if case == "edges" else (mesh10, 2e-3)
        loo = case == "leave_one_out"
        S = X if loo else barycentric_grid(20)
        Y = np.column_stack(
            [np.sin(3 * X[:, 0]) + X[:, 1] ** 2, np.log1p(X.sum(axis=1)), X[:, 1] ** 3]
        )
        methods = ["NW", "LL"]
        assert len(estimators.weight_row_blocks(S.shape[0], X.shape[0])) == 1
        one = [estimators.kernel_estimates(X, S, b, Y[:, [c]], methods, loo) for c in range(3)]
        force_blocks(monkeypatch, X.shape[0])
        assert len(estimators.weight_row_blocks(S.shape[0], X.shape[0])) >= 3
        est, fell_back = estimators.kernel_estimates(X, S, b, Y, methods, loo)
        assert est["NW"].shape == est["LL"].shape == (S.shape[0], 3)
        assert fell_back.any() and np.isnan(est["NW"]).any() == (case == "edges")
        for c, (one_est, one_fell_back) in enumerate(one):
            assert np.array_equal(fell_back, one_fell_back)
            for meth in methods:
                assert np.array_equal(est[meth][:, c], one_est[meth][:, 0], equal_nan=True)


class TestBandwidthSequences:
    """One kernel_estimates call serves a whole sequence of bandwidths."""

    @pytest.mark.parametrize("blocks", ["one", "forced"])
    @pytest.mark.parametrize("case", ["mesh10", "edges", "leave_one_out"])
    def test_sequence_equals_one_call_per_bandwidth(self, mesh10, monkeypatch, case, blocks):
        # on the default grid mesh10 mixes solved points with NW fallbacks
        # (at 2e-3, say); on the edge design interior points lose every weight
        X = edge_design() if case == "edges" else mesh10
        loo = case == "leave_one_out"
        S = X if loo else barycentric_grid(20)
        Y = np.column_stack([np.sin(3 * X[:, 0]) + X[:, 1] ** 2, X[:, 1] ** 3])
        if blocks == "forced":
            force_blocks(monkeypatch, 2 * X.shape[0])
        count = len(estimators.weight_row_blocks(S.shape[0], 2 * X.shape[0]))
        assert count == 1 if blocks == "one" else count >= 3
        grid = default_grid()
        est, fell_back = estimators.kernel_estimates(X, S, grid, Y, ["NW", "LL"], loo)
        assert est["NW"].shape == est["LL"].shape == (grid.size, S.shape[0], 2)
        assert fell_back.shape == (grid.size, S.shape[0]) and fell_back.any()
        assert np.isnan(est["NW"]).any() == (case == "edges")
        for i, b in enumerate(grid):
            one, one_fell_back = estimators.kernel_estimates(X, S, b, Y, ["NW", "LL"], loo)
            assert np.array_equal(fell_back[i], one_fell_back), b
            for meth in ("NW", "LL"):
                assert np.array_equal(est[meth][i], one[meth], equal_nan=True), (meth, b)

    def test_weights_at_each_bandwidth(self, mesh10):
        S, grid = barycentric_grid(20), default_grid()[::6]
        kw = KernelWeights(mesh10, S, grid)
        for i, b in enumerate(grid):
            w = kw.at(i).w
            assert np.array_equal(w, KernelWeights(mesh10, S, b).w)
            # the rescaled log-kernel rows, up to the rounding of exp(D / b)
            logw = log_kappa_matrix(S, b, mesh10)
            want = np.exp(logw - logw.max(axis=1, keepdims=True))
            assert_allclose(w, want, rtol=1e-10, atol=1e-300)
            assert np.array_equal(w.max(axis=1), np.ones(S.shape[0]))

    def test_bandwidths_are_validated(self, mesh7):
        Y = np.ones((28, 1))
        for bad in ([0.1, 0.0], [0.1, np.inf], [], [[0.1, 0.2]]):
            with pytest.raises(DomainError):
                estimators.kernel_estimates(mesh7, mesh7[:3], bad, Y, ["NW"])


def rotated_spectra(count, seed):
    """Symmetric positive semidefinite 3 x 3 matrices ``c Q diag(1, mu, rho)
    Q^T``: random rotations Q, mu in [1e-3, 1], rho in [1e-12, 1e-8] (so
    the smallest singular value straddles ``LL_RCOND``), c in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    spectra = np.column_stack(
        [np.ones(count), 10.0 ** rng.uniform(-3, 0, count), 10.0 ** rng.uniform(-12, -8, count)]
    )
    spectra *= 10.0 ** rng.uniform(-3, 3, (count, 1))
    A = (Q * spectra[:, None, :]) @ Q.transpose(0, 2, 1)
    return (A + A.transpose(0, 2, 1)) / 2.0


def svd_flags(A):
    """The singularity flags of the former batched-SVD test."""
    svals = np.linalg.svd(A, compute_uv=False)
    return (svals[:, -1] <= estimators.LL_RCOND * svals[:, 0]) | ~np.isfinite(svals).all(axis=1)


def eigvalsh_flags(A):
    ev = np.abs(np.linalg.eigvalsh(A))
    return ev.min(axis=1) <= estimators.LL_RCOND * ev.max(axis=1)


class TestSingularityTest:
    """LL's singularity test: a determinant bound clears most normal
    matrices, eigenvalues decide the rest."""

    def test_flags_equal_svd_flags(self):
        A = rotated_spectra(4000, 8)
        want = svd_flags(A)
        assert 100 < want.sum() < 3900
        assert np.array_equal(estimators._singular(A), want)
        cleared = estimators._clearly_regular(A)
        assert 100 < cleared.sum() < 3900
        assert not (cleared & eigvalsh_flags(A)).any()

    def test_non_finite_and_zero_matrices_are_singular(self):
        A = np.tile(np.eye(3), (4, 1, 1))
        A[1, 0, 0] = np.nan
        A[2, 1, 2] = A[2, 2, 1] = np.inf
        A[3] = 0.0
        assert estimators._singular(A).tolist() == [False, True, True, True]

    def test_cleared_normal_matrices_are_never_flagged(self, mesh10, monkeypatch):
        # the normal matrices of the study grid and of a soil-like LOOCV
        seen = []
        singular = estimators._singular

        def record(A):
            seen.append(A.copy())
            return singular(A)

        monkeypatch.setattr(estimators, "_singular", record)
        y = np.sin(3 * mesh10[:, 0]) + mesh10[:, 1] ** 2
        grid = default_grid()
        estimators.kernel_estimates(mesh10, barycentric_grid(60), grid, y[:, None], ["LL"])
        X = random_interior_points(990, 5)
        y = np.cos(X[:, 0]) + X[:, 1]
        estimators.kernel_estimates(X, X, grid, y[:, None], ["LL"], True)
        A = np.concatenate(seen)
        flagged, cleared = eigvalsh_flags(A), estimators._clearly_regular(A)
        assert flagged.sum() > 1000 and cleared.sum() > 0.8 * len(A)
        assert not (cleared & flagged).any()
        assert np.array_equal(singular(A), flagged)


class TestEquivariance:
    @pytest.mark.parametrize("method", ["NW", "LL"])
    def test_shift_and_scale(self, mesh7, method):
        rng = np.random.default_rng(12)
        y = rng.normal(size=28)
        pts = random_interior_points(8, 8)
        base = batch_estimate(method, Design(points=mesh7, responses=y), 0.12, pts)
        shifted = batch_estimate(
            method, Design(points=mesh7, responses=y + 3.7), 0.12, pts
        )
        scaled = batch_estimate(
            method, Design(points=mesh7, responses=2.5 * y), 0.12, pts
        )
        assert_allclose(shifted, base + 3.7, atol=1e-10)
        assert_allclose(scaled, 2.5 * base, rtol=1e-10)

    def test_gm_shift_within_cubature_error(self, mesh7):
        cfg = CubatureConfig()
        rng = np.random.default_rng(3)
        y = rng.normal(size=28)
        s = [0.3, 0.4]
        base = gm_estimate(Design(points=mesh7, responses=y), 0.15, s, cfg)
        shifted = gm_estimate(Design(points=mesh7, responses=y + 2.0), 0.15, s, cfg)
        assert shifted - base == pytest.approx(2.0, abs=40 * cfg.relative_tolerance)
        scaled = gm_estimate(Design(points=mesh7, responses=3.0 * y), 0.15, s, cfg)
        assert scaled == pytest.approx(3.0 * base, abs=40 * cfg.relative_tolerance)
