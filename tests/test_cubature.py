import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexreg import (
    CubatureConfig,
    integrate_polygon,
    integrate_simplex,
    kappa,
    psi_J,
)
from simplexreg import cubature
from simplexreg.bandwidth import default_grid
from simplexreg.cubature import (
    _BARY,
    _NQ,
    _W5,
    _W7,
    _eval_rules,
    _first_round_chunks,
    _graded_roots,
    _split_longest_edge,
    _tri_areas,
    fan_triangulation,
    integrate_cells_batch,
    root_triangles,
    shrunken_simplex_triangle,
)
from simplexreg.errors import MismatchError
from simplexreg.geometry import SIMPLEX_TRIANGLE
from simplexreg.kernel import kappa_columns

from conftest import (
    count_first_rounds,
    graded_roots_oracle,
    integrate_one_cell,
    shrunken_psi_integral,
)


def monomial_exact(p, q):
    # integral of x^p y^q over the triangle (0,0),(1,0),(0,1)
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def rule_value(weights, p, q):
    pts = _BARY @ SIMPLEX_TRIANGLE
    return 0.5 * float(weights @ (pts[:, 0] ** p * pts[:, 1] ** q))


class TestRuleExactness:
    @pytest.mark.parametrize("p,q", [(p, q) for p in range(6) for q in range(6 - p)])
    def test_degree5_rule_exact_to_degree_5(self, p, q):
        assert rule_value(_W5, p, q) == pytest.approx(monomial_exact(p, q), rel=1e-13)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(8) for q in range(8 - p)])
    def test_degree7_rule_exact_to_degree_7(self, p, q):
        assert rule_value(_W7, p, q) == pytest.approx(monomial_exact(p, q), rel=1e-12)


def eval_rules_oracle(f_batch, coords, cols):
    """The rule pair applied triangle-major: values ``(T, 19, a)`` contracted
    with ``[W7, W7 - W5]`` by ``tensordot``.  Also returns the error
    estimate's rounding scale, ``area * sum_q |W7 - W5|_q |f_q|``."""
    T = coords.shape[0]
    pts = np.einsum("qb,tbv->tqv", _BARY, coords).reshape(T * _NQ, 2)
    vals = np.asarray(f_batch(pts, cols), dtype=float).reshape(T, _NQ, cols.size)
    areas = _tri_areas(coords)[:, None]
    both = np.tensordot(vals, np.column_stack([_W7, _W7 - _W5]), axes=([1], [0]))
    scale = np.tensordot(np.abs(vals), np.abs(_W7 - _W5), axes=([1], [0])) * areas
    return both[:, :, 0] * areas, np.abs(both[:, :, 1]) * areas, scale


def split_longest_edge_oracle(coords):
    """Bisection by per-vertex index arithmetic: squared edge lengths
    stacked edge by edge, the first longest edge on ties, and the two
    children written to the even and odd rows."""
    edge_len = np.stack(
        [
            ((coords[:, 1] - coords[:, 0]) ** 2).sum(axis=1),
            ((coords[:, 2] - coords[:, 1]) ** 2).sum(axis=1),
            ((coords[:, 0] - coords[:, 2]) ** 2).sum(axis=1),
        ],
        axis=1,
    )
    i = np.argmax(edge_len, axis=1)
    j, k = (i + 1) % 3, (i + 2) % 3
    idx = np.arange(coords.shape[0])
    mid = 0.5 * (coords[idx, i] + coords[idx, j])
    out = np.empty((2 * coords.shape[0], 3, 2))
    out[0::2, 0], out[0::2, 1], out[0::2, 2] = coords[idx, i], mid, coords[idx, k]
    out[1::2, 0], out[1::2, 1], out[1::2, 2] = mid, coords[idx, j], coords[idx, k]
    return out


class TestBisection:
    def test_matches_index_arithmetic_oracle(self, rng):
        # random triangles and triangles whose longest edges tie (two of
        # them, or all three at a degenerate triangle), in every vertex
        # order, then their children and grandchildren
        tied = [
            [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]],
            [[0.25, 0.25], [0.75, 0.25], [0.5, 0.75]],
            [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]],
        ]
        orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
        coords = np.vstack(
            [np.array(t)[orders] for t in tied]
            + [rng.dirichlet(np.ones(3), size=(50, 3))[:, :, :2]]
        )
        for _ in range(3):
            children = _split_longest_edge(coords)
            assert children.shape == (2 * coords.shape[0], 3, 2)
            assert np.array_equal(children, split_longest_edge_oracle(coords))
            coords = children


class TestRuleLayout:
    @pytest.mark.parametrize("a", [1, 50])
    def test_matches_triangle_major_oracle(self, a, rng):
        centres = rng.dirichlet(np.ones(3), size=a)[:, :2]
        f_batch = kappa_columns(centres, 0.05)
        # random triangles inside the simplex, both orientations
        coords = rng.dirichlet(np.ones(3), size=(40, 3))[:, :, :2]
        cols = np.arange(a)
        fine, err = _eval_rules(f_batch, coords, cols)
        fine_o, err_o, scale = eval_rules_oracle(f_batch, coords, cols)
        assert fine.shape == err.shape == (40, a)
        assert_allclose(fine, fine_o, rtol=1e-14, atol=0)
        # the error estimate is a difference of rules: its rounding is
        # relative to the terms it cancels, not to itself
        assert np.all(np.abs(err - err_o) <= 1e-14 * scale)


class TestIntegratePolygon:
    def test_constant_over_unit_triangle(self):
        res = integrate_polygon(lambda p: np.ones(p.shape[0]), SIMPLEX_TRIANGLE)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-13)
        assert res.error_estimate <= 1e-13

    def test_bilinear_monomial(self):
        res = integrate_polygon(lambda p: p[:, 0] * p[:, 1], SIMPLEX_TRIANGLE)
        assert res.value == pytest.approx(1 / 24, rel=1e-12)

    def test_square_of_first_coordinate(self):
        res = integrate_polygon(lambda p: p[:, 0] ** 2, SIMPLEX_TRIANGLE)
        assert res.value == pytest.approx(monomial_exact(2, 0), rel=1e-10)

    def test_scalar_only_callable_raises_mismatch(self):
        # written for one point: given (q, 2) points it returns shape (2,)
        calls = []

        def per_point(p):
            calls.append(np.shape(p))
            return p[0] ** 2

        with pytest.raises(MismatchError):
            integrate_polygon(per_point, SIMPLEX_TRIANGLE)
        # no point-by-point retry after the mismatch
        assert len(calls) == 1 and len(calls[0]) == 2

    def test_kernel_partition_of_unity(self, partition7):
        cfg = CubatureConfig()
        s = [0.28, 0.33]
        total = 0.0
        for cell in partition7.cells:
            res = integrate_polygon(lambda p: kappa(s, 0.08, p), cell, cfg)
            total += res.value
        assert abs(total - 1.0) <= 10 * cfg.relative_tolerance

    def test_additivity_over_subtriangulations(self):
        f = lambda p: np.exp(p[:, 0] - 2 * p[:, 1])
        whole = integrate_polygon(f, SIMPLEX_TRIANGLE)
        mid = SIMPLEX_TRIANGLE.mean(axis=0)
        parts = []
        for i in range(3):
            tri = np.array(
                [mid, SIMPLEX_TRIANGLE[i], SIMPLEX_TRIANGLE[(i + 1) % 3]]
            )
            parts.append(integrate_polygon(f, tri))
        total = sum(p.value for p in parts)
        budget = whole.error_estimate + sum(p.error_estimate for p in parts)
        assert abs(total - whole.value) <= budget + 1e-14

    def test_refinement_monotonicity(self):
        f = lambda p: kappa([0.25, 0.3], 0.05, p)
        errs = []
        for rtol in (4e-3, 2e-3, 1e-3, 5e-4):
            res = integrate_simplex(f, CubatureConfig(relative_tolerance=rtol))
            errs.append(res.error_estimate)
        assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errs, errs[1:]))

    def test_tolerance_not_reached_is_flagged_not_raised(self):
        cfg = CubatureConfig(relative_tolerance=1e-3, max_subdivisions=1)
        res = integrate_polygon(
            lambda p: kappa([0.31, 0.22], 0.004, p), SIMPLEX_TRIANGLE, cfg
        )
        assert not res.converged
        assert np.isfinite(res.value)


def kink(p):
    return np.sqrt(np.maximum(p[:, 0] - 0.7, 0.0))


KINK_INTEGRAL = 0.08 * 0.3**1.5  # of kink over the unit triangle


class TestAdaptiveExits:
    """Every way out of the refinement loop keeps the last values and flags
    the components that missed their tolerance."""

    def test_no_error_left_on_splittable_triangles(self):
        # two fan triangles touch the kink and reach the depth limit; the
        # third is exactly zero, carries no error and stays whole
        cfg = CubatureConfig(max_subdivisions=1)
        res = integrate_polygon(kink, SIMPLEX_TRIANGLE, cfg)
        assert not res.converged and res.triangles == 5
        assert res.value == pytest.approx(KINK_INTEGRAL, rel=0.15)

    def test_frozen_component_keeps_its_value(self):
        # the constant passes in the first round; the kink refines on alone
        def f_batch(pts, cols):
            return np.column_stack([np.ones(pts.shape[0]), kink(pts)])[:, cols]

        cfg = CubatureConfig(max_subdivisions=1)
        vals, errs, ok, ntri = integrate_one_cell(f_batch, SIMPLEX_TRIANGLE, 2, cfg)
        alone = integrate_polygon(kink, SIMPLEX_TRIANGLE, cfg)
        assert not ok and ntri == alone.triangles
        assert vals[0] == pytest.approx(0.5, abs=1e-14) and errs[0] <= 1e-14
        assert vals[1] == pytest.approx(alone.value, rel=1e-12)

    def test_triangle_cap(self, monkeypatch):
        monkeypatch.setattr(cubature, "_MAX_TRIANGLES", 8)
        cfg = CubatureConfig(relative_tolerance=1e-6)
        res = integrate_polygon(kink, SIMPLEX_TRIANGLE, cfg)
        assert not res.converged and 8 < res.triangles <= 16
        assert res.value == pytest.approx(KINK_INTEGRAL, rel=0.01)

    def test_nan_integrand_marks_nothing(self):
        res = integrate_polygon(lambda p: np.full(p.shape[0], np.nan), SIMPLEX_TRIANGLE)
        assert not res.converged and res.triangles == 3
        assert np.isnan(res.value) and np.isnan(res.error_estimate)


class TestIntegrateSimplex:
    def test_area(self):
        res = integrate_simplex(lambda p: np.ones(p.shape[0]))
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_variance_constant_integral_vs_grid_oracle(self):
        # midpoint-grid oracle on the epsilon-shrunken simplex
        eps = 1e-4
        tri = shrunken_simplex_triangle(eps)
        n = 1500
        total = 0.0
        # map the unit triangle grid onto the shrunken one
        v0, v1, v2 = tri
        cell = 1.0 / n
        for i in range(n):
            a = (i + 0.5) * cell
            j = np.arange(n - i - 1) + 0.5
            bvals = j * cell
            pts = v0 + a * (v1 - v0) + bvals[:, None] * (v2 - v0)
            total += np.sum(psi_J(pts))
        jac = abs(
            (v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0]
        )
        oracle = total * cell * cell * jac
        res = integrate_simplex(
            psi_J,
            CubatureConfig(relative_tolerance=1e-3),
            boundary_singular=True,
            eps=eps,
        )
        assert res.value == pytest.approx(oracle, rel=0.02)
        # the full-simplex value is exactly 1/2; shrinking by eps truncates
        # three boundary strips of sqrt(eps)/2 each
        assert res.value == pytest.approx(0.5 - 1.5 * np.sqrt(eps), rel=0.01)

    @pytest.mark.parametrize(
        "eps, rtol", [(1e-2, 1e-3), (1e-4, 1e-3), (1e-4, 1e-5), (1e-6, 1e-3)]
    )
    def test_variance_constant_integral_vs_exact_value(self, eps, rtol):
        # roots graded at scale eps resolve the inverse-square-root layers
        # along the edges, so the result meets its own tolerance
        res = integrate_simplex(
            psi_J,
            CubatureConfig(relative_tolerance=rtol),
            boundary_singular=True,
            eps=eps,
        )
        assert res.converged
        assert res.value == pytest.approx(shrunken_psi_integral(eps), rel=rtol)

    def test_kernel_square_integral_matches_leading_term(self):
        # \int kappa^2 ~ b^{-d/2} psi(s) as b -> 0, with a first-order
        # correction of about 3.6*b at the centroid (so the 15% band is
        # reached around b = 0.04; at b = 0.1 the exact ratio is 1.366,
        # confirmed against a 3000^2 midpoint grid)
        s = [1 / 3, 1 / 3]
        ratios = []
        for b in (0.1, 0.05, 0.02):
            res = integrate_simplex(
                lambda p: kappa(s, b, p) ** 2,
                CubatureConfig(relative_tolerance=1e-4),
            )
            ratios.append(res.value / (b**-1.0 * psi_J(s)))
        assert abs(ratios[-1] - 1.0) < 0.15
        assert ratios[0] > ratios[1] > ratios[2] > 1.0


class TestBatchEngine:
    def test_batch_matches_scalar_integrations(self, partition7):
        cells = partition7.cells[:4]
        s_batch = np.array([[0.3, 0.3], [0.5, 0.2], [0.1, 0.6]])

        def f_batch(pts, cols):
            return np.column_stack([kappa(s, 0.15, pts) for s in s_batch[cols]])

        for cell in cells:
            vals, errs, ok, _ = integrate_one_cell(f_batch, cell, 3)
            assert ok
            for i, s in enumerate(s_batch):
                single = integrate_polygon(lambda p: kappa(s, 0.15, p), cell)
                # both paths satisfy the same tolerance contract
                tol = max(
                    1e-3 * abs(single.value), 1e-14
                ) + max(1e-3 * abs(vals[i]), 1e-14)
                assert abs(vals[i] - single.value) <= tol + errs[i] + single.error_estimate

    def test_first_round_passes_report_roots_and_first_round_errors(self, partition7):
        # cells that pass in their first round take its totals: their root
        # count as triangles and their first-round error sums as errors;
        # the others refine past their roots
        b, cells = 0.05, partition7.cells
        centers = np.array([[0.3, 0.3], [0.6, 0.2]])
        f_batch = kappa_columns(centers, b)
        roots = root_triangles(cells, b)
        values, errors, converged, triangles = integrate_cells_batch(f_batch, roots, 2)
        assert values.shape == errors.shape == (len(cells), 2)
        first = [_eval_rules(f_batch, r, np.arange(2)).sum(axis=1) for r in roots]
        tol = np.maximum(1e-3 * np.abs([f[0] for f in first]), 1e-14)
        passed = np.array([np.all(f[1] <= t) for f, t in zip(first, tol)])
        assert 0 < passed.sum() < len(cells)
        sizes = np.array([r.shape[0] for r in roots])
        assert np.array_equal(triangles[passed], sizes[passed])
        assert np.all(triangles[~passed] > sizes[~passed])
        assert converged.all()
        for c in np.flatnonzero(passed):
            assert_allclose(values[c], first[c][0], rtol=1e-14, atol=0)
            # an error estimate is a difference of rules: it rounds relative
            # to the value, not to itself
            assert np.all(np.abs(errors[c] - first[c][1]) <= 1e-14 * np.abs(first[c][0]))

    def test_boundary_singular_simplex_keeps_its_triangles(self):
        # roots graded at scale eps pass the variance integral in one round
        res = integrate_simplex(psi_J, boundary_singular=True)
        assert res.converged and res.triangles == 363

    def test_graded_roots_cover_the_polygon(self):
        roots = _graded_roots([SIMPLEX_TRIANGLE], 0.01)[0]
        areas = 0.5 * np.abs(
            (roots[:, 1, 0] - roots[:, 0, 0]) * (roots[:, 2, 1] - roots[:, 0, 1])
            - (roots[:, 1, 1] - roots[:, 0, 1]) * (roots[:, 2, 0] - roots[:, 0, 0])
        )
        assert areas.sum() == pytest.approx(0.5, abs=1e-10)

    def test_graded_roots_are_reused_read_only(self, partition7):
        cell = partition7.cells[0]
        (roots,) = root_triangles([cell], 0.05)
        assert np.array_equal(roots, _graded_roots([cell.vertices], 0.05)[0])
        assert root_triangles([cell.vertices.copy()], 0.05)[0] is roots
        assert not roots.flags.writeable

        centers = np.array([[0.1, 0.8], [0.05, 0.9]])

        def f_batch(pts, cols):
            return np.column_stack([kappa(s, 0.05, pts) for s in centers[cols]])

        first = integrate_one_cell(f_batch, cell, 2, scale=0.05)
        again = integrate_one_cell(f_batch, cell, 2, scale=0.05)
        assert np.array_equal(first[0], again[0]) and first[2:] == again[2:]

    def test_cells_batch_chunks_match_cell_by_cell(self, partition10, monkeypatch):
        # a budget of 60 triangles a chunk for one component's values
        monkeypatch.setattr(cubature, "WEIGHT_BLOCK_BYTES", 8 * 8 * 19 * 3 * 60)
        b, cells = 0.1, partition10.cells
        roots = root_triangles(cells, b)
        sizes = [r.shape[0] for r in roots]
        runs = _first_round_chunks(sizes, 1)
        # consecutive cells, each run within the budget or a single cell
        assert [i for run in runs for i in range(len(cells))[run]] == list(range(len(cells)))
        assert all(sum(sizes[run]) <= 60 or len(sizes[run]) == 1 for run in runs)
        assert 1 < len(runs) < len(cells) // 2
        assert _first_round_chunks([70, 10, 50, 5], 1) == [slice(0, 1), slice(1, 3), slice(3, 4)]
        f_batch = kappa_columns(np.array([[0.2, 0.3]]), b)
        first_rounds = count_first_rounds(monkeypatch)
        values, _, converged, _ = integrate_cells_batch(f_batch, roots, 1)
        # the engine cuts the same runs, one first-round evaluation each
        assert first_rounds == [sum(sizes[run]) for run in runs]
        own = [integrate_one_cell(f_batch, cell, 1, scale=b) for cell in cells]
        assert np.abs(values[:, 0] - [run[0][0] for run in own]).max() <= 1e-15
        assert np.array_equal(converged, [run[2] for run in own])

    def test_roots_cache_drops_the_least_recently_used(self, partition7, monkeypatch):
        monkeypatch.setattr(cubature, "_ROOTS_CACHE_SIZE", 3)
        monkeypatch.setattr(cubature, "_roots_cache", {})
        a, b, c, d = partition7.cells[:4]
        first = root_triangles([a, b, c], 0.05)
        # the hit on a makes b the least recently used, so d's entry drops b
        assert root_triangles([a], 0.05)[0] is first[0]
        root_triangles([d], 0.05)
        assert len(cubature._roots_cache) == 3
        again = root_triangles([a, c], 0.05)
        assert again[0] is first[0] and again[1] is first[2]
        regraded = root_triangles([b], 0.05)[0]
        assert regraded is not first[1] and np.array_equal(regraded, first[1])
        # a cell asked for twice in one call is one entry, kept
        twice = root_triangles([c, c, b], 0.05)
        assert twice[0] is twice[1] is first[2] and twice[2] is regraded

    def test_roots_cache_is_shared_across_threads(self, partition10, monkeypatch):
        # a small cache churning under frequent thread switches: every call
        # returns its cells' roots and no eviction trips over another
        monkeypatch.setattr(cubature, "_ROOTS_CACHE_SIZE", 8)
        monkeypatch.setattr(cubature, "_roots_cache", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        cells = partition10.cells[:20]
        expected = [_graded_roots([cell.vertices], 0.02)[0] for cell in cells]

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(150):
                picks = rng.choice(len(cells), 3, replace=False)
                got = root_triangles([cells[i] for i in picks], 0.02)
                assert all(np.array_equal(r, expected[i]) for r, i in zip(got, picks))

        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(work, range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert len(cubature._roots_cache) <= 8 + 4 * 3

    @pytest.mark.parametrize("k", [7, 10])
    def test_graded_roots_match_clip_everything_oracle(self, k, request):
        # all cells of a partition graded together, each line one clip call
        # for every piece of every cell, against each cell on its own
        partition = request.getfixturevalue(f"partition{k}")
        grid = default_grid()[::4]
        assert grid.size == 10
        cells = [cell.vertices for cell in partition.cells]
        roots = [r for b in grid for r in _graded_roots(cells, float(b))]
        expected = [graded_roots_oracle(v, float(b)) for b in grid for v in cells]
        assert len(roots) == len(expected) == 10 * len(cells)
        assert sum(r.shape[0] > v.shape[0] for r, v in zip(roots, cells * 10)) > len(cells)
        assert all(np.array_equal(r, e) for r, e in zip(roots, expected))

    def test_fan_triangulation_matches_stacked_form(self, partition7):
        for cell in partition7.cells:
            v = cell.vertices
            centroid = np.broadcast_to(v.mean(axis=0), v.shape)
            expected = np.stack([centroid, v, np.roll(v, -1, axis=0)], axis=1)
            assert np.array_equal(fan_triangulation(v), expected)

    def test_fan_triangulation_covers_polygon(self, partition7):
        for cell in partition7.cells[:6]:
            tris = fan_triangulation(cell.vertices)
            areas = 0.5 * np.abs(
                (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
                - (tris[:, 1, 1] - tris[:, 0, 1]) * (tris[:, 2, 0] - tris[:, 0, 0])
            )
            assert areas.sum() == pytest.approx(cell.area, rel=1e-10)


class TestConfigValidation:
    def test_relative_tolerance_range(self):
        with pytest.raises(ValueError):
            CubatureConfig(relative_tolerance=0.5)
        with pytest.raises(ValueError):
            CubatureConfig(relative_tolerance=0.0)

    def test_floor_and_depth_validation(self):
        with pytest.raises(ValueError):
            CubatureConfig(absolute_floor=0.0)
        for floor in (np.nan, np.inf):
            with pytest.raises(ValueError):
                CubatureConfig(absolute_floor=floor)
        with pytest.raises(ValueError):
            CubatureConfig(max_subdivisions=0)
