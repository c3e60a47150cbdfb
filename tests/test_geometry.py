import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexreg import (
    CubatureConfig,
    ConvexCell,
    cell_area,
    cell_diameter,
    integrate_polygon,
    kappa,
    mesh_design_points,
    uniform_simplex_sample,
    voronoi_partition,
)
from simplexreg import geometry
from simplexreg.bandwidth import default_grid
from simplexreg.cubature import _graded_roots
from simplexreg.errors import DegenerateSiteError, DomainError
from simplexreg.geometry import (
    SIMPLEX_TRIANGLE,
    _clip_rings,
    _dedup_ring,
    _edge_crosses,
    _point_strictly_inside,
    _reach,
    _shifted,
    voronoi_cell,
)
from simplexreg.kernel import WEIGHT_BLOCK_BYTES

from conftest import (
    clip_halfplane_oracle,
    dedup_ring_oracle,
    graded_roots_oracle,
    nearest_first_cell_oracle,
    peak_traced_bytes,
)


def index_order_cell(s, others):
    """The cell clipped against the other sites in index order, skipping
    those beyond twice its radius, kept as an oracle."""
    poly = SIMPLEX_TRIANGLE
    reach = (1.0 + 1e-9) * 2.0 * np.sqrt(((poly - s) ** 2).sum(axis=1)).max()
    for t, dist in zip(others, np.linalg.norm(others - s, axis=1)):
        if dist > reach:
            continue
        clipped = clip_halfplane_oracle(poly, t - s, 0.5 * (t @ t - s @ s))
        if clipped is poly:
            continue
        poly = clipped
        if poly.shape[0] < 3:
            break
        reach = (1.0 + 1e-9) * 2.0 * np.sqrt(((poly - s) ** 2).sum(axis=1)).max()
    return _dedup_ring(poly)


def random_convex_ring(rng):
    """3 to 8 points on a circle of radius 0.3, counterclockwise."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, rng.integers(3, 9)))
    return rng.uniform(0.2, 0.8, 2) + 0.3 * np.column_stack([np.cos(angles), np.sin(angles)])


SITE_SETS = pytest.mark.parametrize(
    "sites",
    [mesh_design_points(k) for k in (7, 10, 14, 20)]
    + [uniform_simplex_sample(200, seed) for seed in (1, 2, 3)],
    ids=["mesh7", "mesh10", "mesh14", "mesh20", "unif1", "unif2", "unif3"],
)


class TestMeshDesignPoints:
    @pytest.mark.parametrize("k,n", [(7, 28), (10, 55), (14, 105)])
    def test_sample_sizes(self, k, n):
        assert mesh_design_points(k).shape == (n, 2)

    def test_k2_values_and_symmetry(self):
        pts = mesh_design_points(2)
        expected = np.array(
            [
                [1 / 6, 0.59763107293781749],
                [1 / 6, 1 / 6],
                [0.59763107293781749, 1 / 6],
            ]
        )
        assert_allclose(np.sort(pts, axis=0), np.sort(expected, axis=0), rtol=1e-12)
        swapped = pts[:, ::-1]
        for q in swapped:
            assert np.min(np.linalg.norm(pts - q, axis=1)) < 1e-12

    @pytest.mark.parametrize("k", [2, 7, 10, 14])
    def test_strictly_interior(self, k):
        pts = mesh_design_points(k)
        assert np.all(pts > 0.0)
        assert np.all(pts.sum(axis=1) < 1.0)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            mesh_design_points(1)

    def test_spacing_scales_like_inverse_k(self):
        def spacing(k):
            pts = mesh_design_points(k)
            d2 = ((pts[None] - pts[:, None]) ** 2).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            return np.sqrt(d2.min(axis=1)).max()

        for k1, k2 in [(7, 10), (10, 14)]:
            ratio = spacing(k1) / spacing(k2)
            assert ratio == pytest.approx(k2 / k1, rel=0.5)


class TestVoronoiPartition:
    def test_single_site_is_whole_triangle(self):
        part = voronoi_partition(np.array([[0.3, 0.3]]))
        assert len(part) == 1
        assert part.cells[0].area == pytest.approx(0.5, abs=1e-12)

    def test_mesh_partition_area_and_sites(self, partition7):
        assert len(partition7) == 28
        assert partition7.total_area() == pytest.approx(0.5, abs=1e-9)
        for cell in partition7.cells:
            verts = cell.vertices
            assert np.all(verts >= -1e-10)
            assert np.all(verts.sum(axis=1) <= 1 + 1e-10)

    def test_mirror_symmetric_sites_give_equal_areas(self):
        part = voronoi_partition(np.array([[0.2, 0.4], [0.4, 0.2]]))
        assert part.cells[0].area == pytest.approx(part.cells[1].area, rel=1e-10)
        flipped = part.cells[1].vertices[:, ::-1]
        for v in part.cells[0].vertices:
            assert np.min(np.linalg.norm(flipped - v, axis=1)) < 1e-9

    def test_coincident_sites_raise(self):
        with pytest.raises(DegenerateSiteError):
            voronoi_partition(np.array([[0.3, 0.3], [0.3, 0.3]]))

    def test_large_mesh_partition_still_exact(self):
        part = voronoi_partition(mesh_design_points(20))
        assert len(part) == 210
        assert part.total_area() == pytest.approx(0.5, abs=1e-9)

    @SITE_SETS
    def test_skipped_bisectors_leave_cells_bit_identical(self, sites):
        # reference: clip against the bisector of every other site, in the
        # same order (distance, then x, then y), with no early stop
        def plain_cell(i):
            s = sites[i]
            others = np.delete(sites, i, axis=0)
            dists = np.linalg.norm(others - s, axis=1)
            poly = SIMPLEX_TRIANGLE
            for t in others[np.lexsort((others[:, 1], others[:, 0], dists))]:
                poly = clip_halfplane_oracle(poly, t - s, 0.5 * (t @ t - s @ s))
                if poly.shape[0] < 3:
                    break
            return dedup_ring_oracle(poly)

        part = voronoi_partition(sites)
        assert len(part.cells) == len(sites)
        for i, cell in enumerate(part.cells):
            assert np.array_equal(cell.vertices, plain_cell(i))

    @SITE_SETS
    def test_cells_match_index_order_walk(self, sites):
        # the same polygons as clipping in index order, up to where each
        # ring starts and rounding
        part = voronoi_partition(sites)
        for i, cell in enumerate(part.cells):
            old = index_order_cell(sites[i], np.delete(sites, i, axis=0))
            assert old.shape == cell.vertices.shape
            start = np.argmin(np.abs(old - cell.vertices[0]).sum(axis=1))
            aligned = np.roll(old, -start, axis=0)
            assert np.abs(aligned - cell.vertices).max() <= 1e-14

    @SITE_SETS
    def test_permuting_sites_permutes_cells_bit_for_bit(self, sites):
        perm = np.random.default_rng(len(sites)).permutation(len(sites))
        cells = voronoi_partition(sites).cells
        permuted = voronoi_partition(sites[perm]).cells
        for j, cell in zip(perm, permuted):
            assert np.array_equal(cell.vertices, cells[j].vertices)
            assert np.array_equal(cell.site, cells[j].site)
        # one cell on its own, the other sites given in shuffled order
        others = sites[perm[perm != 0]]
        assert np.array_equal(voronoi_cell(sites[0], others), cells[0].vertices)

    @pytest.mark.parametrize(
        "sites,limit",
        [(mesh_design_points(14), 800), (uniform_simplex_sample(1000, 0), 15 * 1000)],
        ids=["mesh14", "unif1000"],
    )
    def test_nearest_first_walk_stops_early(self, sites, limit, monkeypatch):
        # clipping against every site within reach in index order takes
        # 5,879 clips on mesh14 and ~54 per cell on 1,000 uniform sites;
        # a lockstep step clips each of its rings once
        clips = []

        def counted(rings, counts, normals, offsets):
            clips.append(counts.size)
            return _clip_rings(rings, counts, normals, offsets)

        monkeypatch.setattr(geometry, "_clip_rings", counted)
        voronoi_partition(sites)
        assert len(sites) <= sum(clips) <= limit

    @pytest.mark.parametrize("k", [10, 14])
    def test_cells_match_numpy_vertex_walk_oracle(self, k):
        sites = mesh_design_points(k)
        cells = voronoi_partition(sites).cells
        expected = [nearest_first_cell_oracle(s, sites) for s in sites]
        assert len(cells) == len(expected) == len(sites)
        # every cell is cut from the triangle, most by several clips
        assert min(changes for _, changes in expected) >= 2
        assert all(np.array_equal(c.vertices, e) for c, (e, _) in zip(cells, expected))

    def test_graded_roots_match_numpy_vertex_walk_oracle(self, partition10):
        grid = default_grid()[::4]
        pairs = [(cell.vertices, float(b)) for b in grid for cell in partition10.cells]
        roots = [_graded_roots([v], b)[0] for v, b in pairs]
        expected = [graded_roots_oracle(v, b) for v, b in pairs]
        assert len(roots) == len(expected) == 10 * len(partition10)
        # the bands cut many cells, so the clips are exercised
        fans = sum(r.shape[0] > v.shape[0] for r, (v, _) in zip(roots, pairs))
        assert fans > len(pairs) // 4
        assert all(np.array_equal(r, e) for r, e in zip(roots, expected))

    def test_clip_and_dedup_match_numpy_vertex_walk_oracle(self):
        rng = np.random.default_rng(8)
        clipped_some = kept_some = 0
        for _ in range(300):
            polys = [random_convex_ring(rng) for _ in range(rng.integers(1, 9))]
            normals = rng.normal(size=(len(polys), 2))
            # lines through the polygon, through a vertex, and missing it
            offsets = np.array(
                [
                    poly[rng.integers(len(poly))] @ normal
                    if rng.uniform() < 0.5
                    else (poly.mean(axis=0) @ normal + rng.normal(scale=0.3))
                    for poly, normal in zip(polys, normals)
                ]
            )
            counts = np.array([len(p) for p in polys])
            rings = np.zeros((len(polys), counts.max() + rng.integers(0, 3), 2))
            for ring, poly in zip(rings, polys):
                ring[: len(poly)] = poly
            # padding the clip must ignore
            rings[np.arange(rings.shape[1]) >= counts[:, None]] = rng.normal(size=2)
            changed, clipped, sizes = _clip_rings(rings, counts, normals, offsets)
            got = {int(i): ring[:size] for i, ring, size in zip(changed, clipped, sizes)}
            for i, (poly, normal, offset) in enumerate(zip(polys, normals, offsets)):
                expected = clip_halfplane_oracle(poly, normal, offset)
                assert (expected is poly) == (i not in got)
                if i in got:
                    clipped_some += 1
                    assert np.array_equal(got[i], expected)
                else:
                    kept_some += 1
            # near-duplicate vertices, across the ring's closing edge too
            poly = polys[0]
            ring = np.repeat(poly, rng.integers(1, 3, len(poly)), axis=0)
            ring = np.roll(ring, -1, axis=0) + rng.choice([0.0, 3e-11, 2e-10], ring.shape)
            assert np.array_equal(_dedup_ring(ring), dedup_ring_oracle(ring))
        # 300 dedup checks; over 600 rings clipped and 100 left as they are
        assert clipped_some > 600 and kept_some > 100

    def test_radius_and_site_test_match_numpy_forms(self):
        # the walk's reach, on padded rings, and the cell's site test, on
        # Python floats, keep the bits and the decisions of their numpy forms
        rng = np.random.default_rng(9)
        for _ in range(300):
            poly = random_convex_ring(rng)
            a, b = poly, np.roll(poly, -1, axis=0)
            # a point inside, one anywhere, and one on an edge
            on_edge = a[0] + rng.uniform() * (b[0] - a[0])
            points = np.array([poly.mean(axis=0), rng.uniform(0.0, 1.0, 2), on_edge])
            rings = np.full((3, len(poly) + 2, 2), 5.0)
            rings[:, : len(poly)] = poly
            reach = _reach(rings, np.full(3, len(poly)), points)
            for p, got in zip(points, reach):
                radius = np.sqrt(((poly - p) ** 2).sum(axis=1)).max()
                assert got == (1.0 + 1e-9) * 2.0 * radius
                cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
                    p[0] - a[:, 0]
                )
                inside = bool(np.all(cross > 1e-12 * np.linalg.norm(b - a, axis=1)))
                assert _point_strictly_inside(p.tolist(), poly) == inside

    def test_partition_memory_stays_within_row_blocks(self):
        sites = uniform_simplex_sample(2000, 4)
        peak, part = peak_traced_bytes(lambda: voronoi_partition(sites))
        assert len(part) == 2000
        # one 2000 x 2000 block of coordinate differences would be 64 MB
        assert peak < 3 * WEIGHT_BLOCK_BYTES

    def test_point_location_consistency(self, partition7):
        pts = uniform_simplex_sample(10_000, 5150)
        sites = partition7.sites
        nearest = np.argmin(
            ((pts[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        # membership in the located cell, checked by half-plane tests
        for p, j in zip(pts[:500], nearest[:500]):
            cell = partition7.cells[j]
            a = cell.vertices
            nxt = np.roll(a, -1, axis=0)
            cross = (nxt[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (
                nxt[:, 1] - a[:, 1]
            ) * (p[0] - a[:, 0])
            assert np.all(cross >= -1e-9)

    def test_partition_of_unity_of_kernel(self, partition7):
        cfg = CubatureConfig()
        s = [0.35, 0.25]
        total = sum(
            integrate_polygon(lambda p: kappa(s, 0.1, p), cell, cfg).value
            for cell in partition7.cells
        )
        assert abs(total - 1.0) <= 10 * cfg.relative_tolerance

    def test_json_export_round_trips(self, partition7):
        payload = json.dumps(partition7.to_json_dict())
        data = json.loads(payload)
        assert data["dimension"] == 2
        assert len(data["cells"]) == 28
        assert_allclose(data["cells"][0]["site"], partition7.cells[0].site)


class TestCellGeometry:
    def test_unit_right_triangle_area(self):
        assert cell_area(SIMPLEX_TRIANGLE) == pytest.approx(0.5)

    def test_square_area(self):
        square = np.array([[0, 0], [0.1, 0], [0.1, 0.1], [0, 0.1]])
        assert cell_area(square) == pytest.approx(0.01)

    def test_mesh_cells_have_balanced_areas(self, partition7):
        areas = np.array([c.area for c in partition7.cells])
        target = 0.5 / 28
        assert np.all(areas > 0.5 * target)
        assert np.all(areas < 2.6 * target)

    def test_index_shifts_match_roll(self, partition7):
        # the shifted copies, the shoelace area and the edge crosses keep
        # the bits of their np.roll forms
        for n in range(4):
            v = np.arange(2.0 * n).reshape(n, 2)
            for k in range(n + 1):
                assert np.array_equal(_shifted(v, k), np.roll(v, -k, axis=0))
        for cell in partition7.cells:
            v = cell.vertices
            x, y = v[:, 0], v[:, 1]
            area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
            assert cell_area(v) == area and cell.area == area
            b, c = np.roll(v, -1, axis=0), np.roll(v, -2, axis=0)
            cross = (b[:, 0] - v[:, 0]) * (c[:, 1] - v[:, 1]) - (b[:, 1] - v[:, 1]) * (
                c[:, 0] - v[:, 0]
            )
            assert np.array_equal(_edge_crosses(v), cross)

    def test_unit_right_triangle_diameter(self):
        assert cell_diameter(SIMPLEX_TRIANGLE) == pytest.approx(np.sqrt(2.0))

    def test_cell_invariants_reject_bad_polygons(self):
        with pytest.raises(DomainError):
            ConvexCell(vertices=np.array([[0, 0], [1, 0]]), site=np.array([0.2, 0.2]))
        with pytest.raises(DomainError):
            ConvexCell(vertices=SIMPLEX_TRIANGLE, site=np.array([0.9, 0.9]))

    @pytest.mark.parametrize("k", [7, 10, 14])
    def test_diameters_scale_with_sample_size(self, k):
        part = voronoi_partition(mesh_design_points(k))
        n = len(part)
        dmax = max(c.diameter for c in part.cells)
        assert dmax / n**-0.5 <= 4.0

    def test_diameter_ratio_across_meshes(self):
        dias = {}
        for k in (7, 10, 14):
            part = voronoi_partition(mesh_design_points(k))
            dias[k] = max(c.diameter for c in part.cells)
        for k1, k2 in [(7, 10), (10, 14)]:
            observed = dias[k1] / dias[k2]
            expected = k2 / k1
            assert observed == pytest.approx(expected, rel=0.5)


class TestUniformSample:
    def test_mean_matches_uniform_moments(self):
        pts = uniform_simplex_sample(100_000, 42)
        assert_allclose(pts.mean(axis=0), [1 / 3, 1 / 3], atol=0.01)

    def test_all_draws_inside_simplex(self):
        pts = uniform_simplex_sample(10_000, 9)
        assert np.all(pts >= 0.0)
        assert np.all(pts.sum(axis=1) <= 1.0)

    def test_deterministic_given_seed(self):
        a = uniform_simplex_sample(1000, 1729)
        b = uniform_simplex_sample(1000, 1729)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            uniform_simplex_sample(0, 1)
