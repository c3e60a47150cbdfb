import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexreg import (
    BandwidthSearch,
    Design,
    StudyConfig,
    clt_study,
    generate_responses,
    lscv,
    run_study,
    target_function,
    uniform_simplex_sample,
)
from simplexreg.errors import (
    DegenerateIqrWarning,
    UnknownFunctionError,
)
from simplexreg import simulation
from simplexreg.estimators import gm_weight_matrix
from simplexreg.cubature import CubatureConfig
from simplexreg.simulation import _grid_criterion_values, _ks_normal_statistic, noise_sd
from simplexreg.asymptotics import TargetFunction, bias_g


class TestTargetFunctions:
    def test_known_values(self):
        assert float(target_function("m1")(np.array([0.0, 0.0]))) == 0.0
        assert float(target_function("m3")(np.array([0.25, 0.25]))) == pytest.approx(1.0)
        assert float(target_function("m6")(np.array([0.0, 0.0]))) == pytest.approx(1.0)

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownFunctionError):
            target_function("m9")

    def test_vectorized_evaluation(self):
        pts = uniform_simplex_sample(50, 1)
        for name in ("m1", "m2", "m3", "m4", "m5", "m6"):
            vals = target_function(name)(pts)
            assert vals.shape == (50,)
            assert np.all(np.isfinite(vals))


class TestGenerateResponses:
    def test_zero_noise_reproduces_target(self, mesh7):
        m4 = target_function("m4")
        design = generate_responses(m4, mesh7, seed=5, zero_noise=True)
        assert_allclose(design.responses, np.asarray(m4(mesh7)))

    def test_deterministic_given_seed(self, mesh7):
        m1 = target_function("m1")
        a = generate_responses(m1, mesh7, seed=99)
        b = generate_responses(m1, mesh7, seed=99)
        assert np.array_equal(a.responses, b.responses)

    def test_error_scale_sd_reading(self, mesh7):
        m1 = target_function("m1")
        sd = noise_sd(m1, mesh7)
        truth = np.asarray(m1(mesh7))
        draws = np.concatenate(
            [
                generate_responses(m1, mesh7, seed=s).responses - truth
                for s in range(3600)
            ]
        )
        assert draws.size > 100_000
        assert np.var(draws) == pytest.approx(sd**2, rel=0.02)

    def test_constant_target_warns_and_falls_back(self, mesh7):
        m = TargetFunction(value=lambda s: np.full(np.asarray(s).shape[:-1], 2.0))
        with pytest.warns(DegenerateIqrWarning):
            design = generate_responses(m, mesh7, seed=1)
        assert_allclose(design.responses, 2.0)


class TestIseTilde:
    """The study's ISE at a selected bandwidth is the LSCV criterion there."""

    def test_zero_for_perfect_estimator(self, mesh7):
        m = lambda p: 3.0 + np.asarray(p)[..., 0] - np.asarray(p)[..., 1]
        design = Design(points=mesh7, responses=m(mesh7))
        sample = uniform_simplex_sample(200, 2)
        assert lscv("LL", design, m, sample, 0.3) < 1e-16

    def test_reproducible_bit_for_bit(self, mesh7):
        m1 = target_function("m1")
        design = generate_responses(m1, mesh7, seed=8)
        sample = uniform_simplex_sample(250, 12)
        a = lscv("LL", design, m1, sample, 0.12)
        b = lscv("LL", design, m1, sample, 0.12)
        assert a == b


class TestRunStudy:
    def small_config(self, **kw):
        defaults = dict(
            functions=("m4",),
            k_values=(2,),
            methods=("GM", "NW", "LL"),
            replications=2,
            seed=31415,
            lscv_sample_size=64,
            search=BandwidthSearch(grid=np.geomspace(0.05, 1.0, 6), refine=False),
        )
        defaults.update(kw)
        return StudyConfig(**defaults)

    def test_fully_deterministic(self):
        rows1 = run_study(self.small_config())
        rows2 = run_study(self.small_config())
        for a, b in zip(rows1, rows2):
            assert a.function == b.function
            assert a.n == b.n and a.method == b.method
            assert a.mean == b.mean and a.sd == b.sd
            assert a.median == b.median and a.iqr == b.iqr

    def test_rows_sorted_and_complete(self):
        rows = run_study(self.small_config(functions=("m4", "m1")))
        keys = [(r.function, r.n, r.method) for r in rows]
        assert keys == sorted(
            keys, key=lambda t: (t[0], t[1], {"GM": 0, "NW": 1, "LL": 2}[t[2]])
        )
        assert len(rows) == 6
        for r in rows:
            assert r.replications == 2
            assert r.failures == 0
            assert r.valid
            assert r.sd >= 0.0 and r.iqr >= 0.0

    def test_rows_report_gm_cells_short_of_tolerance(self):
        # GM, NW, LL rows; only GM integrates, so only GM can miss
        ok = run_study(self.small_config())
        short = run_study(self.small_config(cubature=CubatureConfig(max_subdivisions=1)))
        assert [r.converged for r in ok] == [True, True, True]
        assert [r.converged for r in short] == [False, True, True]

    def test_failed_replications_are_counted(self, monkeypatch):
        # m1/NW fails in both replications, m1/LL in the first only
        real = simulation._grid_criterion_values
        calls = []

        def failing(cfg, *args):
            values, converged = real(cfg, *args)
            values[("m1", "NW")][:] = np.inf
            if not calls:
                values[("m1", "LL")][:] = np.nan
            calls.append(1)
            return values, converged

        monkeypatch.setattr(simulation, "_grid_criterion_values", failing)
        cfg = self.small_config(functions=("m1",), methods=("NW", "LL"))
        nw, ll = run_study(cfg)
        assert (nw.replications, nw.failures, nw.valid) == (0, 2, False)
        assert all(np.isnan([nw.mean, nw.sd, nw.median, nw.iqr]))
        assert (ll.replications, ll.failures, ll.valid) == (1, 1, False)
        assert ll.sd == 0.0 and ll.iqr == 0.0 and ll.median == ll.mean > 0.0

    def test_scaled_reporting_times_1e7(self, mesh7):
        # with R=1 the row mean equals the raw selected-bandwidth ISE x 1e7
        cfg = self.small_config(
            functions=("m1",), k_values=(7,), methods=("NW",), replications=1
        )
        row = run_study(cfg)[0]
        sample_seq, noise_seq = (
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(7, 0)).spawn(2)
        )
        sample = uniform_simplex_sample(cfg.lscv_sample_size, sample_seq)
        design = generate_responses(target_function("m1"), mesh7, noise_seq)
        values = [
            lscv("NW", design, target_function("m1"), sample, b)
            for b in cfg.search.grid
        ]
        assert row.mean == pytest.approx(min(values) * 1e7, rel=1e-12)
        assert row.median == row.mean
        assert row.sd == 0.0

    def test_grid_values_equal_lscv_bit_for_bit(self, mesh7):
        # the study solves LL for all functions at once; each column must be
        # the value lscv gets for that function alone, fallbacks included
        cfg = self.small_config(
            functions=("m1", "m2", "m4"),
            k_values=(7,),
            methods=("NW", "LL"),
            search=BandwidthSearch(grid=np.geomspace(1e-3, 0.5, 5), refine=False),
        )
        sample = uniform_simplex_sample(200, 5)
        designs = {
            f: generate_responses(target_function(f), mesh7, 6) for f in cfg.functions
        }
        truths = {f: np.asarray(target_function(f)(sample)) for f in cfg.functions}
        values, _ = _grid_criterion_values(cfg, mesh7, None, sample, designs, truths)
        for (f, meth), curve in values.items():
            expected = [
                lscv(meth, designs[f], target_function(f), sample, b)
                for b in cfg.search.grid
            ]
            assert curve.tolist() == expected

    def test_refine_is_rejected(self):
        # the study selects on the grid only
        with pytest.raises(ValueError, match="grid only"):
            self.small_config(
                search=BandwidthSearch(grid=np.geomspace(1e-3, 1.0, 8), refine=True)
            )

    def test_bias_rate_matches_exact_smoothing_curve(self, mesh14, partition14):
        # for m5 at the centroid the smoothing bias is exactly g * b/(1+4b)
        # (kernel mean equals the centroid; only the variance term remains);
        # the mesh discretization adds O(n^-1/2) on top
        m5 = target_function("m5")
        s = np.array([[1 / 3, 1 / 3]])
        truth = np.asarray(m5(mesh14))
        g = bias_g(m5, s[0])
        for b in (0.05, 0.1, 0.2, 0.4):
            W, _ = gm_weight_matrix(partition14, b, s)
            bias = float(W[0] @ truth) - float(m5(s[0]))
            exact = g * b / (1.0 + 4.0 * b)
            assert bias == pytest.approx(exact, abs=0.02 * abs(exact) + 2e-3)


class TestCltStudy:
    def test_reports_cells_short_of_tolerance(self):
        # at b = 0.01 one subdivision already meets the GM floor in every
        # cell; at b = 0.005 the kernel is too peaked for that
        m5 = target_function("m5")
        ok = clt_study(m5, [1 / 3, 1 / 3], 28, 0.005, 20, seed=1)
        short = clt_study(
            m5, [1 / 3, 1 / 3], 28, 0.005, 20, seed=1,
            cfg=CubatureConfig(max_subdivisions=1),
        )
        assert ok.converged and not short.converged

    def test_requires_at_least_two_replications(self):
        with pytest.raises(ValueError):
            clt_study(target_function("m5"), [1 / 3, 1 / 3], 28, 0.2, 1, seed=1)

    def test_rejects_non_mesh_sample_sizes(self):
        with pytest.raises(ValueError):
            clt_study(target_function("m5"), [1 / 3, 1 / 3], 29, 0.2, 10, seed=1)

    def test_centering_and_determinism(self):
        result = clt_study(
            target_function("m5"), [1 / 3, 1 / 3], 28, 0.25, 64, seed=7, sigma=0.5
        )
        assert result.standardized.shape == (64,)
        assert result.standardized.mean() == pytest.approx(0.0, abs=1e-12)
        again = clt_study(
            target_function("m5"), [1 / 3, 1 / 3], 28, 0.25, 64, seed=7, sigma=0.5
        )
        assert np.array_equal(result.standardized, again.standardized)
        assert result.ks_statistic == again.ks_statistic
        assert 0.0 < result.ks_statistic < 1.0

    def test_ks_statistic_equals_scipy_kstest(self, rng):
        from scipy import stats

        for n in (2, 3, 17, 105, 600):
            for _ in range(5):
                z = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
                assert _ks_normal_statistic(z) == stats.kstest(z, "norm").statistic

    def test_recorded_clt_statistic(self):
        # the benchmark's CLT run; its statistic is pinned to the bit
        result = clt_study(target_function("m5"), [1 / 3, 1 / 3], 105, 0.2, 500, 20250808)
        assert result.ks_statistic == 0.07695946821639787
