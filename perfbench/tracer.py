"""Outside-in tracing of simplexreg's public functions.

Tracing rebinds public names in the modules that look them up at call time
(``simplexreg.simulation.gm_weight_matrix``, ``simplexreg.estimators.
integrate_polygon_batch``, ...) and restores them on exit, so the package
itself carries no instrumentation.  Private helpers and names the roadmap
plans to delete are never wrapped, so the trace keeps working after those
refactors land.

Each call becomes a span ``(name, start, end, parent)`` kept in memory; the
self time of a span is its duration minus the durations of its direct
children (calls are strictly nested: one thread, one caller).  Counters are
updated after a span closes, outside its timed interval.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Every span name the tracer can record; each gets ``.calls`` and ``.self_s``.
SPANS = (
    "cubature.integrate_polygon_batch",
    "cubature.graded_simplex_roots",
    "cubature.integrand",
    "cubature.integrate_simplex",
    "estimators.gm_weight_matrix",
    "estimators.KernelWeights.init",
    "estimators.KernelWeights.nw",
    "estimators.KernelWeights.ll",
    "bandwidth.loocv_ll",
    "bandwidth.select_loocv_ll",
    "bandwidth.lscv",
    "kernel.log_kappa_matrix",
    "geometry.voronoi_partition",
    "asymptotics.psi_J",
    "asymptotics.bias_g",
    "asymptotics.clt_standardize",
    "asymptotics.mise_constants",
    "asymptotics.mise_opt_bandwidth",
    "simulation.run_study",
    "simulation.generate_responses",
    "simulation.clt_study",
    "app.load_composition_csv",
    "app.fit_and_grid",
    "app.grid_csv_text",
    "cli.cli_main",
)

# Counters recorded at span boundaries (all start at zero).
COUNTERS = (
    "cubature.integrate_polygon_batch.triangles",
    "cubature.integrate_polygon_batch.nonconverged",
    "cubature.integrand.evals",
    "cubature.integrate_simplex.triangles",
    "estimators.gm_weight_matrix.rowsum_maxdev",
    "estimators.gm_weight_matrix.below_floor",
    "estimators.gm_weight_matrix.entries",
    "estimators.KernelWeights.ll.fallback_pts",
    "estimators.KernelWeights.ll.tensor_bytes",
    "estimators.KernelWeights.dead_pts",
    "kernel.log_kappa_matrix.entries",
    "simulation.failures",
    "app.load_composition_csv.dropped_rows",
    "app.grid.nonfinite",
)


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack = [-1]
        self.counters = defaultdict(int)

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs)``
        runs once the span has closed."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write_csv(self, path) -> None:
        """All spans, one per line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")

    # -- counters ---------------------------------------------------------

    def _add(self, key, value):
        self.counters[key] += value

    def _max(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def _after_gm(self, result, args, kwargs):
        from simplexreg.cubature import CubatureConfig

        W = result[0]
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        floor = (cfg or CubatureConfig()).absolute_floor
        self._max(
            "estimators.gm_weight_matrix.rowsum_maxdev",
            float(np.abs(W.sum(axis=1) - 1.0).max()),
        )
        self._add("estimators.gm_weight_matrix.below_floor", int((W < floor).sum()))
        self._add("estimators.gm_weight_matrix.entries", W.size)

    def _after_polygon_batch(self, result, args, kwargs):
        self._add("cubature.integrate_polygon_batch.triangles", result[3])
        self._add("cubature.integrate_polygon_batch.nonconverged", int(not result[2]))

    def _after_integrand(self, result, args, kwargs):
        columns = len(args[1]) if len(args) > 1 else np.shape(result)[1]
        self._add("cubature.integrand.evals", args[0].shape[0] * columns)

    def _traced_polygon_batch(self, fn):
        """``integrate_polygon_batch`` with its integrand argument traced."""

        def call(f_batch, *args, **kwargs):
            f = self.wrap("cubature.integrand", f_batch, self._after_integrand)
            return fn(f, *args, **kwargs)

        return self.wrap(
            "cubature.integrate_polygon_batch", call, self._after_polygon_batch
        )

    def _after_kw_init(self, result, args, kwargs):
        self._add("estimators.KernelWeights.dead_pts", int(args[0].dead.sum()))

    def _after_kw_ll(self, result, args, kwargs):
        kw = args[0]
        m, n = kw.w.shape
        self._add("estimators.KernelWeights.ll.fallback_pts", int(result[1].sum()))
        self._max(
            "estimators.KernelWeights.ll.tensor_bytes", m * n * (kw.X.shape[1] + 1) * 8
        )

    def _after_kappa(self, result, args, kwargs):
        self._add("kernel.log_kappa_matrix.entries", result.size)

    def after_study(self, result, args, kwargs):
        """Counter hook for the benchmark's own ``run_study`` span."""
        self._add("simulation.failures", sum(row.failures for row in result))

    def _after_csv(self, result, args, kwargs):
        self._add("app.load_composition_csv.dropped_rows", result.dropped_rows)

    def _after_fit(self, result, args, kwargs):
        bad = sum(not np.isfinite(row.estimate) for row in result.grid)
        self._add("app.grid.nonfinite", bad)

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        import simplexreg.app as app
        import simplexreg.asymptotics as asy
        import simplexreg.bandwidth as bw
        import simplexreg.cubature as cub
        import simplexreg.estimators as est
        import simplexreg.simulation as sim

        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        def add_triangles(result, args, kwargs):
            self._add("cubature.integrate_simplex.triangles", result.triangles)

        kw = est.KernelWeights
        plan = [
            (sim, "gm_weight_matrix", span("estimators.gm_weight_matrix", self._after_gm)),
            (est, "integrate_polygon_batch", self._traced_polygon_batch),
            (cub, "graded_simplex_roots", span("cubature.graded_simplex_roots")),
            (est, "log_kappa_matrix", span("kernel.log_kappa_matrix", self._after_kappa)),
            (bw, "log_kappa_matrix", span("kernel.log_kappa_matrix", self._after_kappa)),
            (asy, "psi_J", span("asymptotics.psi_J")),
            (asy, "bias_g", span("asymptotics.bias_g")),
            (asy, "integrate_simplex", span("cubature.integrate_simplex", add_triangles)),
            (asy, "mise_constants", span("asymptotics.mise_constants")),
            (sim, "clt_standardize", span("asymptotics.clt_standardize")),
            (sim, "lscv", span("bandwidth.lscv")),
            (bw, "lscv", span("bandwidth.lscv")),
            (sim, "voronoi_partition", span("geometry.voronoi_partition")),
            (sim, "generate_responses", span("simulation.generate_responses")),
            (app, "select_loocv_ll", span("bandwidth.select_loocv_ll")),
            (bw, "loocv_ll", span("bandwidth.loocv_ll")),
            (app, "load_composition_csv", span("app.load_composition_csv", self._after_csv)),
            (app, "fit_and_grid", span("app.fit_and_grid", self._after_fit)),
            (app, "grid_csv_text", span("app.grid_csv_text")),
            (kw, "__init__", span("estimators.KernelWeights.init", self._after_kw_init)),
            (kw, "nw", span("estimators.KernelWeights.nw")),
            (kw, "ll", span("estimators.KernelWeights.ll", self._after_kw_ll)),
        ]
        saved = []
        try:
            for owner, attr, make in plan:
                if attr not in owner.__dict__:
                    continue  # no longer looked up there, so never called there
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer ``(value, unit)``: calls, self seconds and counters,
        zero where a layer did not run."""
        calls, selfs = self.calls(), self.self_times()
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
        for key in COUNTERS:
            out[key] = (self.counters.get(key, 0), _counter_unit(key))
        entries = out.pop("estimators.gm_weight_matrix.entries")[0]
        below = out.pop("estimators.gm_weight_matrix.below_floor")[0]
        frac = below / entries if entries else 0.0
        out["estimators.gm_weight_matrix.below_floor_frac"] = (frac, "1")
        out["trace.self_sum_s"] = (sum(selfs.values()), "s")
        return out


def _counter_unit(key: str) -> str:
    if key.endswith("rowsum_maxdev"):
        return "1"
    if key.endswith("_bytes"):
        return "B"
    return "count"
