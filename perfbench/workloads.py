"""One benchmark workload in its own process; started by ``run.py``.

Usage: python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE

Closed loop, one caller: each timed operation starts when the previous one
has returned.  With TRACE=0 the operation repeats until SECONDS of timed
work have passed (at least once), and the end-to-end metrics are printed;
their times are CPU seconds of this process (see ``Clock``).
With TRACE=1 the operation runs once untraced and once traced, so per-layer
counts repeat exactly and the tracing overhead is measured on identical
work.  The last line of standard
output is the JSON result.
"""

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import simplexreg  # noqa: E402
from simplexreg.asymptotics import mise_opt_bandwidth, uniform_profile  # noqa: E402
from simplexreg.bandwidth import default_grid  # noqa: E402
from simplexreg.cli import cli_main  # noqa: E402
from simplexreg.cubature import CubatureConfig  # noqa: E402
from simplexreg.estimators import gm_weight_matrix  # noqa: E402
from simplexreg.geometry import (  # noqa: E402
    mesh_design_points,
    uniform_simplex_sample,
    voronoi_partition,
)
from simplexreg.simulation import (  # noqa: E402
    StudyConfig,
    clt_study,
    run_study,
    target_function,
)

IMPORT_S = time.perf_counter() - _T0
IMPORT_CPU_S = time.process_time() - _C0

from inputs import SOIL_ROWS, soil_csv_text  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_TRIALS = 3
STUDY_REPLICATIONS = 2  # the second replication is where cross-replication caching shows
FIT_GRID_RESOLUTION = 100
GM_CHECK_K = 10
GM_CHECK_POINTS = 1000
GM_CHECK_GRID_INDICES = (0, 24)  # the smallest grid bandwidth and b ~ 0.07
GM_ROWSUM_TOLERANCE = 10 * CubatureConfig().relative_tolerance


class Tally:
    """Operations attempted and failed, plus named pass/fail checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines = []

    def ops(self, attempted, failed=0):
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, label, ok, detail=""):
        self.ops(1, not ok)
        self.lines.append(f"check {label}: {'ok' if ok else 'FAIL'} {detail}".rstrip())


def within(actual, spec) -> bool:
    tol = max(spec.get("atol", 0.0), spec.get("rtol", 0.0) * abs(spec["value"]))
    return bool(np.isfinite(actual)) and abs(actual - spec["value"]) <= tol


def check_reference(tally, workload, seed, fingerprint):
    """Compare against the reference values recorded from the initial code."""
    ref = json.loads((HERE / "reference.json").read_text())
    for key, spec in ref["workloads"][workload].items():
        if seed != ref["seed"] and not spec.get("any_seed", False):
            continue
        actual = fingerprint.get(key, float("nan"))
        detail = f"{actual!r} vs {spec['value']!r}"
        tally.check(f"reference {key}", within(actual, spec), detail)


def _values(rows):
    """Study rows without their wall-clock field."""
    return [dataclasses.replace(row, elapsed_seconds=0.0) for row in rows]


class Study:
    """The acceptance-suite study configuration as one ``run_study`` call."""

    entries = {"run_study": ("simulation.run_study", run_study)}

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.cfg = StudyConfig(
            functions=("m1", "m2", "m4"),
            k_values=(7, 10),
            methods=("GM", "NW", "LL"),
            replications=STUDY_REPLICATIONS,
            seed=self.seed,
        )
        self.partition = voronoi_partition(mesh_design_points(GM_CHECK_K))
        self.sample = uniform_simplex_sample(
            GM_CHECK_POINTS, np.random.SeedSequence(entropy=self.seed, spawn_key=(2,))
        )

    def unit(self, fn):
        with Clock() as clock:
            rows = fn["run_study"](self.cfg)
        return {**clock.spent, "ops": STUDY_REPLICATIONS, "rows": rows}

    def times(self, results):
        return {"rep_s": median_op_s(results, "wall_s")}

    def finish(self, results, tally, lines):
        for res in results:
            tally.ops(
                len(res["rows"]) * STUDY_REPLICATIONS,
                sum(row.failures for row in res["rows"]),
            )
        rows = results[0]["rows"]
        tally.check(
            "rows repeat across calls",
            all(_values(r["rows"]) == _values(rows) for r in results),
        )
        # untimed: GM row sums on the k=10 partition; the cells partition the
        # simplex, so each row of W integrates the kernel to exactly 1
        grid = default_grid()
        maxdev = 0.0
        for i in GM_CHECK_GRID_INDICES:
            W, _ = gm_weight_matrix(self.partition, grid[i], self.sample)
            maxdev = max(maxdev, float(np.abs(W.sum(axis=1) - 1.0).max()))
        lines.append(f"gm_rowsum_maxdev {maxdev:.6g} 1")
        tally.check(
            "gm row sums",
            maxdev <= GM_ROWSUM_TOLERANCE,
            f"max |row sum - 1| = {maxdev:.3g} (gate {GM_ROWSUM_TOLERANCE:g})",
        )
        fingerprint = {}
        for row in rows:
            for stat in ("mean", "median"):
                key = f"{row.function}.n{row.n}.{row.method}.{stat}"
                fingerprint[key] = getattr(row, stat)
        return fingerprint


class Fit:
    """``simplexreg fit`` in-process, from the CSV on disk to the grid on disk."""

    entries = {"cli_main": ("cli.cli_main", cli_main)}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.csv = workdir / "soil.csv"
        self.grid = workdir / "grid.csv"

    def setup(self):
        text, self.missing = soil_csv_text(self.seed)
        self.csv.write_text(text)

    def unit(self, fn):
        argv = [
            "fit",
            "--input", str(self.csv),
            "--out", str(self.grid),
            "--grid-resolution", str(FIT_GRID_RESOLUTION),
        ]
        printed = io.StringIO()
        with Clock() as clock, redirect_stdout(printed):
            code = fn["cli_main"](argv)
        res = {**clock.spent, "ops": 1, "code": code}
        if code == 0:
            res["payload"] = json.loads(printed.getvalue().splitlines()[-1])
            lines = self.grid.read_text().splitlines()[1:]
            res["estimates"] = np.array([float(line.split(",")[3]) for line in lines])
        return res

    def times(self, results):
        return {"fit_s": median_op_s(results, "wall_s")}

    def finish(self, results, tally, lines):
        expected_points = (FIT_GRID_RESOLUTION + 1) * (FIT_GRID_RESOLUTION + 2) // 2
        for res in results:
            est = res.get("estimates", np.empty(0))
            tally.ops(1, res["code"] != 0)
            tally.ops(expected_points, expected_points - int(np.isfinite(est).sum()))
        ok = [r for r in results if r["code"] == 0]
        if not ok:
            return {}
        payload, est = ok[0]["payload"], ok[0]["estimates"]
        tally.check(
            "dropped rows",
            payload["dropped_rows"] == self.missing
            and payload["n"] == SOIL_ROWS - self.missing,
            f"{payload['dropped_rows']} dropped, {payload['n']} kept",
        )
        tally.check("grid points", payload["grid_points"] == expected_points == est.size)
        tally.check(
            "fit repeats across calls",
            all(
                r["payload"] == payload and np.array_equal(r["estimates"], est)
                for r in ok
            ),
        )
        return {
            "b_hat": payload["b_hat"],
            "loocv": payload["loocv"],
            "grid.mean": float(np.mean(est)),
            "grid.std": float(np.std(est)),
            "grid.min": float(np.min(est)),
            "grid.max": float(np.max(est)),
        }


class Asymptotics:
    """``mise_opt_bandwidth`` for m2 followed by ``clt_study`` for m5."""

    entries = {
        "mise_opt_bandwidth": ("asymptotics.mise_opt_bandwidth", mise_opt_bandwidth),
        "clt_study": ("simulation.clt_study", clt_study),
    }

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.m2, self.m5 = target_function("m2"), target_function("m5")
        self.profile = uniform_profile(1.0)

    def unit(self, fn):
        with Clock() as mise_clock:
            mise = fn["mise_opt_bandwidth"](self.m2, self.profile)
        with Clock() as clt_clock:
            clt = fn["clt_study"](self.m5, [1 / 3, 1 / 3], 105, 0.2, 500, self.seed)
        mise_spent, clt_spent = mise_clock.spent, clt_clock.spent
        return {
            **{k: mise_spent[k] + clt_spent[k] for k in mise_spent},
            "ops": 1,
            "mise_s": mise_spent["wall_s"],
            "clt_s": clt_spent["wall_s"],
            "mise": mise,
            "ks": clt.ks_statistic,
        }

    def times(self, results):
        return {k: statistics.median(r[k] for r in results) for k in ("mise_s", "clt_s")}

    def finish(self, results, tally, lines):
        for res in results:
            b_opt, value = res["mise"]
            tally.ops(1, not (np.isfinite(b_opt) and b_opt > 0 and np.isfinite(value)))
            tally.ops(1, not 0.0 < res["ks"] < 1.0)
        first = results[0]
        tally.check(
            "asymptotics repeat across calls",
            all(r["mise"] == first["mise"] and r["ks"] == first["ks"] for r in results),
        )
        return {
            "mise.b_opt": first["mise"][0],
            "mise.value": first["mise"][1],
            "clt.ks_statistic": first["ks"],
        }


WORKLOADS = {"study": Study, "fit": Fit, "asymptotics": Asymptotics}


def blas_threads() -> str:
    """Threads the loaded OpenBLAS libraries report, read through ctypes."""
    found = []
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower()}
            )
    except OSError:
        paths = []
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                found.append(f"{Path(path).name}={getter()}")
                break
    env = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"{','.join(found) or 'unknown'} (OPENBLAS_NUM_THREADS={env})"


def machine_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_line() -> str:
    return (
        f"env blas_threads={blas_threads()} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} "
        f"machine={machine_model()!r}"
    )


class Clock:
    """Wall and CPU seconds spent inside a ``with`` block.

    ``cpu_s`` is the user plus system time of this process.  The workloads
    are single-threaded (one caller, BLAS pinned to one thread), so it is
    the time the program itself ran; unlike wall time it leaves out the time
    a shared host's hypervisor gave the CPU to other guests (steal time).
    """

    def __enter__(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.spent = {
            "wall_s": time.perf_counter() - self._wall,
            "cpu_s": time.process_time() - self._cpu,
        }


def median_op_s(results, key):
    """Median over the timed calls of seconds per operation."""
    return statistics.median(r[key] / r["ops"] for r in results)


def time_units(workload, fn, seconds, once):
    results, spent = [], 0.0
    while not results or (not once and spent < seconds):
        res = workload.unit(fn)
        results.append(res)
        spent += res["wall_s"]
    return results


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    src = Path(simplexreg.__file__).resolve().parent
    if src != ROOT / "src" / "simplexreg":
        print(f"simplexreg imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    lines = [
        f"workload {name} seed={seed} seconds={seconds} trace={int(trace)}",
        environment_line(),
    ]
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        plain = {key: fn for key, (_, fn) in workload.entries.items()}
        setup_times = []
        for _ in range(1 if trace else SETUP_TRIALS):
            with Clock() as clock:
                workload.setup()
            setup_times.append(clock.spent["cpu_s"])
        setup_s = IMPORT_CPU_S + statistics.median(setup_times)

        if not trace:
            results = timed = time_units(workload, plain, seconds, once=False)
            op_cpu_s = median_op_s(results, "cpu_s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_cpu_s": (op_cpu_s, "s"),
                "peak_rss_mib": (peak, "MiB"),
            }
            lines.append(
                f"setup_s          {setup_s:.4f} s CPU "
                f"(import {IMPORT_CPU_S:.4f} s CPU, {IMPORT_S:.4f} s wall)"
            )
            for key, label in (("cpu_s", "CPU"), ("wall_s", "wall")):
                each = " ".join(f"{r[key]:.3f}" for r in results)
                lines.append(f"  {len(results)} calls, {label}: {each} s")
            lines.append(f"op_cpu_s         {op_cpu_s:.4f} s")
            lines.append(f"peak_rss_mib     {peak:.1f} MiB")
        else:
            untraced = timed = time_units(workload, plain, seconds, once=True)
            tracer = Tracer()
            after = {"run_study": tracer.after_study}
            traced_fn = {
                key: tracer.wrap(span, fn, after.get(key))
                for key, (span, fn) in workload.entries.items()
            }
            with tracer.installed():
                traced = time_units(workload, traced_fn, seconds, once=True)
            results = untraced + traced
            untraced_s = sum(r["wall_s"] for r in untraced)
            traced_s = sum(r["wall_s"] for r in traced)
            metrics = tracer.metrics()
            metrics["trace.untraced_s"] = (untraced_s, "s")
            metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "1")
            trace_csv = out_dir / f"trace_{name}.csv"
            tracer.write_csv(trace_csv)
            where = trace_csv.relative_to(ROOT)
            lines.append(f"trace {len(tracer.spans)} spans written to {where}")

        for key, value in workload.times(timed).items():
            lines.append(f"{key:<16} {value:.4f} s wall (median)")
        fingerprint = workload.finish(results, tally, lines)
        check_reference(tally, name, seed, fingerprint)
    lines.append("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    lines.extend(tally.lines)
    frac = tally.failed / tally.attempted
    counts = f"{tally.failed} failed / {tally.attempted} attempted"
    lines.append(f"failed_frac      {frac:.6g} 1 ({counts})")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
