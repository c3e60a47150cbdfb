"""Smoke runs of the repository benchmark's workloads.

Each test runs ``perfbench/run.py`` on one workload for one second, which
times one call and checks its outputs against ``perfbench/reference.json``:

* ``asymptotics`` runs ``mise_opt_bandwidth(m2)`` and ``clt_study(m5)``,
  once more traced to check the variance integral's cubature counters;
* ``fit`` runs one ``simplexreg fit`` command on the benchmark's soil CSV
  and checks ``b_hat``, the LOOCV value and the grid digest, once more
  traced (``--trace 1``) to check the tracer's local linear counters;
* ``study`` runs two replications of the m1/m2/m4 x k=7,10 x GM/NW/LL
  study and checks its rows and the GM row sums (about a minute).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name, *options):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seconds", "1", *options],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    assert last["attempted"] > 0
    assert last["failed"] == 0
    return last


def test_asymptotics_workload_reports_correct():
    run_workload("asymptotics")


def test_traced_asymptotics_counts_a_graded_variance_integral():
    # roots graded at the singularity's scale pass in one round of a few
    # hundred triangles (one psi_J call, and one more from clt_standardize),
    # where a centroid fan took ~6,670 triangles over 20 rounds
    metrics = run_workload("asymptotics", "--trace", "1")["metrics"]
    assert metrics["cubature.integrate_simplex.triangles"]["value"] < 1000
    assert metrics["asymptotics.psi_J.calls"]["value"] <= 4


def test_fit_workload_reports_correct():
    run_workload("fit")


def test_traced_fit_counts_the_local_linear_fallbacks():
    # the tracer wraps KernelWeights.ll; LOOCV and the grid fall back to NW
    # at 4 points for the benchmark's default seed
    metrics = run_workload("fit", "--trace", "1")["metrics"]
    assert metrics["estimators.KernelWeights.ll.calls"]["value"] > 0
    assert metrics["estimators.KernelWeights.ll.fallback_pts"]["value"] == 4


def test_study_workload_reports_correct():
    run_workload("study")
