"""Smoke run of the repository benchmark's asymptotics workload.

Runs ``perfbench/run.py`` for one second, which executes
``mise_opt_bandwidth(m2)`` and ``clt_study(m5)`` once and checks their
outputs against ``perfbench/reference.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_asymptotics_workload_reports_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "asymptotics", "--seconds", "1"],
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
