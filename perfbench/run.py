"""simplexreg benchmark: study, fit and asymptotics workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 20250808 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # the three, one after another

Each workload runs in its own process with BLAS pinned to one thread.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "fit", "asymptotics")
CHILD_TIMEOUT_S = 175
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[int, str]:
    """Run one workload in a fresh interpreter; return its exit code and stdout."""
    env = dict(os.environ, **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "workloads.py")]
    cmd += [name, str(seed), str(seconds), str(trace)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        print(f"workload {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=20250808)
    parser.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "simplexreg" / "__init__.py").is_file():
        print(f"no simplexreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, out = run_workload(name, args.seed, args.seconds, args.trace)
        if code != 0 or not out.strip():
            sys.stdout.write(out)
            print(f"workload {name} exited with code {code}", file=sys.stderr)
            return code or 3
        *lines, last = out.strip().splitlines()
        if len(names) == 1:
            sys.stdout.write(out)
            return 0
        print("\n".join(lines))
        results[name] = json.loads(last)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{key}": value
                    for name, r in results.items()
                    for key, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
