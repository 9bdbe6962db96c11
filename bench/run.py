"""Benchmark entry point.

    python3 bench/run.py --workload paper_mc --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout of oudesign; nothing needs to be
installed or built.  Each run starts fresh worker processes (worker.py)
with BLAS pinned to one thread and ``src`` on the import path:

* with ``--trace 0``: SETUP_PROBES workers that only set up, then one
  worker that sets up and runs the timed rounds.  ``setup_s`` is the
  median over all of them; the other end-to-end metrics come from the
  last worker.
* with ``--trace 1``: one worker with the tracer installed.  It reports
  the per-layer metrics and writes its spans to bench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
printing no result, when the program cannot be imported or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0  # a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))
WORKLOADS = ("paper_mc", "design_search", "large_design_mc")


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    return env


def _worker(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_worker_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker timed out: {' '.join(cmd)}")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "oudesign", "__init__.py")):
        raise SystemExit(f"no oudesign sources under {ROOT}/src: run from a source checkout")
    deadline = time.monotonic() + RUN_BUDGET_S

    timed = ["--seconds", str(args.seconds)]
    if args.trace:
        run = _worker(args, [*timed, "--trace", "1"], deadline)
        metrics = run["layers"]
        print(f"traced wall_s {run['wall_s']:.6f}; spans in {run['trace_file']}", file=sys.stderr)
    else:
        setups = [_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = _worker(args, timed, deadline)
        setups.append(run["setup_s"])
        run["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{args.workload}: {run['rounds']} rounds, {run['items']} items, "
          f"item_tail_ms is p{run['tail_percentile']}", file=sys.stderr)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
