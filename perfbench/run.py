"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 10 --trace 0

Runs from the repository root, against the sources in ``src/``. Every run
starts fresh interpreters with the BLAS/OpenMP pools pinned to one thread.
Untraced (``--trace 0``), it times SETUP_SAMPLES set-ups, each from process
start to the worker's ``READY`` line, and reports their median as
``setup_s``; the last of them goes on to the measured run. Traced
(``--trace 1``), one worker reports the per-layer metrics. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy-train", "toy-eval", "tiny-train")
SETUP_SAMPLES = 3
# a run's deadline is TIMEOUT_S plus twice --seconds
TIMEOUT_S = 120.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def start_worker(args, deadline: float, setup_only: bool):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise SystemExit(f"worker did not become ready (exit code {proc.returncode})")
    return proc, ready_s


def finish(proc, deadline: float) -> str:
    """Wait for the worker and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker timed out")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "histadapter").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S + 2 * args.seconds
    setup_s = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        proc, ready_s = start_worker(args, deadline, setup_only=True)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise SystemExit(f"set-up worker failed with exit code {proc.returncode}")
        setup_s.append(ready_s)
    proc, ready_s = start_worker(args, deadline, setup_only=False)
    setup_s.append(ready_s)
    out = finish(proc, deadline)
    results = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    result = json.loads(results[-1][len("RESULT "):])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
