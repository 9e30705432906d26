"""Alternating A/B benchmark of this checkout against a parent revision.

    python3 tools/bench_pair.py --parent REV --tag TAG

Exports REV with ``git archive`` into ``runs/bench_pair/<rev>``. For each
workload of ``BENCHMARK.json`` and each of 10 seeds from 901 it runs
``perfbench/run.py`` for the benchmark's ``run_seconds`` once in the parent
tree and once in this checkout, and switches which tree goes first from
one seed to the next. It adds one traced run (seed 0), one
``tools/fingerprints.py`` run and one ``tools/step_peak.py`` measurement (the
tree's own helper, which runs the tree's own training step) per tree, then writes
``BENCH_<TAG>.json`` at the repository root.

The file keeps the schema of the earlier ``BENCH_*.json`` files for the
change (``untraced``, ``traced``, ``fingerprints``, ...), adds the same
record for the parent under ``parent``, and adds a ``summary``. For every
end-to-end metric of ``BENCHMARK.json`` the summary holds both trees'
quartiles, the pairs the change won, and the claim rule's verdict: a gain
needs at least 9 of 10 pairs won, at least 10 pairs, and a median shift
larger than the interquartile range of the parent's runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
FIRST_SEED = 901
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
CKPT_LINE = re.compile(r"^(\S+) seed (\d+): model\.ckpt sha256 ([0-9a-f]{64})$")


def quartiles(values) -> dict:
    """First quartile, median and third quartile (linear interpolation)."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def claim_holds(won: int, pairs: int, shift: float, parent_iqr: float) -> bool:
    """The claim rule: 9 of 10 pairs won, and the median moved by more than the parent's IQR."""
    return pairs >= CLAIM_MIN_PAIRS and won >= CLAIM_WIN_SHARE * pairs and shift > parent_iqr


def compare(pairs, better: str) -> dict:
    """Summary of one metric over (parent value, change value) pairs."""
    sign = 1.0 if better == "lower" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    won = sum(sign * (p - c) > 0 for p, c in pairs)
    shift = sign * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "ratio": change["median"] / parent["median"] if parent["median"] else None,
        "pairs": len(pairs),
        "won": won,
        "shift": shift,
        "parent_iqr": iqr,
        "claim": claim_holds(won, len(pairs), shift, iqr),
    }


def summarize(parent_runs, change_runs, end_to_end) -> dict:
    """Per-metric :func:`compare` over the runs both trees completed, paired by seed.

    A run is ``{"seed": S, "result": <the JSON line perfbench/run.py prints>}``;
    ``end_to_end`` is the list of that name in ``BENCHMARK.json``.
    """
    by_seed = {run["seed"]: run["result"] for run in parent_runs if "result" in run}
    matched = [(by_seed[run["seed"]], run["result"]) for run in change_runs
               if "result" in run and run["seed"] in by_seed]
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in matched if name in p["metrics"] and name in c["metrics"]]
        if pairs:
            out[name] = compare(pairs, metric["better"])
    out["failed_ops"] = {
        "parent": sum(p["failed"] for p, _ in matched),
        "change": sum(c["failed"] for _, c in matched),
        "incorrect_runs": sum(not (p["correct"] and c["correct"]) for p, c in matched),
    }
    return out


def export(rev: str) -> tuple:
    """Full commit id of ``rev`` and a fresh ``git archive`` of it under ``runs/``."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()
    dest = ROOT / "runs" / "bench_pair" / full[:12]
    if not (dest / "src").is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", full], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        dest.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return full, dest


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int, hashes: dict) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; records checkpoint hashes it reports."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    for line in proc.stderr.splitlines():
        match = CKPT_LINE.match(line.strip())
        if match:
            hashes[f"{match[1]} seed {match[2]}"] = match[3]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    return {"seed": seed, "result": json.loads(lines[-1])}


def fingerprints(tree: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(tree / "tools" / "fingerprints.py")], cwd=tree,
                          env=env, capture_output=True, text=True)
    return proc.stdout.strip().splitlines() if proc.returncode == 0 else \
        [f"error: {(proc.stderr.strip().splitlines() or ['no output'])[-1]}"]


def step_peak_mib(tree: Path) -> dict:
    """``{"toy": MiB, "tiny": MiB}`` from the tree's own ``tools/step_peak.py``."""
    code = "import json, step_peak; print(json.dumps(step_peak.step_peaks()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=str(tree / "tools")),
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(tree: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "histadapter").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]

    rev, parent_tree = export(args.parent)
    trees = {"parent": parent_tree, "change": ROOT}
    records = {name: {"src_lines": src_lines(tree), "model_ckpt_sha256": {},
                      "untraced": {}, "traced": {}} for name, tree in trees.items()}
    for workload in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                record = records[name]
                run = bench(trees[name], workload, seed, seconds, 0,
                            record["model_ckpt_sha256"])
                record["untraced"].setdefault(workload, []).append(run)
                print(f"{workload} seed {seed} {name}: {json.dumps(run)}", flush=True)
        for name, tree in trees.items():
            record = records[name]
            record["traced"][workload] = bench(tree, workload, 0, seconds, 1,
                                               record["model_ckpt_sha256"])
    for name, tree in trees.items():
        records[name]["fingerprints"] = fingerprints(tree)
        records[name]["step_peak_mib"] = step_peak_mib(tree)

    report = {
        "tag": args.tag,
        "host": f"{os.cpu_count()} vCPU {platform.system()} container, Python "
                f"{platform.python_version()}, numpy {np.__version__} (one BLAS thread, "
                "pinned by perfbench/run.py)",
        "how": {
            "untraced": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                        f"--trace 0; parent and change alternating which runs first, seeds "
                        f"{FIRST_SEED}-{FIRST_SEED + PAIRS - 1} per workload",
            "traced": f"python3 perfbench/run.py --workload W --seed 0 --seconds {seconds} "
                      "--trace 1",
            "src_lines": "lines of src/histadapter/*.py",
            "fingerprints": "PYTHONPATH=src python3 tools/fingerprints.py",
            "step_peak_mib": "step_peaks() of each tree's own tools/step_peak.py: "
                             "tracemalloc peak (MiB) of one TSR-on training step per recipe",
            "summary": "per end-to-end metric: quartiles of each tree's runs, pairs the change "
                       "won, and the claim rule (at least 9 of 10 pairs won, at least 10 pairs, "
                       "median shift larger than the parent's IQR)",
            "tool": "python3 tools/bench_pair.py --parent REV --tag TAG",
        },
        **records["change"],
        "parent": {"rev": rev, **records["parent"]},
        "summary": {w: summarize(records["parent"]["untraced"][w],
                                 records["change"]["untraced"][w], benchmark["end_to_end"])
                    for w in workloads},
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
