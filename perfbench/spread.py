#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a fejerlab checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads euclid-skm] \
        [--trace 0] [--out-prefix perfbench/baseline/set1-]

Each run measures ``run_seconds`` of ``BENCHMARK.json``.  The workloads
(default: all of ``BENCHMARK.json``) take turns seed by seed, so that a
slow phase of the machine spreads over all of them.  For every workload
and metric it prints the median over the seeds and the distance between
the first and third quartile (``statistics.quantiles(n=4)``) as a share of
the median, next to the metric's bound.  ``--out-prefix`` also writes every
run's result to ``<prefix><workload>.json``, which is how the recorded
baselines under ``perfbench/baseline/`` were made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    """What the figures were measured on."""
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float | None]:
    """(median, (q3 - q1) / median); the spread is None when undefined."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    status = "no result" if result is None else (
        f"correct={result['correct']} failed={result['failed']}/{result['attempted']}"
    )
    print(f"{workload} seed {seed}: rc={proc.returncode} {status} ({took:.1f} s)", flush=True)
    return {"seed": seed, "rc": proc.returncode, "run_s": took, "result": result}


def summarize(workload: str, runs: list[dict], bounds: dict) -> dict:
    results = [r["result"] for r in runs if r["result"] is not None]
    summary = {}
    if results:
        print(f"{workload}:")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            summary[name] = {"median": med, "iqr_over_median": rel}
            bound = bounds.get(name)
            flag = "" if bound is None or rel is None or rel < bound / 3 else "  <-- above bound/3"
            rel_text = "n/a" if rel is None else f"{rel:.4f}"
            print(f"  {name:48s} median {med:<14.6g} spread {rel_text} bound {bound}{flag}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-prefix", default=None, help="write <prefix><workload>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    runs: dict[str, list] = {name: [] for name in names}
    for seed in seed_list(args.seeds):
        for name in names:
            runs[name].append(run_once(bench, name, seed, args.trace))

    for name in names:
        summary = summarize(name, runs[name], bounds)
        if args.out_prefix:
            out = Path(f"{args.out_prefix}{name}.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({
                "workload": name,
                "machine": machine(),
                "seconds": bench["run_seconds"],
                "trace": args.trace,
                "runs": runs[name],
                "summary": summary,
            }, indent=1) + "\n")
    ok = all(r["result"] is not None and r["result"]["correct"] for rs in runs.values() for r in rs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
