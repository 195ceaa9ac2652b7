"""Steadiness check: run each workload several times and report the spread.

    python3 benchmarks/steady.py --runs 10 [--workload cells] [--baseline benchmarks/baseline.json]

Runs ``run.py`` once per seed (first seed, first seed + 1, ...) in fresh
processes, one after another.  For every metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is marked ``wide``,
above the bound ``OVER``.  ``--baseline`` writes the machine description,
every value, the medians and the quartiles to a JSON file, in its
``end_to_end`` section for ``--trace 0`` and ``per_layer`` for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "system": f"{platform.system()} {platform.release()}",
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", type=Path, help="write medians and quartiles here")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"failed={results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
        stats = {}
        print(f"\n{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values) | {"unit": first["unit"]}
            stats[name] = s
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "OVER" if s["spread"] > bound else "wide" if s["spread"] > bound / 3 else "ok"
            print(f"  {name:34} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '':>6} {mark}")
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": stats,
        }
        print(flush=True)
    if args.baseline:
        # one file holds both sections: --trace 0 fills end_to_end, --trace 1 per_layer
        data = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        data["machine"] = machine()
        data["seconds"] = spec["run_seconds"]
        data["per_layer" if args.trace else "end_to_end"] = {"seeds": seeds, "workloads": summary}
        args.baseline.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
