"""tnnflag benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload shelling --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run sets up its items from the seed,
times them one after another in a single thread, then checks every output
against ``expected.json``.  It prints each metric as ``name value unit``
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over this process and ``SETUP_REPEATS`` fresh processes that only set up.
Every reported time is scaled to the reference host speed (see
``host_sample``); the raw times are printed on the lines before the result.

``--trace 1`` first runs the untraced benchmark in a fresh process, then
repeats the same items here with every traced function wrapped (see
``tracer.py``) and reports the per-layer metrics, the tracing overhead and
how much of the traced wall time the self times account for.  The spans go
to ``benchmarks/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 150
# the self times of all spans plus the harness's own time must cover at
# least this share of the traced wall time (the rest is loop bookkeeping)
MIN_ACCOUNTED = 0.9
# host_sample() on the reference machine (baseline.json), median over a minute
REFERENCE_SAMPLE_S = 0.00023


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("shelling", "intervals", "cells"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run length; item counts scale with it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the setup time and exit (used for setup_s)")
    return p.parse_args(argv)


def load_workloads():
    if not (SRC / "tnnflag" / "__init__.py").is_file():
        sys.exit(f"run.py: no tnnflag sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def kernel():
    """Fixed pure-Python work of the program's kind (tuple-keyed dict
    updates, integer arithmetic).  It calls no Python code the program also
    runs, so CPython's specialization of that code does not change its speed."""
    acc, total = {}, 0
    for i in range(400):
        key = (i % 17, i % 23)
        acc[key] = acc.get(key, 0) + i
        total += (i * 7 + 3) // (i % 5 + 1) - (i % 11)
    return len(acc), total


def host_sample() -> float:
    """Seconds a fixed pure-Python kernel takes now: median of three, with
    the collector off so that the program's heap does not slow it.

    The reference machine is shared and its speed drifts by up to a third
    over minutes, far more than the time bounds allow (README.md,
    "Steadiness").  Scaling a time by ``REFERENCE_SAMPLE_S / host_sample()``
    taken around it gives the time at the reference speed, which removes
    most of that drift.
    """
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def run_items(items, tracer=None):
    """Time every item, sampling the host speed before the first and after each.

    Returns (start, wall seconds without the samples, [(seconds, output,
    error)], [host samples]).
    """
    first = time.perf_counter()
    results, samples = [], [host_sample()]
    sampling = time.perf_counter() - first
    for idx, item in enumerate(items):
        fn = item.run if tracer is None else partial(tracer.root, idx, item.kind, item.run)
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a layer that raises fails the item, not the run
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append((t1 - t0, out, err))
        samples.append(host_sample())
        sampling += time.perf_counter() - t1
    return first, time.perf_counter() - first - sampling, results, samples


def item_scales(samples) -> list[float]:
    """Scale of each item's time to the reference speed, from the two host
    samples around it."""
    return [2 * REFERENCE_SAMPLE_S / (a + b) for a, b in zip(samples, samples[1:])]


def scaled_wall(wall, results, scales) -> float:
    """``wall`` at the reference speed: scaled by the time-weighted mean scale."""
    busy = sum(t for t, _, _ in results)
    return wall * sum(t * s for (t, _, _), s in zip(results, scales)) / busy


def check_items(items, results) -> list[tuple[str, str]]:
    """(key, reason) for every item whose run raised or whose output is wrong."""
    failures = []
    for item, (_, out, err) in zip(items, results):
        if err is None:
            try:
                err = item.check(out)
            except Exception as exc:  # a malformed output is a wrong output
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((item.key, err))
    return failures


def child_command(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def last_json_line(cmd) -> tuple[str, dict]:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_metrics(args, setup_s, wall, results, scales) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same metrics as measured)."""
    setups = [setup_s]
    for _ in range(SETUP_REPEATS):
        _, out = last_json_line(child_command(args, "--setup-only"))
        setups.append(out["setup_s"])
    raw_ms = [t * 1000 for t, _, _ in results]
    times_ms = [t * s for t, s in zip(raw_ms, scales)]
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": wall,
        "item_p50_ms": statistics.median(raw_ms),
        "item_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
    }
    return {
        "setup_s": (statistics.median(s * scale for s, scale in setups), "s"),
        "wall_s": (scaled_wall(wall, results, scales), "s"),
        "item_p50_ms": (statistics.median(times_ms), "ms"),
        "item_p90_ms": (statistics.quantiles(times_ms, n=10)[8], "ms"),
    }, raw


def traced_metrics(tracer, items, results, wall, scales, untraced_wall) -> dict:
    from tracer import function_names

    m = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.calls"] = (calls, "count")
    for name in function_names():
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    counts = {"nodes": 0, "cover_pairs": 0, "shelling_facets": 0, "shelling_attempts": 0}
    for item, (_, out, err) in zip(items, results):
        if err is None:
            for key, value in item.counts(out).items():
                counts[key] += value
    for key, value in counts.items():
        m[f"posets.{key}"] = (value, "count")
    attempts = counts["shelling_attempts"]
    m["posets.shelling_yield"] = (counts["shelling_facets"] / attempts if attempts else 0.0, "ratio")
    m["twisted.stratum_per_item"] = (tracer.calls["twisted.stratum"] / len(items), "count")
    layer_self = sum(tracer.self_s.values())
    m["trace.wall_s"] = (wall, "s")
    m["trace.harness_s"] = (tracer.harness_self_s, "s")
    m["trace.accounted_ratio"] = ((layer_self + tracer.harness_self_s) / wall, "ratio")
    m["trace.overhead_ratio"] = (scaled_wall(wall, results, scales) / untraced_wall, "ratio")
    return m


def report(metrics: dict, raw: dict, attempted: int, failures) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}" + (f" (measured {raw[name]})" if name in raw else ""))
    print(f"items {attempted}, failed {len(failures)}, "
          f"failed_ratio {len(failures) / attempted if attempted else 0.0}")
    for key, reason in failures[:10]:
        print(f"FAILED {key}: {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = load_workloads()
    items = wl.WORKLOADS[args.workload](args.seed, args.seconds, wl.load_expected())
    if args.setup_only:
        setup_s = time.perf_counter() - T_START
        print(json.dumps({"setup_s": [setup_s, REFERENCE_SAMPLE_S / host_sample()]}))
        return 0

    raw = {}
    if not args.trace:
        first, wall, results, samples = run_items(items)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_items(items, results)
        setup = [first - T_START, REFERENCE_SAMPLE_S / samples[0]]
        metrics, raw = untraced_metrics(args, setup, wall, results, item_scales(samples))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        correct = not failures
    else:
        from tracer import Tracer

        text, untraced = last_json_line(child_command(args, "--trace", "0"))
        print("".join(f"untraced: {line}\n" for line in text.strip().splitlines()[:-1]), end="")
        with Tracer() as tracer:
            _, wall, results, samples = run_items(items, tracer)
        failures = check_items(items, results)
        metrics = traced_metrics(tracer, items, results, wall, item_scales(samples),
                                 untraced["metrics"]["wall_s"]["value"])
        accounted = metrics["trace.accounted_ratio"][0]
        correct = not failures and untraced["correct"] and MIN_ACCOUNTED <= accounted <= 1 + 1e-9
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                           {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "items": len(items)})
    report(metrics, raw, len(items), failures)
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
