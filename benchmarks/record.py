"""Record the input pools and output invariants in ``expected.json``.

Run once, at the commit whose outputs are taken as correct:

    python3 benchmarks/record.py

It builds every interval and computes every cell point the workloads can
draw, which takes a few minutes.  The benchmark compares each run's
outputs with this file; a later change must leave it untouched, because
the recorded values are mathematical invariants of the inputs.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tnnflag import posets, twisted, verify  # noqa: E402
from tnnflag.weyl import type_a_group  # noqa: E402

import workloads as wl  # noqa: E402

# fixed, independent of any run's seed: the pools are part of the benchmark
POOL_SEED = "tnnflag-benchmark-pools"
VARIANTS = 4
# pool sizes for the cell groups too large to take whole
POOL_SIZES = {
    ("construct", 4, 1): 16,
    ("construct", 4, 2): 16,
    ("construct", 5, 1): 12,
    ("construct", 6, 1): 12,
    ("double-bruhat", 4, 1): 16,
    ("double-bruhat", 5, 1): 12,
    ("double-bruhat", 6, 1): 40,
}


def ensure(ok: bool, what: str) -> None:
    """Refuse to record an output the acceptance criteria would reject."""
    if not ok:
        raise RuntimeError(f"not recorded: {what}")


def interval_record(top, facets: bool) -> dict:
    poset = posets.build_interval(top)
    ensure(posets.is_pure(poset) and posets.is_thin(poset) and posets.is_eulerian(poset),
           f"{top.describe()} is not pure, thin and Eulerian")
    chi = posets.open_boundary_euler(poset)
    # the open boundary of a regular CW ball of dimension r - 1 is a sphere
    ensure(chi == 1 + (-1) ** (top.rank - 1), f"{top.describe()} boundary Euler characteristic")
    rec = {
        "nodes": len(poset.nodes),
        "covers": len(poset.covers),
        "f_vector": list(poset.f_vector()),
        "chi": chi,
    }
    if facets:
        rec["facets"] = len(posets.maximal_chains(poset))
    return rec


def sample_strata(k: int, n: int, size: int, rng: random.Random):
    """``size`` distinct strata: random factors, then a random v below them."""
    group = type_a_group(k)
    elems = group.elements_up_to_length(k * (k - 1) // 2)
    out = {}
    while len(out) < size:
        wbar = tuple(rng.choice(elems) for _ in range(n))
        v = rng.choice(group.lower_interval(group.m_star(wbar)))
        out.setdefault((v, wbar), None)
    return list(out)


def construct_entry(v, wbar, rng) -> dict:
    dim = sum(w.length for w in wbar) - v.length
    variants = []
    for _ in range(VARIANTS):
        params = twisted.random_params(dim, rng)
        z, label, image, involution = wl.run_construct(v, wbar, params)
        ensure(label == (v, wbar) and involution, f"cell point of {v!r}, {wbar!r}")
        variants.append({
            "params": [str(p) for p in params],
            "z": [wl.digest(g) for g in z.factors],
            "phi": [wl.digest(g) for g in image.factors],
        })
    return {
        "label": f"({v.describe()} ; {','.join(w.describe() for w in wbar)})",
        "v": list(v.word),
        "wbar": [list(w.word) for w in wbar],
        "variants": variants,
    }


def double_bruhat_entry(k, v, w, rng) -> dict:
    group = type_a_group(k)
    variants = []
    for _ in range(VARIANTS):
        params = twisted.random_params(v.length + w.length, rng)
        g, label = wl.run_double_bruhat(k, v, w, params)
        ensure(label == twisted.db_stratum_convention(group, v, w), f"double Bruhat {v!r}, {w!r}")
        variants.append({"params": [str(p) for p in params], "g": wl.digest(g)})
    return {
        "label": f"({v.describe()} ; {w.describe()})",
        "v": list(v.word),
        "w": list(w.word),
        "variants": variants,
    }


def cell_pools() -> dict:
    rng = random.Random(POOL_SEED)
    pools = {}
    for kind, k, n, _ in wl.CELL_GROUPS:
        if kind == "identify":
            continue
        size = POOL_SIZES.get((kind, k, n))
        group = type_a_group(k)
        if kind == "construct":
            if size is None:
                chosen = [(q.v, q.wbar) for q in verify.iter_qnodes(group, n)]
            else:
                chosen = sample_strata(k, n, size, rng)
            entries = [construct_entry(v, wbar, rng) for v, wbar in chosen]
        else:
            elems = group.elements_up_to_length(k * (k - 1) // 2)
            pairs = [(v, w) for v in elems for w in elems]
            chosen = pairs if size is None else rng.sample(pairs, size)
            entries = [double_bruhat_entry(k, v, w, rng) for v, w in chosen]
        pools[wl.pool_name(kind, k, n)] = entries
        print(f"{wl.pool_name(kind, k, n)}: {len(entries)} entries", flush=True)
    return pools


def write_expected(data: dict) -> None:
    """JSON with one pool entry per line, so a diff shows which entry moved."""
    lines = ["{"]
    for i, (section, body) in enumerate(sorted(data.items())):
        comma = "," if i < len(data) - 1 else ""
        if not isinstance(body, dict):
            lines.append(f" {json.dumps(section)}: {json.dumps(body)}{comma}")
            continue
        lines.append(f" {json.dumps(section)}: {{")
        for j, (key, value) in enumerate(sorted(body.items())):
            inner = "," if j < len(body) - 1 else ""
            if isinstance(value, list):
                entries = ",\n".join(f"  {json.dumps(e, sort_keys=True)}" for e in value)
                lines.append(f"  {json.dumps(key)}: [\n{entries}\n  ]{inner}")
            else:
                lines.append(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}{inner}")
        lines.append(f" }}{comma}")
    lines.append("}")
    wl.EXPECTED.write_text("\n".join(lines) + "\n")


def main() -> None:
    t0 = time.perf_counter()
    shelling = {key: interval_record(top, facets=True) for key, top in wl.hatq_tops()}
    print(f"shelling: {len(shelling)} tops", flush=True)
    intervals = {}
    for name in wl.INTERVAL_FAMILIES:
        for key, top in wl.interval_pool(name):
            intervals[key] = interval_record(top, facets=False)
        print(f"intervals: {name} done", flush=True)
    out = {
        "pool_seed": POOL_SEED,
        "shelling": shelling,
        "intervals": intervals,
        "cells": cell_pools(),
    }
    write_expected(out)
    print(f"wrote {wl.EXPECTED.name} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
