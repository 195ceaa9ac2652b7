"""Tests of the benchmark itself: its checks catch wrong outputs, its tracer
computes self time correctly, and its result line matches BENCHMARK.json.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tnnflag import posets, twisted  # noqa: E402
from tracer import Tracer, function_names  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return wl.load_expected()


def failures_of(items):
    _, _, results, _ = run.run_items(items)
    return run.check_items(items, results)


def shelling_sample(expected, min_rank=3, count=6):
    items = wl.shelling_items(seed=3, seconds=1, expected=expected)
    ranks = {key: top.rank for key, top in wl.hatq_tops()}
    return [it for it in items if ranks[it.key] >= min_rank][:count]


def cell_sample(expected, kind):
    items = wl.cell_items(seed=3, seconds=1, expected=expected)
    return [it for it in items if it.kind == kind and " k=3 " in it.key]


def test_workloads_pass_their_own_checks(expected):
    items = shelling_sample(expected) + cell_sample(expected, "construct")
    items += cell_sample(expected, "identify") + cell_sample(expected, "double-bruhat")
    assert items and failures_of(items) == []


def test_same_seed_same_inputs(expected):
    for make in wl.WORKLOADS.values():
        if make is wl.interval_items:
            continue  # builds large intervals; covered by the stratified draw below
        a = [it.key for it in make(7, 1, expected)]
        assert a == [it.key for it in make(7, 1, expected)]
        assert a != [it.key for it in make(8, 1, expected)]


def test_stratified_draw_keeps_the_largest_and_one_per_bin():
    pool = list(range(20))
    picks = wl.stratified(pool, 5)
    assert picks[0] == 19
    # the other 19 entries fall into 4 runs: [0, 4), [4, 9), [9, 14), [14, 19)
    assert all(19 * b // 4 <= p < 19 * (b + 1) // 4 for b, p in enumerate(picks[1:]))
    assert sorted(wl.stratified(pool, 50)) == pool


def test_cell_picks_take_the_same_entries_for_every_seed():
    import random

    entries = [{"label": str(i), "variants": [0, 1, 2, 3]} for i in range(10)]
    for count in (4, 10, 25):
        runs = [wl.cell_picks(entries, count, random.Random(seed)) for seed in range(4)]
        labels = {tuple(e["label"] for e, _ in picks) for picks in runs}
        assert len(labels) == 1 and len(runs[0]) == count
        for picks in runs:
            assert len({(e["label"], v) for e, v in picks}) == count
    assert len(wl.cell_picks(entries, 99, random.Random(0))) == 40


def test_wrong_shelling_order_counts_as_failed(expected, monkeypatch):
    items = shelling_sample(expected)
    real = posets.find_shelling

    def non_shelling_order(poset, budget=posets.DEFAULT_SHELLING_BUDGET):
        res = real(poset, budget)
        first = set(res.order[0])
        # the facet meeting the first one least cannot come second
        far = min(res.order[1:], key=lambda f: len(first & set(f)))
        rest = [f for f in res.order[1:] if f != far]
        return replace(res, order=[res.order[0], far, *rest])

    monkeypatch.setattr(posets, "find_shelling", non_shelling_order)
    failures = failures_of(items)
    assert len(failures) == len(items)
    assert all("not a shelling" in reason for _, reason in failures)


def test_dropped_facet_counts_as_failed(expected, monkeypatch):
    items = shelling_sample(expected)
    real = posets.find_shelling
    monkeypatch.setattr(posets, "find_shelling",
                        lambda poset, budget=posets.DEFAULT_SHELLING_BUDGET:
                        replace(real(poset, budget), order=real(poset, budget).order[:-1]))
    assert len(failures_of(items)) == len(items)


def test_inconclusive_shelling_counts_as_failed(expected, monkeypatch):
    items = shelling_sample(expected)
    real = posets.find_shelling
    monkeypatch.setattr(posets, "find_shelling", lambda poset, budget=None: real(poset, 0))
    failures = failures_of(items)
    assert len(failures) == len(items)
    assert all("inconclusive" in reason for _, reason in failures)


def test_wrong_matrix_counts_as_failed(expected, monkeypatch):
    items = cell_sample(expected, "double-bruhat")
    real = twisted.db_positive

    def bumped(*args):
        g = real(*args)
        return ((g[0][0] * 2,) + g[0][1:],) + g[1:]

    monkeypatch.setattr(twisted, "db_positive", bumped)
    failures = failures_of(items)
    assert len(failures) == len(items)


def test_wrong_stratum_counts_as_failed(expected, monkeypatch):
    items = cell_sample(expected, "identify") + cell_sample(expected, "construct")
    real = twisted.stratum

    def shifted(z):
        v, wbar = real(z)
        return v.group.multiply(v, v.group.simple(0)), wbar

    monkeypatch.setattr(twisted, "stratum", shifted)
    assert len(failures_of(items)) == len(items)


def test_raising_layer_counts_as_failed(expected, monkeypatch):
    items = cell_sample(expected, "identify")

    def broken(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(twisted, "gauge_eq", broken)
    failures = failures_of(items)
    assert len(failures) == len(items)
    assert all("injected" in reason for _, reason in failures)


def test_tracer_self_time_with_recursion(expected):
    items = shelling_sample(expected, min_rank=4, count=2)
    originals = (posets.mobius, posets.FacePoset.__dict__["covers"], twisted.from_perm)
    with Tracer() as tracer:
        assert posets.mobius is not originals[0]
        assert twisted.from_perm is not originals[2]
        _, wall, results, _ = run.run_items(items, tracer)
    assert (posets.mobius, posets.FacePoset.__dict__["covers"], twisted.from_perm) == originals
    assert all(err is None for _, _, err in results)
    # recursion: mobius calls itself, bruhat_leq calls itself
    assert tracer.calls["posets.mobius"] > tracer.calls["posets.is_eulerian"]
    assert tracer.calls["weyl.bruhat_leq"] > tracer.calls["posets.qnode_leq"]
    item_total = sum(t for t, _, _ in results)
    accounted = sum(tracer.self_s.values()) + tracer.harness_self_s
    assert accounted <= item_total * (1 + 1e-9)
    assert accounted >= 0.9 * wall
    assert min(tracer.self_s[n] for n in function_names() if tracer.calls[n]) >= 0
    # spans: one root per item, every recorded parent is a recorded span
    ids = {s[1] for s in tracer.spans}
    assert sum(1 for s in tracer.spans if s[2] == 0) == len(items)
    assert all(s[2] == 0 or s[2] in ids for s in tracer.spans)


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cells", "--seed", "2",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "shelling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
