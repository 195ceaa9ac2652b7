"""The benchmark in ``benchmarks/`` still runs against the package.

The tracer wraps named functions of every layer and fails on entry when
one of them is gone; the cells and shelling workloads call the exact-matrix
and poset APIs and check each output against its recorded invariants.
These tests only read ``benchmarks/``.
"""

import sys
from pathlib import Path

from tnnflag import posets, slk

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_traced_cells_items_are_correct():
    items = workloads.cell_items(seed=1, seconds=0.01, expected=workloads.load_expected())
    assert len(items) == 11
    original = slk.bruhat_cell
    with Tracer() as tracer:
        outputs = [tracer.root(idx, item.kind, item.run) for idx, item in enumerate(items)]
    assert slk.bruhat_cell is original
    # the chart checks its factors' opposite cells through the kernel
    # slk._opposite_cell, so the public readers see no call from this
    # workload; is_tnn, called inside the package by db_positive, shows that
    # the wrappers see calls made inside the package
    assert tracer.calls["slk.bruhat_cell"] == tracer.calls["slk.opposite_cell"] == 0
    assert tracer.calls["slk.is_tnn"] > 0
    for item, out in zip(items, outputs):
        assert item.check(out) is None, item.key


def test_traced_shelling_items_are_correct():
    items = workloads.shelling_items(seed=1, seconds=0.01, expected=workloads.load_expected())
    assert len(items) == 217
    original = posets.mobius
    with Tracer() as tracer:
        outputs = [tracer.root(idx, item.kind, item.run) for idx, item in enumerate(items)]
    assert posets.mobius is original
    assert tracer.calls["posets.find_shelling"] > 0
    # the boundary takes mu(0^, top) from the Eulerian verdict, which every
    # item asks for first, so no item walks mobius
    assert tracer.calls["posets.mobius"] == 0
    assert tracer.calls["posets.open_boundary_euler"] == len(items)
    for item, out in zip(items, outputs):
        assert item.check(out) is None, item.key
