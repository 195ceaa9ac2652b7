"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one line `ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>s)`.
Runtime limits follow the stated budgets; all arithmetic is exact, so
every comparison is equality (tolerance zero) unless a limit is named.

Every report also equals, apart from its timing, the one recorded in
``data/verify_reports.json`` by ``tnnflag verify <suite>`` (default seed
and budget), so a speedup that changes any check result fails here.
"""

import json
import time
from pathlib import Path

from tnnflag import verify

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_reports.json").read_text())


def _matches_golden(report):
    """The report's JSON without ``elapsed_s`` equals the recorded one."""
    got = report.to_json()
    del got["elapsed_s"]
    suite = got["command"].removeprefix("verify ")
    assert got == GOLDEN[suite], f"{suite} report differs from the recorded one"


def _report_line(num, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s)")


def _run(num, name, suite, limit, **kwargs):
    report = suite(**kwargs)
    ok = report.status == "pass" and report.elapsed_s < limit
    _report_line(num, name, ok, report.elapsed_s)
    assert report.status == "pass", report.to_json()
    assert report.elapsed_s < limit, f"{report.elapsed_s:.1f}s exceeds {limit}s"
    _matches_golden(report)
    return report


def test_acceptance_1_demazure_circ_oracles():
    report = _run(1, "demazure/circ_r oracle equivalence", verify.suite_demazure_oracle, 5.0)
    pairs = {c["check"]: c["witness"]["pairs"] for c in report.checks}
    assert pairs == {"S3-all-pairs": 36, "S4-all-pairs": 576}


def test_acceptance_2_positive_subexpression_uniqueness():
    report = _run(2, "positive-subexpression uniqueness", verify.suite_positive_subexpr, 30.0)
    assert report.checks[0]["witness"]["pairs"] == 213  # comparable pairs in S4


def test_acceptance_3_thickening_order_equivalences():
    report = _run(3, "thickening order equivalences", verify.suite_thickening_order, 60.0)
    by_name = {c["check"]: c["witness"] for c in report.checks}
    assert by_name["A2-nonempty-iff-embedded"]["tuples"] == 36
    assert by_name["A2-tuple-order-iff-th"]["pairs"] == 1296


def test_acceptance_4_hatQ_regularity():
    report = _run(4, "hatQ purity/thinness/shellability", verify.suite_hatQ, 300.0)
    by_name = {c["check"]: c["witness"] for c in report.checks}
    assert by_name["A2-n2-intervals"]["intervals"] == 167
    assert by_name["B2-n1-intervals"]["intervals"] == 33
    assert by_name["rank1-deletion-witness"]["nodes"] >= 72
    assert by_name["builder-matches-pairwise"]["intervals"] == 244
    # every interval is shelled, the rank-6 top of A2 n=2 included
    families = [w for name, w in by_name.items() if name.endswith("-intervals")]
    assert len(families) == 6
    assert all(w["shellings"] == w["intervals"] for w in families)


def test_acceptance_5_sl2_triangle():
    t0 = time.perf_counter()
    report = verify.suite_sl2_triangle()
    ok = report.status == "pass"
    _report_line(5, "SL2 triangle geometry", ok, time.perf_counter() - t0)
    assert ok, report.to_json()
    by_name = {c["check"]: c for c in report.checks}
    assert by_name["f-vector"]["witness"]["f"] == [3, 3, 1]
    assert by_name["boundary-euler"]["witness"]["chi"] == 0
    _matches_golden(report)


def test_acceptance_6_cell_parametrization_containment():
    suite = verify.SUITES["cell-containment"]
    report = _run(6, "cell parametrization containment", suite, 120.0)
    assert report.checks[0]["witness"]["strata"] == 167


def test_acceptance_7_braid_posets():
    report = _run(7, "braid/subword posets", verify.suite_braid, 60.0)
    by_name = {c["check"]: c["witness"] for c in report.checks}
    assert by_name["all-words"]["words"] == 62
    assert by_name["1212-is-1-ball"]["f"] == [2, 1]


def test_acceptance_8_duality():
    report = _run(8, "duality involution and stratum map", verify.suite_duality, 600.0)
    assert report.inputs["checked"] is True, "acceptance runs with theorem assertions on"
    assert report.checks[0]["witness"]["strata"] == 167


def test_acceptance_9_double_bruhat():
    report = _run(9, "double Bruhat positivity/embedding", verify.suite_double_bruhat, 120.0)
    pairs = {c["check"]: c["witness"]["pairs"] for c in report.checks}
    assert pairs == {"k2-pairs": 4, "k3-pairs": 36}
