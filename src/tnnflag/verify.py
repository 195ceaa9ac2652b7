"""Every report of the package: the regularity checks, the reports of the
``poset`` and ``cell`` commands, and the named verification suites.

A :class:`RunReport` holds one entry ``{"check", "status"[, "witness"]}``
per check, each written by :meth:`RunReport.add` (a check over a sweep by
:meth:`RunReport.add_sweep`), and rolls their statuses up with
:func:`overall_status`.  :func:`regularity_checks` turns the verdicts of
the kernels in :mod:`tnnflag.posets` into entries, by check name.  Every
failing check carries a concrete witness; inconclusive checks carry the
exhausted budget.  Every report is timed by :func:`_timed`, the package's
one clock.  All randomness flows through an explicit seed.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from itertools import product

from . import posets, ratlin, slk, twisted
from .cartan import cartan_of_type
from .posets import (
    DEFAULT_NODE_CAP,
    DEFAULT_SHELLING_BUDGET,
    FacePoset,
    QNode,
    braid_poset,
    build_interval,
    interval_labels,
    make_qnode,
)
from .weyl import (
    WeylGroup,
    i_embed,
    is_positive_subexpression,
    th_element,
    type_a_group,
)

DEFAULT_SEED = 0
SCHEMA_VERSION = 1
# the checks of Bjorner's criterion for a regular CW ball, which ``ball`` rolls up
BALL_CHECKS = ("pure", "thin", "eulerian", "shelling", "boundary_sphere_euler")
# every name regularity_checks takes, in the order the CLI lists them
CHECKS = ("pure", "thin", "eulerian", "shelling", "ball", "boundary_sphere_euler")


def overall_status(statuses) -> str:
    """Status of a group of checks: fail beats inconclusive beats pass."""
    return max(statuses, key=("pass", "inconclusive", "fail").index, default="pass")


@dataclass
class RunReport:
    """Outcome of one command or suite: per-check status plus witnesses."""

    command: str
    inputs: dict
    seed: int | None = None
    budget: int | None = None
    checks: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    def add(self, name: str, status, witness=None) -> None:
        if isinstance(status, bool):
            status = "pass" if status else "fail"
        entry = {"check": name, "status": status}
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def add_sweep(self, name: str, counts: dict, bad, inconclusive=()) -> None:
        """One check over a sweep: fail on any bad witness, else inconclusive
        on any spent budget.  The witness holds the counts, then the first
        five of each nonempty list."""
        self.add(
            name,
            overall_status(["fail"] * len(bad) + ["inconclusive"] * len(inconclusive)),
            {
                **counts,
                **({"bad": bad[:5]} if bad else {}),
                **({"inconclusive": inconclusive[:5]} if inconclusive else {}),
            },
        )

    @property
    def status(self) -> str:
        return overall_status(c["status"] for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 1 if self.status == "fail" else 0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "budget": self.budget,
            "status": self.status,
            "checks": self.checks,
            "elapsed_s": round(self.elapsed_s, 6),  # microseconds: a small poset takes under 1 ms
        }


@dataclass
class CellReport(RunReport):
    """A ``cell`` report: one check per parameter vector, then the points."""

    points: list[dict] = field(default_factory=list, init=False)

    def to_json(self) -> dict:
        return {**super().to_json(), "points": self.points}


def _timed(fn):
    """Time each call of a report-building function into its ``elapsed_s``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed_s = time.perf_counter() - t0
        return report

    return wrapper


def known_checks(names) -> list[str]:
    """The names as a list, each once in the order first given, or a
    ValueError naming the first one outside ``CHECKS``."""
    names = list(dict.fromkeys(names))
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(CHECKS)})")
    return names


def regularity_checks(
    poset: FacePoset, names, budget: int = DEFAULT_SHELLING_BUDGET
) -> list[dict]:
    """Report entries of the named checks on the poset.

    Names (``CHECKS``, each checked before any runs, and each run once in
    the order first given): ``pure``, ``thin``,
    ``eulerian``, ``shelling`` (pass on a certified shelling, else
    inconclusive, as the search never proves a poset not shellable;
    witness: the search's work), ``boundary_sphere_euler``: the open
    boundary has the Euler characteristic of a sphere one dimension below
    the top (witness: both values), and ``ball``: the ``BALL_CHECKS`` of
    Bjorner's criterion as one entry, whose witness lists their entries.
    The kernels are looked up on the ``posets`` module at each call, so
    wrappers put on its names apply.
    """
    report = RunReport("regularity_checks", {}, budget=budget)
    for name in known_checks(names):
        if name == "ball":
            ball = RunReport("ball", {}, checks=regularity_checks(poset, BALL_CHECKS, budget))
            report.add(name, ball.status, {"checks": ball.checks})
        elif name == "shelling":
            res = posets.find_shelling(poset, budget=budget)
            witness = {"certificate": "rao", "facets": res.facets,
                       "attempts": res.attempts, "backtracks": res.backtracks}
            if res.status == "inconclusive":
                witness["exhausted"] = res.exhausted
            report.add(name, "pass" if res.shellable else "inconclusive", witness)
        elif name == "boundary_sphere_euler":
            chi = posets.open_boundary_euler(poset)
            # the top is a ball of dimension ranks[top] - ranks[bottom] - 1
            expected = 1 + (-1) ** (poset.ranks[-1] - poset.ranks[0])
            report.add(name, chi == expected, {"chi": chi, "expected": expected})
        else:
            test = {"pure": posets.is_pure, "thin": posets.is_thin,
                    "eulerian": posets.is_eulerian}[name]
            report.add(name, test(poset))
    return report.checks


@_timed
def interval_report(command: str, top: QNode, names, on_build, node_cap: int,
                    budget: int) -> RunReport:
    """The named checks on the closed interval below ``top``, built within
    ``node_cap`` nodes.  ``on_build(poset)`` is called once, on the built
    interval before the checks, and returns the report's inputs block."""
    poset = build_interval(top, node_cap=node_cap)
    return RunReport(command, on_build(poset), budget=budget,
                     checks=regularity_checks(poset, names, budget))


def check_regular_ball(top: QNode) -> RunReport:
    """Bjorner's criterion on the closed interval below a stratum: the
    ``BALL_CHECKS`` of :func:`regularity_checks`, one entry each."""
    def inputs(poset):
        return {"top": top.describe(), "rank": top.rank, "nodes": len(poset.nodes),
                "f_vector": list(poset.f_vector())}

    return interval_report("check_regular_ball", top, BALL_CHECKS, inputs, DEFAULT_NODE_CAP,
                           DEFAULT_SHELLING_BUDGET)


def _word(w) -> list[int]:
    """The canonical word of w with 1-based letters, as the reports write it."""
    return [t + 1 for t in w.word]


@_timed
def cell_report(v, wbar, words, runs, seed: int) -> CellReport:
    """The stratum (v, wbar), ``words`` the reduced words of wbar, parametrized
    at each parameter vector of ``runs``: each point is checked to land in
    its stratum and listed with its factors' nonnegativity and determinants.
    A failed internal assertion fails that point's check, with the error as
    witness; an empty stratum or a bad parameter raises ValueError."""
    report = CellReport("cell", {
        "k": v.group.rank + 1, "n": len(wbar), "v": _word(v), "w": [_word(w) for w in wbar],
        "dimension": sum(w.length for w in wbar) - v.length,
    }, seed=seed)
    for idx, params in enumerate(runs):
        strs = [str(p) for p in params]
        try:
            z = twisted.parametrize_cell(v, wbar, params, words=words)
        except AssertionError as exc:
            report.add(f"point-{idx}", False, {"params": strs, "error": str(exc)})
            continue
        sv, swbar = twisted.stratum(z)
        report.points.append({
            "params": strs, "point": z.to_json(),
            "stratum": {"v": _word(sv), "w": [_word(w) for w in swbar]},
            "factor_tnn": [slk.is_tnn(g) for g in z.factors],
            "det": [str(ratlin.det(g)) for g in z.factors],
        })
        report.add(f"point-{idx}", (sv, swbar) == (v, wbar))
    return report


# -- brute-force oracles -------------------------------------------------------


def brute_demazure(group: WeylGroup, x, y):
    """max{x' y' : x' <= x, y' <= y} by exhaustive enumeration, or None."""
    cands = {
        group.multiply(a, b)
        for a in group.lower_interval(x)
        for b in group.lower_interval(y)
    }
    for m in cands:
        if all(group.bruhat_leq(c, m) for c in cands):
            return m
    return None


def brute_circ_r(group: WeylGroup, y, x):
    """min{y u : u <= x} by exhaustive enumeration, or None."""
    cands = {group.multiply(y, u) for u in group.lower_interval(x)}
    for m in cands:
        if all(group.bruhat_leq(m, c) for c in cands):
            return m
    return None


@_timed
def suite_demazure_oracle(seed: int = DEFAULT_SEED, budget=None) -> RunReport:
    """Greedy Demazure and downward products match brute force on S3 and S4."""
    report = RunReport("verify demazure-oracle", {"groups": ["S3", "S4"]}, seed=seed)
    for k in (3, 4):
        group = type_a_group(k)
        elems = group.elements_up_to_length(k * (k - 1) // 2)
        pairs = 0
        bad = []
        for x in elems:
            for y in elems:
                pairs += 1
                if group.demazure(x, y) != brute_demazure(group, x, y):
                    bad.append({"x": x.describe(), "y": y.describe(), "op": "demazure"})
                if group.circ_r(x, y) != brute_circ_r(group, x, y):
                    bad.append({"x": x.describe(), "y": y.describe(), "op": "circ_r"})
        report.add_sweep(f"S{k}-all-pairs", {"pairs": pairs}, bad)
    return report


@_timed
def suite_positive_subexpr(seed: int = DEFAULT_SEED, budget=None) -> RunReport:
    """Exhaustive uniqueness of positive subexpressions over S4."""
    report = RunReport("verify positive-subexpr", {"group": "S4"}, seed=seed)
    group = type_a_group(4)
    elems = group.elements_up_to_length(6)
    bad = []
    checked = 0
    for w in elems:
        word = w.word
        by_product: dict = {}
        for mask in range(1 << len(word)):
            sub = tuple(
                word[i] if mask & (1 << i) else None for i in range(len(word))
            )
            prod = group.from_word(t for t in sub if t is not None)
            if is_positive_subexpression(group, word, sub):
                by_product.setdefault(prod, []).append(sub)
        lower = set(group.lower_interval(w))
        if set(by_product) != lower:
            bad.append({"w": w.describe(), "issue": "positive products != lower interval"})
            continue
        for v, subs in by_product.items():
            checked += 1
            if len(subs) != 1:
                bad.append({"w": w.describe(), "v": v.describe(), "count": len(subs)})
            elif subs[0] != group.positive_subexpression(v, word):
                bad.append({"w": w.describe(), "v": v.describe(), "issue": "greedy differs"})
    report.add_sweep("uniqueness-and-greedy", {"pairs": checked}, bad)
    return report


@_timed
def suite_thickening_order(seed: int = DEFAULT_SEED, budget=None) -> RunReport:
    """Order equivalences between tuples and their interleaved images."""
    report = RunReport("verify thickening-order", {"bases": ["A1", "A2"], "n": 2}, seed=seed)
    for family, rank in (("A", 1), ("A", 2)):
        group = WeylGroup(cartan_of_type(family, rank))
        tgroup = group.thickened(2)
        elems = group.elements_up_to_length(3)
        tuples = [(a, b) for a in elems for b in elems]
        th_of = {t: th_element(tgroup, t) for t in tuples}
        bad = []
        for wbar in tuples:
            m = group.m_star(wbar)
            for v in elems:
                lhs = group.bruhat_leq(v, m)
                rhs = tgroup.bruhat_leq(i_embed(tgroup, v), th_of[wbar])
                if lhs != rhs:
                    bad.append({"v": v.describe(), "wbar": [w.describe() for w in wbar]})
        report.add_sweep(f"{family}{rank}-nonempty-iff-embedded", {"tuples": len(tuples)}, bad)
        bad = []
        for wa in tuples:
            for wb in tuples:
                lhs = all(group.bruhat_leq(x, y) for x, y in zip(wa, wb))
                rhs = tgroup.bruhat_leq(th_of[wa], th_of[wb])
                if lhs != rhs:
                    bad.append({
                        "wbar": [w.describe() for w in wa],
                        "wbar'": [w.describe() for w in wb],
                    })
        report.add_sweep(f"{family}{rank}-tuple-order-iff-th", {"pairs": len(tuples) ** 2}, bad)
    return report


def _hatQ_families():
    A1 = WeylGroup(cartan_of_type("A", 1))
    A2 = WeylGroup(cartan_of_type("A", 2))
    B2 = WeylGroup(cartan_of_type("B", 2))
    return [
        ("A1", A1, (1, 2, 3)),
        ("A2", A2, (1, 2)),
        ("B2", B2, (1,)),
    ]


def iter_qnodes(group: WeylGroup, n: int, length_cap: int | None = None):
    """All nonempty stratum labels with n factors over a finite group.

    Every v below the Demazure product of wbar is a label, so each is made
    as it is, without the checks of :func:`make_qnode`."""
    cap = length_cap
    if cap is None:
        cap = 64  # finite groups exhaust well before this
    elems = group.elements_up_to_length(cap)
    make = QNode._make
    for wbar in product(elems, repeat=n):
        length = sum(w.length for w in wbar)
        for v in group.lower_interval(group.m_star(wbar)):
            yield make((v, wbar, length - v.length))


def _sweep_poset(poset, where: dict, budget: int, bad: list, inconclusive: list) -> None:
    """Regularity checks on one poset of a sweep, located by ``where``."""
    for entry in regularity_checks(poset, ("pure", "thin", "eulerian", "shelling"), budget):
        if entry["status"] == "fail":
            bad.append({**where, "check": entry["check"]})
        elif entry["status"] == "inconclusive":
            inconclusive.append({**where, "budget": budget})


@_timed
def suite_hatQ(seed: int = DEFAULT_SEED, budget: int = DEFAULT_SHELLING_BUDGET) -> RunReport:
    """Purity, thinness, Eulerian-ness, shellability sweep over small families,
    and the cover-built intervals, with their thin and Eulerian verdicts,
    against the pairwise order."""
    report = RunReport(
        "verify hatQ",
        {"families": ["A1 n<=3", "A2 n<=2", "B2 n=1"]},
        seed=seed,
        budget=budget,
    )
    tops = 0
    mismatched = []
    rank1, rank1_bad = 0, []
    for name, group, ns in _hatQ_families():
        for n in ns:
            intervals = 0
            bad = []
            inconclusive = []
            for top in iter_qnodes(group, n):
                intervals += 1
                poset = build_interval(top)
                label = f"{name} n={n} top={top.describe()}"
                _sweep_poset(poset, {"top": label}, budget, bad, inconclusive)
                if top.rank == 1:
                    # rank-1 thinness witness: deletions of the concatenated word giving v
                    rank1 += 1
                    letters = [t for w in top.wbar for t in w.word]
                    hits = sum(group.from_word(letters[:l] + letters[l + 1:]) == top.v
                               for l in range(len(letters)))
                    if hits not in (1, 2):
                        rank1_bad.append({"node": top.describe(), "hits": hits})
                # the builder's covers raise the rank by one by construction,
                # so the premise that makes it exact is tested on the pairwise
                # order, which FacePoset refuses when a cover skips a rank
                try:
                    pairwise = FacePoset.from_qnodes(interval_labels(top))
                except ValueError:
                    bad.append({"top": label, "check": "cover-rank-drop"})
                    continue
                # the built poset's walks start from the bottom alone, by the
                # box lemma of build_interval; the pairwise one walks every x
                if (poset.nodes, poset.ranks, poset.below) != (
                        pairwise.nodes, pairwise.ranks, pairwise.below) or (
                        posets.is_thin(poset), posets.is_eulerian(poset)) != (
                        posets.is_thin(pairwise), posets.is_eulerian(pairwise)):
                    mismatched.append(label)
            report.add_sweep(
                f"{name}-n{n}-intervals",
                {"intervals": intervals, "shellings": intervals},  # every interval is shelled
                bad,
                inconclusive,
            )
            tops += intervals
    report.add_sweep("builder-matches-pairwise", {"intervals": tops}, mismatched)
    report.add_sweep("rank1-deletion-witness", {"nodes": rank1}, rank1_bad)
    return report


@_timed
def suite_sl2_triangle(seed: int = DEFAULT_SEED, budget: int = DEFAULT_SHELLING_BUDGET) -> RunReport:
    """The SL2 two-factor triangle: f-vector, chart inequalities, ball checks."""
    report = RunReport("verify sl2-triangle", {"k": 2, "n": 2}, seed=seed, budget=budget)
    group = type_a_group(2)
    e, s = group.identity, group.simple(0)
    poset = build_interval(make_qnode(e, (s, s)))
    report.add("f-vector", poset.f_vector() == (3, 3, 1), {"f": list(poset.f_vector())})
    [ball] = regularity_checks(poset, ["ball"], budget)
    boundary = next(c for c in ball["witness"]["checks"] if c["check"] == "boundary_sphere_euler")
    chi = boundary["witness"]["chi"]
    report.add("boundary-euler", chi == 0, {"chi": chi})
    report.add("regular-ball", ball["status"], ball["witness"])
    rng = random.Random(seed)
    bad = []
    for _ in range(25):
        params = twisted.random_params(2, rng)
        z = twisted.parametrize_cell(e, (s, s), params)
        # the affine coordinate of each flag's line
        a, b = (f.rep[1][0] / f.rep[0][0] for f in twisted.alpha(z))
        if not (0 < a < b):
            bad.append({"params": [str(p) for p in params], "a": str(a), "b": str(b)})
            break
    report.add_sweep("chart-inequalities", {"samples": 25}, bad)
    return report


@_timed
def suite_braid(seed: int = DEFAULT_SEED, budget: int = DEFAULT_SHELLING_BUDGET) -> RunReport:
    """Regularity of braid/subword posets for all short A2 words."""
    report = RunReport("verify braid", {"group": "A2", "max_len": 5}, seed=seed, budget=budget)
    group = WeylGroup(cartan_of_type("A", 2))
    bad = []
    inconclusive = []
    words = 0
    for length in range(1, 6):
        for letters in product(range(2), repeat=length):
            words += 1
            poset = braid_poset(group, letters)
            label = "".join(str(t + 1) for t in letters)
            _sweep_poset(poset, {"word": label}, budget, bad, inconclusive)
    report.add_sweep("all-words", {"words": words}, bad, inconclusive)
    ball = braid_poset(group, (0, 1, 0, 1))
    report.add(
        "1212-is-1-ball",
        ball.f_vector() == (2, 1),
        {"f": list(ball.f_vector())},
    )
    return report


@_timed
def suite_duality(seed: int = DEFAULT_SEED, budget=None) -> RunReport:
    """phi is an involution on gauge classes and permutes strata as displayed."""
    report = RunReport(
        "verify duality", {"k": 3, "n": 2, "points": 10, "checked": True}, seed=seed
    )
    rng = random.Random(seed)
    strata = 0
    bad = []
    for q in iter_qnodes(type_a_group(3), 2):
        strata += 1
        v, wbar = q.v, q.wbar
        where = {"stratum": (v.describe(), [w.describe() for w in wbar])}
        for _ in range(10):
            params = twisted.random_params(q.rank, rng)
            try:  # the checked chart and phi_Z assert the strata
                z = twisted.parametrize_cell(v, wbar, params)
                image = twisted.phi_Z(z)
                back = twisted.phi_Z(image)
            except AssertionError as exc:
                bad.append({**where, "check": "stratum-map", "error": str(exc)})
                break
            if not twisted.gauge_eq(back, z):
                bad.append({**where, "check": "involution"})
                break
    report.add_sweep("phi-involution-and-stratum-map", {"strata": strata}, bad)
    return report


@_timed
def suite_double_bruhat(seed: int = DEFAULT_SEED, budget=None) -> RunReport:
    """Positive double-Bruhat products are TNN and embed consistently."""
    report = RunReport(
        "verify double-bruhat", {"k": [2, 3], "samples_per_pair": 3}, seed=seed
    )
    rng = random.Random(seed)
    for k in (2, 3):
        group = type_a_group(k)
        elems = group.elements_up_to_length(k * (k - 1) // 2)
        bad = []
        pairs = 0
        for v in elems:
            for w in elems:
                pairs += 1
                expected = twisted.db_stratum_convention(group, v, w)
                for _ in range(3):
                    params = twisted.random_params(v.length + w.length, rng)
                    try:  # db_positive asserts its product TNN
                        g = twisted.db_positive(
                            k,
                            tuple(t + 1 for t in v.word),
                            tuple(t + 1 for t in w.word),
                            params,
                        )
                    except AssertionError as exc:
                        bad.append({"v": v.describe(), "w": w.describe(), "check": "tnn",
                                    "error": str(exc)})
                        break
                    got = twisted.stratum(twisted.double_bruhat_embed(g))
                    if got != expected:
                        bad.append({
                            "v": v.describe(),
                            "w": w.describe(),
                            "check": "stratum",
                            "got": (got[0].describe(), [x.describe() for x in got[1]]),
                        })
                        break
        report.add_sweep(f"k{k}-pairs", {"pairs": pairs}, bad)
    return report


@_timed
def suite_cell_containment(seed: int = DEFAULT_SEED, budget=None) -> RunReport:
    """Every seeded positive parametrization lands in its stratum (k=3, n=2)."""
    samples = 25
    report = RunReport(
        "verify cell-containment", {"k": 3, "n": 2, "samples": samples}, seed=seed
    )
    rng = random.Random(seed)
    strata = 0
    bad = []
    for q in iter_qnodes(type_a_group(3), 2):
        strata += 1
        for _ in range(samples):
            try:  # the checked chart asserts the point's stratum
                twisted.parametrize_cell(q.v, q.wbar, twisted.random_params(q.rank, rng))
            except AssertionError as exc:
                bad.append({"v": q.v.describe(), "wbar": [w.describe() for w in q.wbar],
                            "error": str(exc)})
                break
    report.add_sweep("containment", {"strata": strata}, bad)
    return report


SUITES = {
    "demazure-oracle": suite_demazure_oracle,
    "positive-subexpr": suite_positive_subexpr,
    "thickening-order": suite_thickening_order,
    "hatQ": suite_hatQ,
    "sl2-triangle": suite_sl2_triangle,
    "braid": suite_braid,
    "duality": suite_duality,
    "cell-containment": suite_cell_containment,
    "double-bruhat": suite_double_bruhat,
}
