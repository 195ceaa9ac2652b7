"""Command-line surface: build posets, parametrize cells, run suites.

Exit codes are a stable contract: 0 all checks passed, 1 a check failed
(counterexample in the report), 2 usage or build error.  The commands
raise usage and build errors; :func:`main` alone turns them into exit 2.

Word syntax: comma-separated vertex indices, 1-based, optionally wrapped
in parentheses; the empty string or "e" is the identity.  The commands
build their groups with ``cartan_of_type``, which has no thickening
vertices, so ``inf1`` is refused like any other bad letter, and so is ``0``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import jsonio, posets, ratlin, slk, twisted, verify
from .cartan import cartan_of_type
from .posets import CapExceededError, build_interval, make_qnode, to_dot
from .weyl import WeylGroup, type_a_group

EXIT_USAGE = 2


class WordParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


def parse_word(group: WeylGroup, text: str) -> tuple[int, ...]:
    """Parse a word like "1,2,1", "(1,2)", "e", or "" (identity)."""
    raw = text.strip()
    pos = 0
    if raw.startswith("(") and raw.endswith(")"):
        pos = 1
        raw = raw[1:-1].strip()
    if raw in ("", "e"):
        return ()
    letters = []
    for piece in raw.split(","):
        token = piece.strip()
        if not token:
            raise WordParseError("empty letter", text, pos)
        try:
            i = int(token)
        except ValueError:
            raise WordParseError(f"bad letter {token!r}", text, pos) from None
        if not 1 <= i <= group.rank:
            raise WordParseError(f"vertex {i} out of range 1..{group.rank}", text, pos)
        letters.append(i - 1)
        pos += len(piece) + 1
    return tuple(letters)


def split_top_level(text: str, sep: str) -> list[str]:
    """Split on a separator, ignoring occurrences inside parentheses."""
    parts, depth, start = [], 0, 0
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise WordParseError("unbalanced ')'", text, idx)
        elif ch == sep and depth == 0:
            parts.append(text[start:idx])
            start = idx + 1
    if depth != 0:
        raise WordParseError("unbalanced '('", text, len(text))
    parts.append(text[start:])
    return parts


def parse_top_spec(group: WeylGroup, text: str, n: int):
    """Parse "v-word;(w1),(w2),..." into (v, wbar)."""
    halves = split_top_level(text, ";")
    if len(halves) != 2:
        raise WordParseError("expected exactly one ';'", text, 0)
    v = group.from_word(parse_word(group, halves[0]))
    word_parts = split_top_level(halves[1], ",")
    if len(word_parts) != n:
        raise WordParseError(f"expected {n} factor words, got {len(word_parts)}", text, 0)
    wbar = tuple(group.from_word(parse_word(group, part)) for part in word_parts)
    return v, wbar


def parse_params(text: str) -> list[Fraction]:
    out = []
    for piece in text.split(","):
        token = piece.strip()
        if not token:
            continue
        try:
            out.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad parameter {token!r}") from None
    return out


def nonnegative_int(text: str) -> int:
    """argparse type for counts, caps and budgets."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(report: dict, path: str | None) -> None:
    payload = json.dumps(report, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
    print(payload)


def cmd_poset(args) -> int:
    t0 = time.perf_counter()
    wanted = [c.strip() for c in args.check.split(",") if c.strip()]
    if not wanted:
        raise ValueError("--check names no check")
    for name in wanted:
        if name not in posets.CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(posets.CHECKS)})")
    group = WeylGroup(cartan_of_type(args.family, args.rank))
    top = make_qnode(*parse_top_spec(group, args.top, args.n))
    poset = build_interval(top, node_cap=args.node_cap)
    report = verify.RunReport(
        "poset",
        {
            "family": args.family,
            "rank": args.rank,
            "n": args.n,
            "top": top.describe(),
            "nodes": len(poset.nodes),
            "covers": len(poset.covers),
            "f_vector": list(poset.f_vector()),
        },
        budget=args.budget,
        checks=posets.regularity_checks(poset, wanted, args.budget),
    )
    report.elapsed_s = time.perf_counter() - t0
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(poset) + "\n")
    _emit(report.to_json(), args.json)
    return report.exit_code


def cmd_cell(args) -> int:
    t0 = time.perf_counter()
    slk._check_k(args.k)  # before the group, whose Cartan matrix is k x k
    group = type_a_group(args.k)
    v = group.from_word(parse_word(group, args.v))
    word_parts = split_top_level(args.w, ";")
    if len(word_parts) != args.n:
        raise WordParseError(f"expected {args.n} factor words", args.w, 0)
    words = [parse_word(group, part) for part in word_parts]
    wbar = tuple(group.from_word(word) for word in words)
    if args.params is not None and args.random:
        raise ValueError("--params and --random are mutually exclusive")
    dim = sum(w.length for w in wbar) - v.length
    runs: list[list[Fraction]]
    if args.random:
        rng = random.Random(args.seed)
        runs = [twisted.random_params(dim, rng) for _ in range(args.random)]
    else:
        runs = [parse_params(args.params or "")]

    report = verify.RunReport(
        "cell",
        {
            "k": args.k,
            "n": args.n,
            "v": jsonio.element_to_json(v),
            "w": [jsonio.element_to_json(w) for w in wbar],
            "dimension": dim,
        },
        seed=args.seed,
    )
    points = []
    for idx, params in enumerate(runs):
        try:
            # an empty stratum or a bad parameter raises ValueError: a usage error
            z = twisted.parametrize_cell(v, wbar, params, words=words)
        except AssertionError as exc:
            report.add(f"point-{idx}", False, {"params": [str(p) for p in params], "error": str(exc)})
            continue
        sv, swbar = twisted.stratum(z)
        points.append(
            {
                "params": [str(p) for p in params],
                "point": z.to_json(),
                "stratum": jsonio.stratum_to_json(sv, swbar),
                "factor_tnn": [slk.is_tnn(g) for g in z.factors],
                "det": [str(ratlin.det(g)) for g in z.factors],
            }
        )
        report.add(f"point-{idx}", (sv, swbar) == (v, wbar))
    report.elapsed_s = time.perf_counter() - t0
    out = report.to_json()
    out["points"] = points
    _emit(out, args.json)
    return report.exit_code


def cmd_verify(args) -> int:
    suite = verify.SUITES.get(args.suite)
    if suite is None:
        raise ValueError(f"unknown suite {args.suite!r} (known: {', '.join(sorted(verify.SUITES))})")
    report = suite(seed=args.seed, budget=args.budget)
    _emit(report.to_json(), args.json)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnnflag",
        description="Face posets and exact positive parametrizations of twisted flag products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="build an interval [0^, top] and run checks")
    p.add_argument("family", help="Cartan family: A, B, C, D, affine-A")
    p.add_argument("rank", type=int)
    p.add_argument("--n", type=int, default=1, help="number of factors")
    p.add_argument("--top", required=True, help='top stratum, e.g. "e;(1),(1)"')
    p.add_argument("--check", default="ball", help="csv of " + ",".join(posets.CHECKS))
    p.add_argument("--dot", help="write the Hasse diagram to this DOT file")
    p.add_argument("--json", help="also write the report to this file")
    p.add_argument("--node-cap", type=nonnegative_int, default=posets.DEFAULT_NODE_CAP)
    p.add_argument("--budget", type=nonnegative_int, default=posets.DEFAULT_SHELLING_BUDGET)
    p.set_defaults(func=cmd_poset)

    c = sub.add_parser("cell", help="positively parametrize a stratum and verify it")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--v", default="e", help="v word, e.g. \"1\" or e")
    c.add_argument("--w", required=True, help='factor words, e.g. "(1,2);(2,1)"')
    c.add_argument("--params", help="csv of positive rationals, e.g. 3/2,1")
    c.add_argument(
        "--random", type=nonnegative_int, default=0,
        help="sample this many seeded parameter vectors",
    )
    c.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    c.add_argument("--json", help="also write the report to this file")
    c.set_defaults(func=cmd_cell)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", help="one of: " + ", ".join(sorted(verify.SUITES)))
    v.add_argument("--budget", type=nonnegative_int, default=posets.DEFAULT_SHELLING_BUDGET)
    v.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    v.add_argument("--json", help="also write the report to this file")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # the one place usage and build errors become exit 2; ValueError covers
    # WordParseError, and the only files opened are the --dot and --json outputs
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
