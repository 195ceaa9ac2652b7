"""Command-line surface: build posets, parametrize cells, run suites.

The commands parse their arguments, hand them to :mod:`tnnflag.verify`,
which builds and times every report, and print the report as JSON.  Exit
codes are a stable contract: 0 all checks passed, 1 a check failed
(counterexample in the report), 2 usage or build error.  The commands
raise usage and build errors; :func:`main` alone turns them into exit 2.

Word syntax: comma-separated vertex labels as the reports print them (1..r,
or 0..r in affine-A), optionally wrapped in parentheses; the empty string or
"e" is the identity.  No group built by ``cartan_of_type`` has thickening
vertices, so ``inf1`` is refused like any other bad letter.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import posets, ratlin, twisted, verify
from .cartan import cartan_of_type
from .posets import CapExceededError, make_qnode, to_dot
from .weyl import WeylGroup, type_a_group

EXIT_USAGE = 2


class WordParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


def parse_word(group: WeylGroup, text: str) -> tuple[int, ...]:
    """Parse a word of vertex labels like "1,2,1", "(1,2)", "e", or "" (identity).

    An error's position is that of the bad letter in ``text`` itself.
    """
    letter = {label: i for i, label in enumerate(group.gcm.labels)}
    raw = text.strip()
    pos = len(text) - len(text.lstrip())  # where raw starts in text
    if raw.startswith("(") and raw.endswith(")"):
        pos += 1
        raw = raw[1:-1]
    if raw.strip() in ("", "e"):
        return ()
    letters = []
    for piece in raw.split(","):
        token = piece.strip()
        at = pos + piece.find(token)  # the piece's start when it is blank
        if not token:
            raise WordParseError("empty letter", text, at)
        if token not in letter:
            raise WordParseError(f"bad letter {token!r}", text, at)
        letters.append(letter[token])
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
    """The comma-separated positive rationals of ``--params``; empty tokens are skipped."""
    return ratlin.positive_fractions(t for t in map(str.strip, text.split(",")) if t)


def nonnegative_int(text: str) -> int:
    """argparse type for counts, caps and budgets."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(report: verify.RunReport, path: str | None) -> int:
    """Print the report as JSON, also to ``path`` if given; its exit code."""
    payload = json.dumps(report.to_json(), indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return report.exit_code


def cmd_poset(args) -> int:
    names = verify.known_checks(c.strip() for c in args.check.split(",") if c.strip())
    if not names:
        raise ValueError("--check names no check")
    group = WeylGroup(cartan_of_type(args.family, args.rank))
    top = make_qnode(*parse_top_spec(group, args.top, args.n))

    def on_build(poset):
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(to_dot(poset) + "\n")
        return {
            "family": args.family,
            "rank": args.rank,
            "n": args.n,
            "top": top.describe(),
            "nodes": len(poset.nodes),
            "covers": len(poset.covers),
            "f_vector": list(poset.f_vector()),
        }

    report = verify.interval_report("poset", top, names, on_build, args.node_cap, args.budget)
    return _emit(report, args.json)


def cmd_cell(args) -> int:
    group = type_a_group(args.k)
    v = group.from_word(parse_word(group, args.v))
    word_parts = split_top_level(args.w, ";")
    if len(word_parts) != args.n:
        raise WordParseError(f"expected {args.n} factor words", args.w, 0)
    words = [parse_word(group, part) for part in word_parts]
    wbar = tuple(group.from_word(word) for word in words)
    for part, word, w in zip(word_parts, words, wbar):
        if w.length != len(word):
            raise ValueError(f"{part.strip()!r} is not a reduced word of {w.describe()}")
    if args.params is not None and args.random:
        raise ValueError("--params and --random are mutually exclusive")
    if args.random:
        rng = random.Random(args.seed)
        dim = sum(w.length for w in wbar) - v.length
        runs = [twisted.random_params(dim, rng) for _ in range(args.random)]
    else:
        runs = [parse_params(args.params or "")]
    report = verify.cell_report(v, wbar, words, runs, args.seed)
    return _emit(report, args.json)


def cmd_verify(args) -> int:
    suite = verify.SUITES.get(args.suite)
    if suite is None:
        raise ValueError(f"unknown suite {args.suite!r} (known: {', '.join(sorted(verify.SUITES))})")
    report = suite(seed=args.seed, budget=args.budget)
    return _emit(report, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnnflag",
        description="Face posets and exact positive parametrizations of twisted flag products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="build an interval [0^, top] and run checks")
    p.add_argument("family", help="Cartan family: A, B, C, D, G, affine-A")
    p.add_argument("rank", type=int)
    p.add_argument("--n", type=int, default=1, help="number of factors")
    p.add_argument("--top", required=True, help='top stratum, e.g. "e;(1),(1)"')
    p.add_argument("--check", default="ball", help="csv of " + ",".join(verify.CHECKS))
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
