"""Compare ``tnnflag verify`` reports with the golden ones.

Usage: python tests/check_verify_reports.py REPORTS.jsonl [REPORTS.jsonl ...]

Each file holds one JSON report per line, with ``elapsed_s`` stripped;
the reports of other commands (``poset``, ``cell``) are skipped.  The
``verify`` reports of each file must be exactly those of
``tests/data/verify_reports.json``, one per suite; otherwise the script
exits non-zero and names the file and the suites that differ.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "verify_reports.json"


def main(paths: list[str]) -> None:
    if not paths:
        sys.exit(__doc__)
    golden = json.loads(GOLDEN.read_text())
    for path in paths:
        with open(path) as lines:
            suites = [r for r in map(json.loads, lines) if r["command"].startswith("verify ")]
        got = {r["command"].removeprefix("verify "): r for r in suites}
        if len(suites) != len(golden) or got != golden:
            sys.exit(f"{path}: verify reports differ from tests/data/verify_reports.json: "
                     f"{sorted(k for k in golden if got.get(k) != golden[k])}")


if __name__ == "__main__":
    main(sys.argv[1:])
