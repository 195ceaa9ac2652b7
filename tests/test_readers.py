"""Every function and class in ``src/`` has a reader outside the tests.

A top-level function or class, or a method of a top-level class (dunders
aside), is read when its name is referenced in ``src/`` outside its own
definition (an ``ast.Name`` id or an ``ast.Attribute`` attr, so
docstrings and comments do not count), is in ``tnnflag.__all__``, or is
named in ``benchmarks/*.py`` or ``demos/*.py``.  Code that only tests
read belongs in the tests.  Names are matched bare, not by type, so a
method counts as read when any other object's attribute of that name is
(a ``FacePoset.index`` would pass on the tuple ``.index`` that
``verify.overall_status`` reads).
"""

import ast
import re
from collections import Counter
from pathlib import Path

import tnnflag

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tnnflag"

# definitions kept without a reader, each with the reader it waits for
ALLOWED = {
    "ZPoint.from_json": "decodes the points of `cell` reports; `cell --point FILE` "
                        "will read it (ROADMAP item 3)",
    "WeylGroup.cache_stats": "the `stats` block of the reports will read it (ROADMAP item 14)",
}


def references(tree) -> Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def definitions(tree):
    """(qualified name, name, node) of each top-level function and class, and
    of each non-dunder method of a top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not re.fullmatch("__.*__", item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_definition_in_src_has_a_reader():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    reads = sum(map(references, trees), Counter())
    outside = "\n".join(path.read_text() for folder in ("benchmarks", "demos")
                        for path in sorted((ROOT / folder).glob("*.py")))
    unread = sorted(
        qualified for tree in trees for qualified, name, node in definitions(tree)
        if reads[name] == references(node)[name]
        and name not in tnnflag.__all__
        and not re.search(rf"\b{name}\b", outside)
    )
    assert unread == sorted(ALLOWED)
