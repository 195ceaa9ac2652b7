"""Exit-code contract and report formats of the command-line surface."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflag import posets, slk, twisted, verify
from tnnflag.cartan import cartan_of_type
from tnnflag.cli import main, parse_top_spec, parse_word, split_top_level, WordParseError
from tnnflag.posets import build_interval, make_qnode
from tnnflag.verify import check_regular_ball
from tnnflag.weyl import WeylGroup, type_a_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_word(S3):
    assert parse_word(S3, "e") == ()
    assert parse_word(S3, "") == ()
    assert parse_word(S3, "(1,2,1)") == (0, 1, 0)
    assert parse_word(S3, "1,2") == (0, 1)
    with pytest.raises(WordParseError):
        parse_word(S3, "(1,5)")
    with pytest.raises(WordParseError):
        parse_word(S3, "1,,2")
    with pytest.raises(WordParseError):
        parse_word(S3, "inf9")
    # no CLI group has thickening vertices, and vertices are 1-based
    for text in ("inf1", "1,inf1,2", "0", "(2,0)"):
        with pytest.raises(WordParseError):
            parse_word(S3, text)


@pytest.mark.parametrize("text, pos", [
    ("  1,x", 4), ("( 1, x)", 5), (" (1,5)", 4), ("1, 2 ,9", 6), ("1,,2", 2), (" x", 1),
])
def test_parse_word_error_position_counts_in_the_given_text(S3, text, pos):
    with pytest.raises(WordParseError) as info:
        parse_word(S3, text)
    assert info.value.pos == pos


def test_poset_refuses_a_thickening_letter(capsys):
    code, out, err = run(capsys, "poset", "A", "2", "--n", "2", "--top", "e;(inf1),(1)")
    assert code == 2 and not out
    assert "bad letter 'inf1'" in err and "Traceback" not in err


def test_poset_reads_affine_letters_as_the_labels_it_reports(capsys):
    """affine-A labels its vertices 0..r, and a letter is read as the label
    that the report prints: (0,1) is s0*s1, and 2 is no vertex of affine-A1."""
    assert parse_word(WeylGroup(cartan_of_type("affine-A", 1)), "(0,1,0)") == (0, 1, 0)
    code, out, _ = run(capsys, "poset", "affine-A", "1", "--top", "e;(0,1)", "--check", "pure")
    assert code == 0 and json.loads(out)["inputs"]["top"] == "(e ; s0*s1)"
    code, out, err = run(capsys, "poset", "affine-A", "1", "--top", "e;(1,2)", "--check", "pure")
    assert code == 2 and not out and "bad letter '2' at position 3" in err


def test_split_top_level():
    assert split_top_level("(1,2),(2,1)", ",") == ["(1,2)", "(2,1)"]
    with pytest.raises(WordParseError):
        split_top_level("(1,2", ",")


def test_poset_command_triangle(capsys, tmp_path):
    dot = tmp_path / "triangle.dot"
    js = tmp_path / "triangle.json"
    code, out, _ = run(
        capsys,
        "poset", "A", "1", "--n", "2", "--top", "e;(1),(1)",
        "--check", "ball", "--dot", str(dot), "--json", str(js),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["status"] == "pass"
    assert payload["inputs"]["nodes"] == 8
    # bottom to 3 vertices, 3 vertices to 2 edges each, 3 edges to the cell
    assert payload["inputs"]["covers"] == 12
    assert payload["inputs"]["f_vector"] == [3, 3, 1]
    assert dot.read_text().startswith("digraph")
    assert json.loads(js.read_text()) == payload


def test_poset_command_counts_covers_without_listing_them(capsys, tmp_path, monkeypatch):
    """The report counts the covers on the ``covers`` view, which lists no
    pair: listing the pairs raises (the labels, which the DOT export
    reads, may be listed); the count is the definition's, read off
    ``below``, and the DOT export draws as many edges."""
    group = WeylGroup(cartan_of_type("A", 2))
    top = make_qnode(*parse_top_spec(group, "e;(1,2,1),(1,2,1)", 2))
    listed = len(oracles.oracle_covers(build_interval(top).below))
    covers = posets.FacePoset.covers.fget

    def unlisted():
        raise AssertionError("cover pairs listed")

    def unlisted_covers(poset):
        view = covers(poset)
        view._listing = unlisted
        return view

    monkeypatch.setattr(posets.FacePoset, "covers", property(unlisted_covers))
    dot = tmp_path / "top.dot"
    for extra in ([], ["--dot", str(dot)]):
        code, out, _ = run(capsys, "poset", "A", "2", "--n", "2", "--top", "e;(1,2,1),(1,2,1)",
                           "--check", "pure", *extra)
        assert code == 0
        assert json.loads(out)["inputs"]["covers"] == listed
    assert dot.read_text().count("->") == listed


def test_python_m_runs_the_cli_from_a_checkout(capsys):
    argv = ["poset", "A", "1", "--n", "2", "--top", "e;(1),(1)", "--check", "pure,thin"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tnnflag", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    via_m, direct = json.loads(proc.stdout), json.loads(out)
    via_m.pop("elapsed_s"), direct.pop("elapsed_s")
    assert via_m == direct


def test_poset_command_checks_list(capsys):
    code, out, _ = run(
        capsys,
        "poset", "A", "2", "--n", "1", "--top", "e;(1,2,1)",
        "--check", "pure,thin,eulerian",
    )
    assert code == 0
    payload = json.loads(out)
    assert [c["check"] for c in payload["checks"]] == ["pure", "thin", "eulerian"]


@pytest.mark.parametrize("checks, names", [("thin,thin", ["thin"]),
                                           ("thin,pure,thin,pure", ["thin", "pure"])])
def test_poset_command_runs_a_repeated_check_once(capsys, monkeypatch, checks, names):
    """A check named twice runs once and reports one entry, in the order
    the names first appear."""
    calls = []
    real = posets.is_thin
    monkeypatch.setattr(posets, "is_thin", lambda poset: calls.append(1) or real(poset))
    code, out, err = run(capsys, "poset", "A", "1", "--top", "e;(1)", "--check", checks)
    assert (code, err, len(calls)) == (0, "", 1)
    assert [c["check"] for c in json.loads(out)["checks"]] == names


def test_poset_rank8_ball_by_atom_ordering(capsys):
    """The B2 n=2 (e; w0, w0) top, whose 309,120 chains the chain search
    could not order within its budget, passes the ball checks; the atom
    ordering search takes 3,483 attempts and never backtracks."""
    w0 = "(1,2,1,2)"
    code, out, _ = run(capsys, "poset", "B", "2", "--n", "2", "--top", f"e;{w0},{w0}", "--check", "ball")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass" and payload["inputs"]["nodes"] == 402
    checks = {c["check"]: c for c in payload["checks"][0]["witness"]["checks"]}
    witness = checks["shelling"]["witness"]
    assert witness["certificate"] == "rao"
    assert (witness["facets"], witness["attempts"], witness["backtracks"]) == (309_120, 3_483, 0)


def test_poset_rank12_ball_by_atom_ordering(capsys):
    """The A3 n=2 (e; w0, w0) top passes every ball check; its chains are
    counted, never listed, and the atom ordering search takes 222,043
    attempts and never backtracks."""
    w0 = "(1,2,1,3,2,1)"
    code, out, _ = run(capsys, "poset", "A", "3", "--n", "2", "--top", f"e;{w0},{w0}", "--check", "ball")
    assert code == 0
    payload = json.loads(out)
    assert (payload["inputs"]["nodes"], payload["inputs"]["covers"]) == (9698, 64252)
    checks = payload["checks"][0]["witness"]["checks"]
    assert [(c["check"], c["status"]) for c in checks] == [
        ("pure", "pass"), ("thin", "pass"), ("eulerian", "pass"), ("shelling", "pass"),
        ("boundary_sphere_euler", "pass"),
    ]
    witness = checks[3]["witness"]
    assert witness["certificate"] == "rao"
    assert (witness["facets"], witness["attempts"], witness["backtracks"]) == (15_497_121_024, 222_043, 0)
    assert checks[-1]["witness"] == {"chi": 0, "expected": 0}


def test_poset_unknown_check_is_rejected_before_the_build(capsys):
    code, out, err = run(
        capsys,
        "poset", "A", "2", "--n", "2", "--top", "e;(1,2,1),(1,2,1)",
        "--check", "thni", "--node-cap", "5",
    )
    assert (code, out) == (2, "")
    assert "unknown check 'thni'" in err
    assert "pure, thin, eulerian, shelling, ball" in err
    assert "node cap" not in err


@pytest.mark.parametrize("checks", ["", ","])
def test_poset_check_naming_no_check_is_rejected(capsys, checks):
    """A check list with no name would pass vacuously, reporting no check."""
    code, out, err = run(
        capsys, "poset", "A", "2", "--n", "2", "--top", "e;(1),(1)", "--check", checks
    )
    assert (code, out) == (2, "")
    assert err == "error: --check names no check\n"


def test_poset_command_malformed_top(capsys):
    code, _, err = run(capsys, "poset", "A", "2", "--n", "1", "--top", "e;(1,2,1")
    assert code == 2
    assert "position" in err


def test_poset_command_empty_stratum(capsys):
    code, _, err = run(capsys, "poset", "A", "1", "--n", "1", "--top", "1;(e)")
    assert code == 2
    assert "error" in err


def test_cell_command(capsys):
    code, out, _ = run(
        capsys,
        "cell", "--k", "2", "--n", "2", "--v", "1", "--w", "(1);(1)",
        "--params", "3/2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    point = payload["points"][0]
    assert point["point"]["factors"][0] == [["1", "0"], ["3/2", "1"]]
    assert point["stratum"] == {"v": [1], "w": [[1], [1]]}


def test_cell_command_fails_a_point_that_breaks_an_assertion(capsys, monkeypatch):
    """A failed internal assertion fails that point's check, with the error
    as its witness, and the point is not listed; the other points are."""
    real = twisted.parametrize_cell

    def breaks_at_two(v, wbar, params, **kwargs):
        if params == [2]:
            raise AssertionError("cell point left its opposite Schubert cell")
        return real(v, wbar, params, **kwargs)

    monkeypatch.setattr(twisted, "parametrize_cell", breaks_at_two)
    payloads = []
    for params in ("2", "1"):
        code, out, _ = run(capsys, "cell", "--k", "2", "--n", "2", "--v", "1",
                           "--w", "(1);(1)", "--params", params)
        payloads.append((code, json.loads(out)))
    (code, broken), (ok_code, ok) = payloads
    assert (code, broken["status"], ok_code, ok["status"]) == (1, "fail", 0, "pass")
    assert broken["checks"] == [{"check": "point-0", "status": "fail", "witness": {
        "params": ["2"], "error": "cell point left its opposite Schubert cell"}}]
    assert broken["points"] == [] and len(ok["points"]) == 1
    assert list(broken)[-1] == "points"


def test_cell_command_random(capsys):
    """Random points pass their checks, on a k=3 n=2 and a k=4 n=1 stratum.
    Every point the report writes decodes by ``ZPoint.from_json`` to a
    point of the report's stratum, which encodes back to the point as
    written."""
    for k, n, v, w, count in (("3", "2", "", "(1,2);(2,1)", 10), ("4", "1", "(2)", "(1,2,3,2)", 3)):
        code, out, _ = run(
            capsys,
            "cell", "--k", k, "--n", n, "--v", v, "--w", w,
            "--random", str(count), "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == count
        assert all(c["status"] == "pass" for c in payload["checks"])
        group = type_a_group(int(k))
        for point in payload["points"]:
            z = twisted.ZPoint.from_json(point["point"])
            label = point["stratum"]
            assert twisted.stratum(z) == (
                group.from_word(t - 1 for t in label["v"]),
                tuple(group.from_word(t - 1 for t in word) for word in label["w"]),
            )
            assert z.to_json() == point["point"]


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "A", "2", "--n", "2", "--top", "e;(1,2,1),(1,2,1)", "--check", "ball"),
        ("cell", "--k", "3", "--n", "2", "--v", "e", "--w", "(1,2);(2,1)", "--random", "3"),
    ],
    ids=["poset", "cell"],
)
def test_poset_and_cell_reports_are_timed(capsys, argv):
    """The command times itself; the time is the one field that moves
    between runs, and the report keeps its fields in their order."""
    reports = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("elapsed_s") > 0
        reports.append(payload)
    assert reports[0] == reports[1]
    fields = ["schema", "command", "inputs", "seed", "budget", "status", "checks"]
    assert list(reports[0]) == fields + (["points"] if argv[0] == "cell" else [])
    assert reports[0]["status"] == "pass"


def test_sub_millisecond_poset_report_is_timed(capsys):
    """The smallest interval, (e ; s1) in A1, builds and checks in well
    under a millisecond; its report keeps that time in microseconds rather
    than rounding it to 0."""
    for _ in range(3):
        code, out, _ = run(capsys, "poset", "A", "1", "--top", "e;(1)")
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["nodes"] == 4
        assert payload["elapsed_s"] > 0


def test_cell_command_rejects_bad_input(capsys):
    code, _, err = run(
        capsys,
        "cell", "--k", "2", "--n", "2", "--v", "1", "--w", "(1);(1)",
        "--params", "-1",
    )
    assert code == 2
    code, _, err = run(
        capsys,
        "cell", "--k", "2", "--n", "2", "--v", "1", "--w", "(e);(e)",
        "--params", "",
    )
    assert code == 2


def test_cell_refuses_a_word_that_is_not_reduced_as_typed(capsys):
    """A --w part whose product is shorter than its letters is refused with
    exit 2 and the part as the user typed it, not its 0-based letters."""
    code, _, err = run(capsys, "cell", "--k", "3", "--n", "1", "--w", "(1,1)", "--params", "1,2")
    assert code == 2
    assert "'(1,1)' is not a reduced word" in err and "(0, 0)" not in err
    code, _, err = run(capsys, "cell", "--k", "3", "--n", "2", "--w", "(1,2);(2, 1,1)",
                       "--params", "1,2,3")
    assert code == 2
    assert "'(2, 1,1)' is not a reduced word" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "sl2-triangle")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["seed"] == 0


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "sl2-triangle", "--seed", "5")
    code2, out2, _ = run(capsys, "verify", "sl2-triangle", "--seed", "5")
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_s"), p2.pop("elapsed_s")
    assert p1 == p2 and code1 == code2 == 0


def test_poset_shelling_check_and_budget(capsys):
    code, out, _ = run(
        capsys,
        "poset", "A", "1", "--n", "2", "--top", "e;(1),(1)", "--check", "shelling",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["status"] == "pass"
    # three atoms of the triangle, then the two atoms above each of them
    assert payload["checks"][0]["witness"] == {
        "certificate": "rao", "facets": 6, "attempts": 9, "backtracks": 0,
    }
    # a one-attempt budget leaves the search inconclusive, which is not a failure
    code, out, _ = run(
        capsys,
        "poset", "A", "1", "--n", "2", "--top", "e;(1),(1)",
        "--check", "shelling", "--budget", "1",
    )
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["status"] == "inconclusive" and check["witness"]["exhausted"] is False


def test_cell_stratum_failure_exits_1(capsys, monkeypatch):
    """A theorem-check failure (forced here) is exit 1, not a usage error."""
    from tnnflag import twisted

    real = twisted.stratum

    def wrong_stratum(z):
        v, wbar = real(z)
        return v.group.from_word((0,)), wbar

    monkeypatch.setattr(twisted, "stratum", wrong_stratum)
    code, out, _ = run(
        capsys,
        "cell", "--k", "2", "--n", "2", "--v", "e", "--w", "(1);(1)",
        "--params", "1,2",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert any(c["status"] == "fail" for c in payload["checks"])


def _wrong_stratum(z, real=twisted.stratum):
    v, wbar = real(z)
    return v.group.from_word((0,)), wbar


@pytest.mark.parametrize("suite, module, name, broken, error", [
    ("cell-containment", twisted, "stratum", _wrong_stratum,
     "parametrized point landed outside its stratum"),
    ("duality", twisted, "dual_stratum", lambda v, wbar: (v, tuple(wbar)),
     "duality image landed outside the predicted stratum"),
    ("double-bruhat", slk, "is_tnn", lambda g: False,
     "double Bruhat product is not totally nonnegative"),
], ids=["cell-containment", "duality", "double-bruhat"])
def test_verify_suite_reports_a_failed_assertion(capsys, monkeypatch, suite, module, name,
                                                 broken, error):
    """A point that breaks the assertion of a checked chart, of ``phi_Z``
    or of ``db_positive`` (forced here) fails its suite's sweep with the
    error as witness: exit 1 and a ``fail`` entry, not a traceback."""
    monkeypatch.setattr(module, name, broken)
    code, out, err = run(capsys, "verify", suite)
    payload = json.loads(out)
    assert (code, payload["status"], err) == (1, "fail", "")
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert failed and all(entry["error"] == error
                          for c in failed for entry in c["witness"]["bad"])


def test_cell_checks_k_before_building_the_group(capsys, monkeypatch):
    """k below 2 is a usage error, raised before the k x k Cartan matrix of
    the Weyl group is built."""
    from tnnflag import weyl

    built = []
    monkeypatch.setattr(weyl, "cartan_of_type", lambda *args: built.append(args))
    code, _, err = run(capsys, "cell", "--k", "1", "--n", "1", "--w", "(1)")
    assert code == 2
    assert err.startswith("error:") and "k must be >= 2" in err
    assert built == []


def test_cell_command_past_k_max(capsys):
    """k = 16 is past ``slk.K_MAX``, which bounds only is_tnn's minors: two
    random points of the top cell (e; w0) pass every check."""
    from tnnflag import slk

    w0 = ",".join(str(i) for j in range(1, 16) for i in range(j, 0, -1))
    code, out, _ = run(capsys, "cell", "--k", "16", "--n", "1", "--v", "e", "--w", f"({w0})",
                       "--random", "2")
    assert code == 0 and 16 > slk.K_MAX
    payload = json.loads(out)
    assert payload["status"] == "pass" and len(payload["points"]) == 2
    assert payload["checks"] and all(c["status"] == "pass" for c in payload["checks"])


def test_cell_zero_denominator_is_usage_error(capsys):
    code, _, err = run(
        capsys, "cell", "--k", "2", "--n", "1", "--w", "(1)", "--params", "1/0",
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_output_into_missing_directory_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "no-such-dir"
    for flag in ("--dot", "--json"):
        code, out, err = run(
            capsys,
            "poset", "A", "1", "--n", "1", "--top", "e;(1)", "--check", "pure",
            flag, str(missing / "out"),
        )
        assert code == 2
        assert err.startswith("error:") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cell", "--k", "2", "--n", "1", "--w", "(1)", "--random", "-2"],
        ["poset", "A", "1", "--top", "e;(1)", "--budget", "-1"],
        ["poset", "A", "1", "--top", "e;(1)", "--node-cap", "-5"],
        ["verify", "sl2-triangle", "--budget", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_verify_budget_zero_is_kept(capsys):
    code, out, _ = run(capsys, "verify", "braid", "--budget", "0")
    payload = json.loads(out)
    assert payload["budget"] == 0
    assert payload["status"] == "inconclusive" and code == 0


def test_verify_sl2_triangle_honours_budget(capsys):
    code, out, _ = run(capsys, "verify", "sl2-triangle", "--budget", "1")
    payload = json.loads(out)
    assert code == 0 and payload["budget"] == 1
    assert payload["status"] == "inconclusive"
    ball = {c["check"]: c for c in payload["checks"]}["regular-ball"]
    assert ball["status"] == "inconclusive"
    shelling = {c["check"]: c for c in ball["witness"]["checks"]}["shelling"]
    assert shelling["status"] == "inconclusive"
    # the default budget decides it, and boundary-euler reads the ball's chi
    code, out, _ = run(capsys, "verify", "sl2-triangle")
    payload = json.loads(out)
    checks = {c["check"]: c for c in payload["checks"]}
    assert payload["budget"] == verify.DEFAULT_SHELLING_BUDGET
    assert checks["regular-ball"]["status"] == "pass"
    assert checks["boundary-euler"]["witness"] == {"chi": 0}


def test_verify_braid_spent_budget_is_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "braid", "--budget", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "inconclusive"
    words = payload["checks"][0]
    assert words["status"] == "inconclusive" and "bad" not in words["witness"]
    assert words["witness"]["inconclusive"][0]["budget"] == 1


def test_add_sweep_witness_shapes():
    """A sweep's witness holds its counts, then the first five of each
    nonempty list; any bad witness fails the check."""
    report = verify.RunReport("sweep", {})
    bad = [{"x": i} for i in range(7)]
    spent = [{"budget": i} for i in range(6)]
    report.add_sweep("clean", {"pairs": 3}, [])
    report.add_sweep("broken", {"pairs": 3}, bad)
    report.add_sweep("spent", {"pairs": 3}, [], spent)
    report.add_sweep("both", {"pairs": 3}, bad[:1], spent[:1])
    assert report.checks == [
        {"check": "clean", "status": "pass", "witness": {"pairs": 3}},
        {"check": "broken", "status": "fail", "witness": {"pairs": 3, "bad": bad[:5]}},
        {"check": "spent", "status": "inconclusive",
         "witness": {"pairs": 3, "inconclusive": spent[:5]}},
        {"check": "both", "status": "fail",
         "witness": {"pairs": 3, "bad": bad[:1], "inconclusive": spent[:1]}},
    ]
    assert report.status == "fail" and report.exit_code == 1


@pytest.mark.parametrize(
    "family, rank, n, top",
    [("A", 2, 2, "e;(1,2),(2,1)"), ("B", 2, 2, "e;(1,2,1,2),(1,2,1,2)")],
    ids=["A2-pair", "B2-rank8"],
)
def test_check_regular_ball_matches_poset_ball(capsys, family, rank, n, top):
    """The library's ball report lists the entries of the CLI's ``ball`` check."""
    code, out, _ = run(capsys, "poset", family, str(rank), "--n", str(n), "--top", top,
                       "--check", "ball")
    [ball] = json.loads(out)["checks"]
    group = WeylGroup(cartan_of_type(family, rank))
    report = check_regular_ball(make_qnode(*parse_top_spec(group, top, n)))
    assert report.checks == ball["witness"]["checks"]
    assert (report.status, report.exit_code) == (ball["status"], code) == ("pass", 0)


@pytest.mark.parametrize("name", verify.CHECKS)
def test_every_check_name_runs_on_the_triangle(capsys, name):
    code, out, err = run(capsys, "poset", "A", "1", "--n", "2", "--top", "e;(1),(1)",
                         "--check", name)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [c["check"] for c in payload["checks"]] == [name]
    assert payload["status"] == "pass" and payload["seed"] is None


def test_every_suite_reports_its_verify_command(monkeypatch):
    # the command does not depend on how many strata a suite sweeps
    strata = verify.iter_qnodes
    monkeypatch.setattr(verify, "iter_qnodes", lambda *a, **kw: islice(strata(*a, **kw), 3))
    for name, suite in verify.SUITES.items():
        assert suite(budget=0).to_json()["command"] == f"verify {name}"


WORD_TOKENS = ["1", "2", "3", "0", "e", "inf1", ",", "(", ")", " ", "x", "-"]
PARAM_TOKENS = ["1", "2", "0", "/", "-", ".", ",", " ", "a"]


def texts(tokens, separators=()):
    """Token soup: mostly malformed input."""
    return st.lists(st.sampled_from(tokens + list(separators)), max_size=12).map("".join)


# well-formed words and parameter lists, so that some commands succeed
WORDS = st.one_of(
    st.just("e"),
    st.lists(st.sampled_from(["1", "2"]), min_size=1, max_size=4).map(
        lambda letters: "(" + ",".join(letters) + ")"
    ),
    texts(WORD_TOKENS),
)
PARAMS = st.one_of(
    st.lists(st.sampled_from(["1", "2", "1/2", "3/2"]), max_size=6).map(",".join),
    texts(PARAM_TOKENS),
)


def exit_code_and_stderr(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    top=st.one_of(
        st.tuples(WORDS, WORDS, WORDS).map(lambda t: f"{t[0]};{t[1]},{t[2]}"),
        texts(WORD_TOKENS, [";", ";"]),
    ),
    budget=st.sampled_from(["0", "40"]),
)
def test_fuzz_poset_top_spec(top, budget):
    code, err = exit_code_and_stderr([
        "poset", "A", "2", "--n", "2", f"--top={top}", "--check", "pure,thin,eulerian,ball",
        "--budget", budget, "--node-cap", "40",
    ])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    v=WORDS,
    w=st.one_of(st.tuples(WORDS, WORDS).map(";".join), texts(WORD_TOKENS, [";", ";"])),
    params=PARAMS,
)
def test_fuzz_cell_words_and_params(v, w, params):
    code, err = exit_code_and_stderr(
        ["cell", "--k", "3", "--n", "2", f"--v={v}", f"--w={w}", f"--params={params}"]
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@st.composite
def poset_command_lines(draw):
    """(family, rank, n, top) for the poset command: any family and rank,
    and tops that mostly have n factors over the family's vertex labels
    (drawn from 0 to rank + 1: those of affine-A are 0 to rank, the others'
    1 to rank).  At most three letters per factor keep each lower interval
    within 8 elements."""
    family = draw(st.sampled_from(["A", "B", "C", "D", "affine-A", "junk"]))
    rank = draw(st.integers(-2, 6))
    n = draw(st.integers(0, 3))
    letters = st.sampled_from([str(i) for i in range(max(rank, 1) + 2)])
    word = st.one_of(
        st.just("e"),
        st.lists(letters, min_size=1, max_size=3).map(lambda ls: "(" + ",".join(ls) + ")"),
        st.lists(st.sampled_from(WORD_TOKENS), max_size=5).map("".join),
    )
    factors = draw(st.one_of(st.just(n), st.integers(0, 4)))
    top = draw(st.one_of(
        st.tuples(word, st.lists(word, min_size=factors, max_size=factors)).map(
            lambda t: f"{t[0]};{','.join(t[1])}"
        ),
        st.lists(st.sampled_from(WORD_TOKENS + [";"]), max_size=8).map("".join),
    ))
    return family, rank, n, top


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(args=poset_command_lines())
def test_fuzz_poset_family_rank_and_factors(args):
    family, rank, n, top = args
    code, err = exit_code_and_stderr([
        "poset", family, str(rank), "--n", str(n), f"--top={top}",
        "--check", "pure,thin,eulerian,ball", "--budget", "40", "--node-cap", "60",
    ])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
