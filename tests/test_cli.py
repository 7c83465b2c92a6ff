import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qtrees
from qtrees import cli
from qtrees.invariant import RerootCheck, search_delayed
from qtrees.qpoly import ONE, ZERO, QPoly
from qtrees.trees import serialize_delayed


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- q ---------------------------------------------------------------------------


def test_q_plain(capsys):
    code, out, _ = run(capsys, "q", "(..)")
    assert (code, out) == (0, "1 + q\n")


def test_q_json(capsys):
    code, out, _ = run(capsys, "q", ".", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"coeffs": [1]}


def test_q_parse_error(capsys):
    code, _, err = run(capsys, "q", "(..")
    assert code == 2
    assert "offset 3" in err


def test_q_both_agrees(capsys):
    code, out, _ = run(capsys, "q", "(...)", "--algo", "both")
    assert code == 0
    assert out == "recursive: 1 + 2q + 2q^2 + q^3\nstate: 1 + 2q + 2q^2 + q^3\n"


def test_q_both_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli.invariant, "q_poly_state", lambda tree: QPoly((999,)))
    code, out, err = run(capsys, "q", "(..)", "--algo", "both")
    assert code == 1
    assert "disagree" in err


def test_q_both_json(capsys):
    code, out, _ = run(capsys, "q", "(.(..))", "--algo", "both", "--format", "json")
    assert (code, out) == (
        0,
        '{"recursive": {"coeffs": [1, 2, 2, 2, 1]}, "state": {"coeffs": [1, 2, 2, 2, 1]}, "match": true}\n',
    )


def test_q_state_algo(capsys):
    code, out, _ = run(capsys, "q", "(...)", "--algo", "state")
    assert (code, out) == (0, "1 + 2q + 2q^2 + q^3\n")


def test_q_latex(capsys):
    code, out, _ = run(capsys, "q", "(...)", "--format", "latex")
    assert code == 0
    assert out == "1 + 2q + 2q^{2} + q^{3} = \\Phi_{2} \\Phi_{3}\n"


# -- q-delayed --------------------------------------------------------------------


@pytest.mark.parametrize(
    "tree,expected",
    [("(1 2)", "q\n"), ("(2 1)", "1\n"), ("(1 1)", "1 + q\n"), ("(2)", "0\n")],
)
def test_q_delayed(capsys, tree, expected):
    code, out, _ = run(capsys, "q-delayed", tree)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "tree,expected",
    [("(1 3 1)", "q + q^{2} = q \\Phi_{2}\n"), ("(1 1 3)", "q^{2} + q^{3} = q^{2} \\Phi_{2}\n")],
)
def test_q_delayed_latex(capsys, tree, expected):
    assert run(capsys, "q-delayed", tree, "--format", "latex") == (0, expected, "")


def test_q_delayed_zero_delay(capsys):
    code, _, err = run(capsys, "q-delayed", "(1 0)")
    assert code == 2
    assert "zero delay" in err


# -- verify -----------------------------------------------------------------------


def test_verify_wedge(capsys):
    code, out, _ = run(capsys, "verify", "wedge", "--max-size", "4")
    assert code == 0
    assert "0 violations" in out
    assert "pairs" in out


def test_verify_state_json(capsys):
    code, out, _ = run(capsys, "verify", "state", "--max-size", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["family"] == "state"


def test_verify_reroot(capsys):
    code, out, _ = run(capsys, "verify", "reroot", "--max-size", "4")
    assert code == 0
    assert "0 violations" in out


def test_verify_block(capsys):
    code, out, _ = run(capsys, "verify", "block", "--max-size", "6", "--seed", "3")
    assert code == 0
    assert "500 sampled specs, 0 mismatches" in out


def test_verify_presimplicial(capsys):
    code, out, _ = run(capsys, "verify", "presimplicial", "--max-size", "4")
    assert code == 0
    assert "counterexample" in out
    assert "0 violations" in out


_PRESIMPLICIAL_4_SUMMARY = (
    '{"max_leaves": 4, "checked": {"face_face": 75, "deg_deg": 76, "face_deg": 152,'
    ' "face_cancel": 56}, "violations": [], "double_degeneracy_witness":'
    ' [".", 0, "((..).)", "(.(..))"], "basis_trees": 16, "boundary_failures": 0, "ok": true}'
)


@pytest.mark.parametrize(
    "family,fmt,expected",
    [
        ("wedge", "plain", "wedge: checked 64 ordered pairs, 0 violations\n"),
        (
            "wedge",
            "json",
            '{"family": "wedge", "max_size": 4, "ok": true,'
            ' "summary": {"pairs": 64, "violations": 0}}\n',
        ),
        (
            "state",
            "plain",
            "state: checked 23 trees exhaustively and 25 random 12-edge trees, 0 violations\n",
        ),
        (
            "state",
            "json",
            '{"family": "state", "max_size": 4, "ok": true,'
            ' "summary": {"exhaustive": 23, "random": 25, "violations": 0}}\n',
        ),
        ("reroot", "plain", "reroot: checked 76 edges, 0 violations\n"),
        (
            "reroot",
            "json",
            '{"family": "reroot", "max_size": 4, "ok": true,'
            ' "summary": {"edges": 76, "violations": 0}}\n',
        ),
        ("block", "plain", "block: checked 500 sampled specs, 0 mismatches\n"),
        (
            "block",
            "json",
            '{"family": "block", "max_size": 4, "ok": true,'
            ' "summary": {"specs": 500, "violations": 0}}\n',
        ),
        (
            "presimplicial",
            "plain",
            "presimplicial: checked deg_deg=76, face_cancel=56, face_deg=152, face_face=75,"
            " 0 violations\n"
            "presimplicial: alternating boundary squares to zero and reduction matches"
            " the q-factorial on 16 basis trees, 0 failures\n"
            "presimplicial: double-degeneracy counterexample on '.' at index 0:"
            " ((..).) != (.(..))\n",
        ),
        (
            "presimplicial",
            "json",
            '{"family": "presimplicial", "max_size": 4, "ok": true, "summary": '
            + _PRESIMPLICIAL_4_SUMMARY
            + "}\n",
        ),
    ],
)
def test_verify_output_is_pinned(capsys, family, fmt, expected):
    assert run(capsys, "verify", family, "--max-size", "4", "--format", fmt) == (0, expected, "")


def test_verify_bound_guard(capsys):
    code, _, err = run(capsys, "verify", "wedge", "--max-size", "99")
    assert code == 2
    assert "99" in err


@pytest.mark.parametrize(
    "family,max_size,module,enumerator",
    [
        ("wedge", 11, "trees", "_plane_trees"),
        ("state", 11, "trees", "_plane_trees"),
        ("reroot", 11, "trees", "_plane_trees"),
        ("presimplicial", 9, "presimplicial", "_top_trees"),
    ],
)
def test_verify_hard_cap_reaches_every_family(
    capsys, monkeypatch, family, max_size, module, enumerator
):
    # The CLI cap is the only size check, so raising it reaches every family;
    # the enumeration is stubbed empty above size 2 so the run stays instant.
    target = getattr(cli, module)
    real = getattr(target, enumerator)
    monkeypatch.setattr(target, enumerator, lambda n: real(n) if n <= 2 else ())
    code, _, err = run(capsys, "verify", family, "--max-size", str(max_size))
    assert code == 2
    assert "outside" in err
    monkeypatch.setenv("QTREES_HARD_CAP", str(max_size))
    code, out, err = run(capsys, "verify", family, "--max-size", str(max_size))
    assert (code, err) == (0, "")
    assert "0 violations" in out


@pytest.mark.parametrize("size", ["0", "1"])
def test_verify_block_needs_two_edges(capsys, size):
    code, out, err = run(capsys, "verify", "block", "--max-size", size)
    assert (code, out) == (2, "")
    assert "at least 2 edges" in err


@pytest.mark.parametrize(
    "family,size,message",
    [
        ("presimplicial", "0", "outside 1..8 for presimplicial: it needs at least 1 leaf"),
        ("block", "1", "outside 2..12 for block: it needs at least 2 edges"),
    ],
    ids=["presimplicial-0", "block-1"],
)
def test_verify_range_starts_at_family_minimum(capsys, family, size, message):
    code, out, err = run(capsys, "verify", family, "--max-size", size)
    assert (code, out, err) == (2, "", f"error: --max-size {size} {message}\n")


@pytest.mark.parametrize(
    "family,module,name,fake",
    [
        ("wedge", "invariant", "q_poly", lambda tree: QPoly((999,))),
        ("state", "invariant", "q_poly_state", lambda tree: QPoly((999,))),
        ("reroot", "invariant", "check_reroot", lambda tree, addr: RerootCheck(ONE, ZERO, False)),
        ("block", "invariant", "q_poly_block", lambda spec: QPoly((999,))),
        ("presimplicial", "presimplicial", "reduce_to_point", lambda tree: QPoly((999,))),
    ],
    ids=["wedge", "state", "reroot", "block", "presimplicial"],
)
def test_verify_reports_failures(capsys, monkeypatch, family, module, name, fake):
    monkeypatch.setattr(getattr(cli, module), name, fake)
    code, out, _ = run(capsys, "verify", family, "--max-size", "2", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    summary = doc["summary"]
    assert summary["boundary_failures" if family == "presimplicial" else "violations"] > 0
    assert run(capsys, "verify", family, "--max-size", "2")[0] == 1


def test_verify_presimplicial_reports_violations(capsys, monkeypatch):
    # s_1 plants twice (on leaf 1, then on leaf 0), which breaks the
    # degeneracy relations; every violation record lands in the output.
    real = cli.presimplicial._degeneracies

    def broken(word):
        planted = real(word)
        if len(planted) > 1:
            planted[1] = real(planted[1])[0]
        return planted

    monkeypatch.setattr(cli.presimplicial, "_degeneracies", broken)
    code, out, err = run(capsys, "verify", "presimplicial", "--max-size", "4", "--format", "json")
    assert (code, err) == (1, "")
    assert hashlib.sha1(out.encode()).hexdigest() == "608382d2b55cd252ec771d325e6fe2d8c64bb06c"
    summary = json.loads(out)["summary"]
    assert len(summary["violations"]) == 126
    assert summary["violations"][0] == {
        "relation": "deg_deg",
        "tree": "(..)",
        "indices": [0, 1],
        "lhs": "(((..).)(..))",
        "rhs": "((..)(..))",
    }
    code, out, err = run(capsys, "verify", "presimplicial", "--max-size", "4")
    assert (code, err) == (1, "")
    assert out.splitlines()[0].endswith(", 126 violations")


def test_verify_presimplicial_without_witness(capsys, monkeypatch):
    # the point always has a double-degeneracy counterexample, so only a
    # stub reaches the line that reports none
    real = cli.verify.identities

    def no_witness(max_leaves):
        _, summary = real(max_leaves)
        summary["double_degeneracy_witness"] = None
        return False, summary

    monkeypatch.setattr(cli.verify, "identities", no_witness)
    code, out, _ = run(capsys, "verify", "presimplicial", "--max-size", "3")
    assert code == 1
    assert out.splitlines()[-1] == "presimplicial: no double-degeneracy counterexample found"


def test_verify_unknown_family(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


# -- search-delayed ------------------------------------------------------------------


def test_search_delayed_finds_witness(capsys):
    code, out, _ = run(capsys, "search-delayed", "--target", "1,2,1,1", "--max-edges", "4")
    assert code == 0
    assert "((2 1) 1)" in out.splitlines()


def test_search_delayed_none_found(capsys):
    code, out, err = run(capsys, "search-delayed", "--target", "5", "--max-edges", "1")
    assert code == 1
    assert out == ""
    # 16384 = 2**14 fits no 7-bit field of the 5-edge values (5! < 2**7),
    # where packed it would alias q**2, whose witnesses are found
    code, out, err = run(capsys, "search-delayed", "--target", "16384", "--max-edges", "5")
    assert code == 1
    assert out == ""
    code, out, err = run(capsys, "search-delayed", "--target", "0,0,1", "--max-edges", "5")
    assert code == 0
    assert len(out.splitlines()) == 81


def test_search_delayed_bad_target(capsys):
    code, _, err = run(capsys, "search-delayed", "--target", "x,y", "--max-edges", "2")
    assert code == 2


def test_search_delayed_target_brackets(capsys):
    # one surrounding pair of brackets is stripped; any other bracket is an error
    bare = run(capsys, "search-delayed", "--target", "1,2,1,1", "--max-edges", "4")
    assert run(capsys, "search-delayed", "--target", " [1,2,1,1] ", "--max-edges", "4") == bare
    for target in ("1]2", "1,[1", "[1,1", "[[1,1]]"):
        assert run(capsys, "search-delayed", "--target", target, "--max-edges", "2") == (
            2,
            "",
            f"error: target must be comma-separated integers, got {target!r}\n",
        )


def test_search_delayed_json(capsys):
    code, out, _ = run(
        capsys, "search-delayed", "--target", "0,1,1,2,1", "--max-edges", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 1
    assert "(1 (1 2))" in doc["witnesses"]


def test_search_delayed_writes_in_batches(capsys):
    # the witnesses are written in batches; the bytes must be those of one
    # line per witness, and in JSON those of the whole document through one
    # json.dumps
    witnesses = [serialize_delayed(hit) for hit in search_delayed(ZERO, 5)]
    assert len(witnesses) == 8943 > 2 * cli._BATCH
    code, out, _ = run(capsys, "search-delayed", "--target", "0", "--max-edges", "5")
    assert (code, out) == (0, "".join(line + "\n" for line in witnesses))
    code, out, _ = run(capsys, "search-delayed", "--target", "0", "--max-edges", "5", "--format", "json")
    doc = {"target": [], "max_edges": 5, "count": 8943, "witnesses": witnesses}
    assert (code, out) == (0, json.dumps(doc) + "\n")
    code, out, err = run(capsys, "search-delayed", "--target", "5", "--max-edges", "1", "--format", "json")
    assert (code, err) == (1, "")
    assert out.endswith('"count": 0, "witnesses": []}\n')
    assert json.loads(out) == {"target": [5], "max_edges": 1, "count": 0, "witnesses": []}


def test_search_delayed_bound_guard(capsys):
    assert run(capsys, "search-delayed", "--target", "1", "--max-edges", "9") == (
        2,
        "",
        "error: --max-edges 9 exceeds hard cap 7\n",
    )


# -- reduce ----------------------------------------------------------------------------


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "(..)")
    assert (code, out) == (0, "1 + q (= [2]_q!)\n")


def test_reduce_point(capsys):
    code, out, _ = run(capsys, "reduce", ".")
    assert (code, out) == (0, "1 (= [1]_q!)\n")


def test_reduce_three_star(capsys):
    code, out, _ = run(capsys, "reduce", "(...)")
    assert (code, out) == (0, "1 + 2q + 2q^2 + q^3 (= [3]_q!)\n")


def test_reduce_normalizes_first(capsys):
    code, out, _ = run(capsys, "reduce", "((..))")
    assert (code, out) == (0, "1 + q (= [2]_q!)\n")


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "(...)", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["match"] is True
    assert doc["coeffs"] == [1, 2, 2, 1]
    assert doc["leaves"] == 3


def test_reduce_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli.presimplicial, "reduce_to_point", lambda tree: QPoly((999,)))
    assert run(capsys, "reduce", "(..)") == (1, "999 (expected [2]_q! = 1 + q)\n", "")
    assert run(capsys, "reduce", "(..)", "--format", "latex") == (1, "999 \\neq [2]_q!\n", "")
    code, out, _ = run(capsys, "reduce", "(..)", "--format", "json")
    assert code == 1
    assert json.loads(out)["match"] is False


def test_reduce_parse_error(capsys):
    code, _, err = run(capsys, "reduce", "((")
    assert code == 2


# -- enumerate ----------------------------------------------------------------------------


def test_enumerate_plane(capsys):
    code, out, _ = run(capsys, "enumerate", "plane", "--size", "2")
    assert code == 0
    assert out == "2\n(..)\n((.))\n"


def test_enumerate_topological(capsys):
    code, out, _ = run(capsys, "enumerate", "topological", "--size", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    assert len(lines) == 4


def test_enumerate_point(capsys):
    code, out, _ = run(capsys, "enumerate", "topological", "--size", "1")
    assert (code, out) == (0, "1\n.\n")


@pytest.mark.parametrize(
    "argv,lines_read",
    [
        # ~290 kB, more than a pipe holds, so the writer is still writing
        # when the reader closes
        (["enumerate", "plane", "--size", "10"], 1),
        # closed before the first write
        (["verify", "presimplicial", "--max-size", "4"], 0),
    ],
)
def test_reader_closing_the_pipe_prints_no_traceback(argv, lines_read):
    src = str(Path(qtrees.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtrees.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_enumerate_bound(capsys):
    assert run(capsys, "enumerate", "plane", "--size", "11") == (
        2,
        "",
        "error: size 11 exceeds hard cap 10\n",
    )
    assert run(capsys, "enumerate", "topological", "--size", "9") == (
        2,
        "",
        "error: size 9 exceeds hard cap 8\n",
    )


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "enumerate", "plane", "--size", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["count"] == 5
    assert len(doc["trees"]) == 5


def test_hard_cap_env_override(capsys, monkeypatch):
    code, _, _ = run(capsys, "enumerate", "topological", "--size", "9")
    assert code == 2
    monkeypatch.setenv("QTREES_HARD_CAP", "9")
    code, out, _ = run(capsys, "enumerate", "topological", "--size", "9")
    assert code == 0
    assert out.splitlines()[0] == "20793"
    monkeypatch.setenv("QTREES_HARD_CAP", "abc")
    code, out, err = run(capsys, "enumerate", "plane", "--size", "3")
    assert code == 2
    assert out == ""
    assert "QTREES_HARD_CAP" in err


# -- resource failures ------------------------------------------------------------------


@pytest.mark.parametrize("command", ["q", "q-delayed"])
def test_deep_tree_exits_cleanly(capsys, command):
    # the leaf-removal recursion runs on an explicit stack
    path = "(" * 1200 + "." + ")" * 1200
    start = time.perf_counter()
    assert run(capsys, command, path) == (0, "1\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["q", "--algo", "recursive"],
        ["q", "--algo", "state"],
        ["q", "--algo", "both"],
        ["q-delayed"],
        ["reduce"],
    ],
)
def test_degree_preflight_refuses_a_wide_star(capsys, argv):
    # [1200]_q! has degree 1200 * 1199 / 2; every evaluator would take
    # minutes, and so would the reduction, whose answer it is
    wide = "(" + "." * 1200 + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], wide, *argv[1:])
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: degree 719400 of the q-polynomial exceeds hard cap 20000 (QTREES_HARD_CAP raises it)\n"


@pytest.mark.parametrize("command", ["q", "q-delayed", "reduce"])
def test_degree_cap_is_inclusive_and_raised_by_the_env(capsys, monkeypatch, command):
    monkeypatch.setitem(cli._HARD_CAPS, "degree", 5)
    assert run(capsys, command, "(...)")[0] == 0  # [3]_q! has degree 3
    assert run(capsys, command, "(..(.))")[0] == 0  # degree 5; reduce normalizes it to (...)
    code, out, err = run(capsys, command, "(....)")  # [4]_q! has degree 6
    assert (code, out) == (2, "")
    assert "degree 6" in err
    monkeypatch.setenv("QTREES_HARD_CAP", "6")
    assert run(capsys, command, "(....)")[0] == 0
    monkeypatch.setenv("QTREES_HARD_CAP", "six")
    code, out, err = run(capsys, command, "(..)")
    assert (code, out) == (2, "")
    assert "QTREES_HARD_CAP" in err


@pytest.mark.parametrize("algo", ["state", "both"])
def test_deep_tree_state_product(capsys, algo):
    # a root with a leaf beside a 2,000-level path: the state product needs
    # the Gaussian binomial C(2002, 1), which is built without recursing
    deep = "(." + "(" * 2000 + "." + ")" * 2000 + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, "q", deep, "--algo", algo)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    recursive = run(capsys, "q", deep)[1]
    assert out == (recursive if algo == "state" else f"recursive: {recursive}state: {recursive}")


def test_deep_path_reduces(capsys):
    path = "(" * 1200 + "." + ")" * 1200
    assert run(capsys, "reduce", path) == (0, "1 (= [1]_q!)\n", "")


# -- determinism ---------------------------------------------------------------------------


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "presimplicial", "--max-size", "4")
    second = run(capsys, "verify", "presimplicial", "--max-size", "4")
    assert first == second


# -- README examples ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"

# The README lines whose comment is their exact output; the other comments
# describe what the command does.
PRINTS_ITS_COMMENT = ['qtrees q "(..)"', 'qtrees q "." --format json', 'qtrees q-delayed "(1 2)"', 'qtrees reduce "(...)"']


def test_readme_command_line_examples_run(capsys):
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        if not command.startswith("qtrees "):
            continue
        commands.append(command)
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert (code, err) == (0, ""), command
        if command in PRINTS_ITS_COMMENT:
            assert out == comment + "\n", command
    assert set(PRINTS_ITS_COMMENT) <= set(commands)
