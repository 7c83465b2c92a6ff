import json

import pytest

from qtrees import cli


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
    from qtrees.qpoly import QPoly

    monkeypatch.setattr(cli.invariant, "q_poly_state", lambda tree: QPoly((999,)))
    code, out, err = run(capsys, "q", "(..)", "--algo", "both")
    assert code == 1
    assert "disagree" in err


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


def test_verify_bound_guard(capsys):
    code, _, err = run(capsys, "verify", "wedge", "--max-size", "99")
    assert code == 2
    assert "99" in err


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


def test_search_delayed_bad_target(capsys):
    code, _, err = run(capsys, "search-delayed", "--target", "x,y", "--max-edges", "2")
    assert code == 2


def test_search_delayed_json(capsys):
    code, out, _ = run(
        capsys, "search-delayed", "--target", "0,1,1,2,1", "--max-edges", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 1
    assert "(1 (1 2))" in doc["witnesses"]


def test_search_delayed_bound_guard(capsys):
    code, _, err = run(capsys, "search-delayed", "--target", "1", "--max-edges", "9")
    assert code == 2


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


def test_enumerate_bound(capsys):
    code, _, err = run(capsys, "enumerate", "plane", "--size", "11")
    assert code == 2


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "enumerate", "plane", "--size", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["count"] == 5
    assert len(doc["trees"]) == 5


def test_hard_cap_env_override(capsys, monkeypatch):
    code, _, _ = run(capsys, "enumerate", "topological", "--size", "8")
    assert code == 2
    monkeypatch.setenv("QTREES_HARD_CAP", "8")
    code, out, _ = run(capsys, "enumerate", "topological", "--size", "8")
    assert code == 0
    assert out.splitlines()[0] == "4279"
    monkeypatch.setenv("QTREES_HARD_CAP", "abc")
    code, out, err = run(capsys, "enumerate", "plane", "--size", "3")
    assert code == 2
    assert out == ""
    assert "QTREES_HARD_CAP" in err


# -- determinism ---------------------------------------------------------------------------


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "presimplicial", "--max-size", "4")
    second = run(capsys, "verify", "presimplicial", "--max-size", "4")
    assert first == second
