"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import qtrees

SOURCE = Path(qtrees.__file__).resolve().parent


def self_calling_functions() -> list[str]:
    """Every function in the package, closures included, whose body calls
    it by name."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
                for call in ast.walk(node)
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_self_calling_functions_stay_few():
    # Recursion limits the depth of input a function accepts, so no function
    # calls itself: the tree walks and the leaf-removal recursion run on
    # explicit stacks, the enumerations build their levels bottom-up, and
    # q_factorial, q_binomial and cyclotomic are loops.
    assert self_calling_functions() == []


def bool_testing_functions() -> list[str]:
    """Every function in the package whose body calls isinstance with bool
    among the types."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and _attr_name(call.func) == "isinstance"
                and len(call.args) == 2
                and any(_attr_name(kind) == "bool" for kind in ast.walk(call.args[1]))
                for call in ast.walk(node)
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_the_int_rule_is_written_once():
    # "an int, not a bool, at least k" lives in qpoly._checked_int, which
    # every count and integer argument goes through.  Only the delay labels,
    # refused with their own ValueError, and a chain's coefficients, a QPoly
    # or an int, test for a bool elsewhere.
    assert bool_testing_functions() == [
        "presimplicial._chain_items",
        "qpoly._checked_int",
        "trees._checked_delays",
    ]


def checked_qpoly_builders() -> list[str]:
    """Every function in the package whose body calls the checked QPoly
    constructor, QPoly(...), rather than QPoly._trusted."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "QPoly"
                for call in ast.walk(node)
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_internal_polynomials_skip_the_coefficient_checks():
    # The checked constructor tests every coefficient, so it is kept for
    # values from outside: an int operand (qpoly._coerce), the command
    # line's search target and the module constants ZERO, ONE and q.  The
    # package's own results, built from checked values, go through
    # QPoly._trusted.
    assert checked_qpoly_builders() == ["cli._cmd_search_delayed", "qpoly._coerce"]


def test_exported_names_resolve():
    # A name removed from a module must leave its __all__ and the package
    # root with it.
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module("qtrees" if path.stem == "__init__" else f"qtrees.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], path.stem
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported and all(hasattr(qtrees, name) for name in imported)


def _modules_where(found) -> list[str]:
    return sorted(
        {
            path.stem
            for path in SOURCE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if found(node)
        }
    )


def _attr_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_size_caps_live_in_the_cli():
    # The library computes any size it is asked for; only the command line
    # refuses a size or a degree, and only it reads the environment.
    raises_cap = _modules_where(
        lambda node: isinstance(node, ast.Raise)
        and node.exc is not None
        and _attr_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        == "BoundExceeded"
    )
    reads_env = _modules_where(
        lambda node: isinstance(node, (ast.Name, ast.Attribute))
        and _attr_name(node) in {"environ", "getenv"}
    )
    assert raises_cap == ["cli"]
    assert reads_env == ["cli"]


def word_readers() -> list[str]:
    """Every top-level function or class in the package, class PlaneTree
    aside, whose body names an attribute _word, and <module> for a
    statement outside them."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if (path.stem, getattr(top, "name", None)) == ("trees", "PlaneTree"):
                continue
            if any(isinstance(node, ast.Attribute) and node.attr == "_word" for node in ast.walk(top)):
                found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_the_word_has_one_reader():
    # A tree is its Dyck word, read outside PlaneTree's own methods only by
    # trees.dyck_word, so a value that is not a tree meets one refusal.
    assert word_readers() == ["trees.dyck_word"]


def test_walks_read_the_word():
    # Every walk over a tree runs on its Dyck word: no module reads
    # .children, which decodes the child subtrees for callers outside the
    # package.  The property itself reads the word.
    assert isinstance(vars(qtrees.trees.PlaneTree)["children"], property)
    assert _modules_where(lambda node: isinstance(node, ast.Attribute) and node.attr == "children") == []


def functions_named(name: str) -> list[str]:
    """Every function in the package, closures and methods included, with
    the given name."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
                found.append(f"{path.stem}.{node.name}")
    return found


def names_called(module: str, function: str) -> set[str]:
    """The names of everything the given top-level function calls."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    (top,) = [node for node in tree.body if getattr(node, "name", None) == function]
    return {_attr_name(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}


def test_the_memo_fill_is_written_once():
    # One memo engine sums a state's moves, packed: the leaf-removal
    # recursion passes its leaf moves and the reduction to the point its
    # faces.  The reduction runs no rounds of face sums of its own.
    assert functions_named("_fill_memo") == ["qpoly._fill_memo"]
    assert "_fill_memo" in names_called("presimplicial", "reduce_to_point")
    assert "_face_sum" not in names_called("presimplicial", "reduce_to_point")
