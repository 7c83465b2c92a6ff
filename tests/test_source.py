"""Checks on the package source itself."""

import ast
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
