"""The library never relies on ``assert``, which ``python -O`` removes,
nor on bare ``RuntimeError``s, which carry no typed exit code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subalg"


def library_nodes():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_raises_no_runtime_error():
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in library_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None
        and raised_name(node) == "RuntimeError"
    ]
    assert found == []
