"""The library never relies on ``assert``, which ``python -O`` removes,
nor on bare ``RuntimeError``s, which carry no typed exit code; its
modules import nothing they do not use, and it defines nothing that
only the tests reach."""

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


def imported_names(tree):
    """(name, line) bound by each import statement at the top of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_library_modules_use_every_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert found == []


# Definitions that no library code reaches, each kept for a reason: a
# benchmark binding, an acceptance criterion, or public API.
KEPT = {
    "cli._Parser.error": "public API: argparse calls it on a bad command line (exit 1)",
    "functionals.LinearFunctional.directional_at": "public API: conditions along a direction",
    "functionals.LinearFunctional.evaluation": "public API: the point evaluation functional",
    "functionals.check_leibniz": "benchmark binding: bench/layers.py wraps it",
    "functionals.express_in_span": "acceptance criterion: test_acceptance.py imports it",
    "poly.Poly.directional": "public API: the only code that raises InvalidDirection",
    "qn.Report.failures": "public API: the failed checks of a report",
    "qn.qprime_membership": "benchmark binding: bench/layers.py wraps it, bench/tests calls it",
    "sagbi.SagbiBasis.product_for": "benchmark binding: bench/layers.py wraps it",
    "sagbi.bases_equivalent": "acceptance criterion: criteria 3 and 4 compare bases with it",
    "sagbi.kernel_sagbi_raw": "benchmark binding: bench/layers.py wraps it",
    "sagbi.sagbi_from_generators": "acceptance criterion: criteria 3 and 4 rebuild bases with it",
    "sagbi.truncated_algebra_basis": "benchmark binding: bench/tests calls it",
}


def definitions(body, prefix, in_class=False):
    """(qualified name, node, is a method) of each function and class, nested ones too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node, in_class
            yield from definitions(node.body, name, isinstance(node, ast.ClassDef))


def test_every_library_definition_has_a_library_caller():
    # A method is reached through an attribute, anything else through a
    # name or an attribute, from outside its own definition; the
    # language reaches dunder methods.
    references, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.lineno, node.attr, True))
        defined += [(path, *found) for found in definitions(tree.body, path.stem)]

    def reached(path, node, method):
        return any(
            name == node.name
            and (attribute or not method)
            and (where != path or not node.lineno <= line <= node.end_lineno)
            for where, line, name, attribute in references
        )

    unreached = {
        qualified
        for path, qualified, node, method in defined
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not reached(path, node, method)
    }
    assert unreached == set(KEPT)
    kinds = ("benchmark binding: ", "acceptance criterion: ", "public API: ")
    assert all(reason.startswith(kinds) for reason in KEPT.values())
