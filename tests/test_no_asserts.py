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
    "functionals.DerivativeAtom.apply": "public API: one atom's value, test_functionals.py "
    "test_atom_apply_matches_derive_and_evaluate",
    "functionals.LinearFunctional.directional_at": "public API: conditions along a direction",
    "functionals.LinearFunctional.evaluation": "public API: the point evaluation functional",
    "functionals.LinearFunctional.is_zero": "public API: test_functionals.py "
    "test_normalization_merges_and_sorts",
    "functionals.LinearFunctional.zero": "acceptance criterion: test_acceptance.py builds "
    "functionals from it",
    "functionals.check_leibniz": "benchmark binding: bench/layers.py wraps it",
    "functionals.express_in_span": "acceptance criterion: test_acceptance.py imports it",
    "poly.Poly.coeff": "public API: one coefficient, test_poly.py test_parse_basic",
    "poly.Poly.directional": "public API: the only code that raises InvalidDirection",
    "qn.Report.failures": "public API: the failed checks of a report",
    "qn.qprime_membership": "benchmark binding: bench/layers.py wraps it, bench/tests calls it",
    "sagbi.SagbiBasis.product_for": "benchmark binding: bench/layers.py wraps it",
    "sagbi.bases_equivalent": "acceptance criterion: criteria 3 and 4 compare bases with it",
    "sagbi.kernel_sagbi_raw": "benchmark binding: bench/layers.py wraps it",
    "sagbi.sagbi_from_generators": "acceptance criterion: criteria 3 and 4 rebuild bases with it",
    "sagbi.truncated_algebra_basis": "benchmark binding: bench/tests calls it",
}

# Names that more than one library class defines, as a method or a field,
# where one of them is a method.  An attribute reference ``.name`` reaches
# only the classes listed for the name, and ``Class.name`` only that class,
# so a method of another class needs a caller of its own, or a place in KEPT.
SHARED = {
    "apply": {"functionals.LinearFunctional"},
    "basis": {"linalg.SpanWithin"},
    "codim": {"sagbi.ConditionFiltration"},
    "coeff": {"functionals.DerivativeAtom", "sagbi.SubductionStep"},
    "conditions": {"sagbi.ConditionFiltration"},
    "contains": {"linalg.Echelon", "qn._IdealSlice"},
    "is_zero": {"poly.Poly"},
    "items": {"poly.Poly", "qn.Report"},
    "max_order": {"functionals.LinearFunctional", "sagbi.ConditionFiltration"},
    "order": {"functionals.DerivativeAtom"},
    "passed": {"qn.CheckItem", "qn.Report"},
    "pivots": {"linalg.Echelon", "qn._IdealSlice"},
    "points": {"functionals.LinearFunctional"},
    "rank": {"linalg.Echelon", "qn._IdealSlice"},
    "to_json": {"qn.CheckItem", "qn.Report"},
    "zero": {"poly.Poly"},
}


def definitions(body, prefix, in_class=False):
    """(qualified name, node, is a method) of each function and class, nested ones too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node, in_class
            yield from definitions(node.body, name, isinstance(node, ast.ClassDef))


def members(cls):
    """The names a class defines: methods, class attributes, slots and ``self.`` stores."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names.update(
                        c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                    )
                elif isinstance(target, ast.Name):
                    names.add(target.id)
    names.update(
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )
    return names


def library_classes():
    """(qualified name, node) of every library class, nested ones too."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, node, _ in definitions(tree.body, path.stem):
            if isinstance(node, ast.ClassDef):
                yield qualified, node


def test_shared_member_table_is_current():
    owners, methods = {}, set()
    for qualified, cls in library_classes():
        for name in members(cls):
            owners.setdefault(name, set()).add(qualified)
        methods.update(node.name for node in cls.body if isinstance(node, ast.FunctionDef))
    shared = {
        name for name, classes in owners.items()
        if len(classes) > 1 and name in methods
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert set(SHARED) == shared
    assert all(classes <= owners[name] for name, classes in SHARED.items())


def test_every_library_definition_has_a_library_caller():
    # A method is reached through an attribute, anything else through a
    # name or an attribute, from outside its own definition; the
    # language reaches dunder methods.  A method whose name another class
    # defines too is reached as SHARED says.  A reference records its
    # qualifier: None for a bare name, else the name before the dot, or ""
    # when an expression stands there.
    references, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.lineno, node.id, None))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.lineno, node.attr, getattr(node.value, "id", "")))
        defined += [(path, *found) for found in definitions(tree.body, path.stem)]
    classes = {qualified.rsplit(".", 1)[1] for qualified, _ in library_classes()}

    def calls(qualifier, owner, name):
        """Whether ``qualifier.name`` may call the method ``name`` of ``owner``."""
        if qualifier is None:
            return False
        if name not in SHARED:
            return True
        if qualifier in classes:
            return qualifier == owner.rsplit(".", 1)[1]
        return owner in SHARED[name]

    def reached(path, qualified, node, method):
        owner = qualified.rsplit(".", 1)[0]
        return any(
            name == node.name
            and (not method or calls(qualifier, owner, name))
            and (where != path or not node.lineno <= line <= node.end_lineno)
            for where, line, name, qualifier in references
        )

    unreached = {
        qualified
        for path, qualified, node, method in defined
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not reached(path, qualified, node, method)
    }
    assert unreached == set(KEPT)
    kinds = ("benchmark binding: ", "acceptance criterion: ", "public API: ")
    assert all(reason.startswith(kinds) for reason in KEPT.values())
