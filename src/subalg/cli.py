"""Command-line front end: session files in, bases and reports out.

A session is a single JSON document naming the variable count, an
optional term order, and the ordered condition list.  Subcommands build
the filtration and answer queries about it.  All numeric output is
exact rational; output ordering is deterministic, so identical sessions
produce byte-identical output.

Exit codes: 0 on success (including a negative membership verdict),
1 for input or parse problems or an input refused as too large, 2 for
an invalid filtration, 3 when a verification report contains a failed
check, 4 when an internal invariant fails (a bug in the library, not in
the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .errors import InvalidFiltration, InvariantError, SubalgError
from .functionals import (
    Condition,
    ConditionKind,
    LinearFunctional,
    character_difference,
)
from .poly import (
    DEGREVLEX,
    Point,
    Poly,
    TermOrder,
    as_point,
    format_poly,
    indices_from_partials,
    parse_poly,
    partials_from_indices,
)
from .qn import CheckItem, Report, point_set, qn_spec, qn_build, verify_d_of_q, verify_main_theorem, verify_qprime_eq_q
from .sagbi import CodimReport, ConditionFiltration, build_from_conditions, subduce
from .spectrum import derivation_space, spectrum


class SessionError(ValueError):
    """The session document is malformed."""


# -- session parsing --------------------------------------------------


def _rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SessionError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SessionError(f"bad rational {value!r}") from exc
    raise SessionError(f"expected a rational number, got {value!r}")


def _point(value, n: int) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise SessionError(f"expected a point with {n} coordinates, got {value!r}")
    return tuple(_rational(c) for c in value)


def condition_from_json(obj, n: int) -> Condition:
    """One session condition; every malformed one raises ``SessionError``."""
    try:
        return _condition(obj, n)
    except SubalgError as exc:
        raise SessionError(str(exc)) from exc


def _condition(obj, n: int) -> Condition:
    if not isinstance(obj, dict):
        raise SessionError("each condition must be a JSON object")
    kind = obj.get("type")
    if kind == "chardiff":
        alpha = _point(obj.get("alpha"), n)
        beta = _point(obj.get("beta"), n)
        coeff = _rational(obj.get("c", 1))
        return Condition(
            character_difference(alpha, beta, coeff),
            ConditionKind.chardiff(alpha, beta),
        )
    if kind == "derivation":
        point = _point(obj.get("point"), n)
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise SessionError("a derivation condition needs a nonempty terms list")
        functional = LinearFunctional.zero(n)
        for term in terms:
            if not isinstance(term, dict):
                raise SessionError("each derivation term must be a JSON object")
            indices = term.get("partials")
            if not isinstance(indices, list) or not indices:
                raise SessionError("each derivation term needs a partials list")
            if any(isinstance(i, bool) or not isinstance(i, int) for i in indices):
                raise SessionError(f"partials must be variable indices, got {indices!r}")
            partials = partials_from_indices(indices, n)
            coeff = _rational(term.get("coeff", 1))
            at = _point(term["point"], n) if "point" in term else point
            functional = functional + LinearFunctional.partial_at(at, partials, coeff)
        return Condition(functional, ConditionKind.derivation(point))
    raise SessionError(f"unknown condition type {kind!r}")


def _format_rational(value: Fraction) -> str:
    return str(value)


def _format_point(point: Point) -> str:
    return "(" + ",".join(_format_rational(c) for c in point) + ")"


def _point_json(point: Point) -> list[str]:
    return [_format_rational(c) for c in point]


def condition_to_json(cond: Condition) -> dict:
    if cond.kind.name == "chardiff":
        atoms = cond.functional.atoms
        coeff = atoms[0].coeff if atoms else Fraction(1)
        alpha = cond.kind.alpha
        if atoms and atoms[0].point != alpha:
            coeff = -coeff
        return {
            "type": "chardiff",
            "alpha": _point_json(cond.kind.alpha),
            "beta": _point_json(cond.kind.beta),
            "c": _format_rational(coeff),
        }
    return functional_to_derivation_json(cond.functional, cond.kind.alpha)


def functional_to_derivation_json(functional: LinearFunctional, point: Point) -> dict:
    """Render a combination of derivative evaluations in the session schema."""
    terms = []
    for atom in functional.atoms:
        terms.append(
            {
                "coeff": _format_rational(atom.coeff),
                "partials": indices_from_partials(atom.partials),
                "point": _point_json(atom.point),
            }
        )
    return {"type": "derivation", "point": _point_json(point), "terms": terms}


_ORDERS = {"lex": TermOrder("lex"), "deglex": TermOrder("deglex"), "degrevlex": DEGREVLEX}


class Session:
    """Validated session content: size, order, conditions."""

    def __init__(self, n: int, order: TermOrder, conditions: Sequence[Condition]):
        self.n = n
        self.order = order
        self.conditions = tuple(conditions)

    @classmethod
    def load(cls, path: str, order_override: str | None = None) -> Session:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SessionError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SessionError(f"{path}: the session must be a JSON object")
        n = data.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise SessionError(f"{path}: 'n' must be a positive integer")
        order_name = order_override or data.get("order", "degrevlex")
        if not isinstance(order_name, str) or order_name not in _ORDERS:
            raise SessionError(f"{path}: unknown order {order_name!r}")
        raw = data.get("conditions", [])
        if not isinstance(raw, list):
            raise SessionError(f"{path}: 'conditions' must be a list")
        conditions = [condition_from_json(obj, n) for obj in raw]
        return cls(n, _ORDERS[order_name], conditions)

    def build(self) -> ConditionFiltration:
        return build_from_conditions(self.n, self.conditions, self.order)


# -- rendering --------------------------------------------------------


def describe_condition(cond: Condition) -> str:
    if cond.kind.name == "chardiff":
        return (
            f"chardiff {_format_point(cond.kind.alpha)} ~ "
            f"{_format_point(cond.kind.beta)}"
        )
    body = repr(cond.functional)
    return f"derivation at {_format_point(cond.kind.alpha)}: {body}"


def render_report(report: Report) -> tuple[str, object]:
    """Stable text plus machine form for a verification report."""
    if not report.items:
        return "all checks passed", {}
    lines = []
    failures = 0
    for item in report.items:
        if item.passed:
            lines.append(f"check {item.check}: pass")
        else:
            failures += 1
            lines.append(f"check {item.check}: FAIL {json.dumps(item.details, sort_keys=True)}")
    if failures:
        lines.append(f"{failures} check(s) failed")
    else:
        lines.append("all checks passed")
    machine = {"pass": report.passed, "checks": report.to_json()}
    return "\n".join(lines), machine


def _parse_cli_point(text: str, n: int) -> Point:
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    parts = [p.strip() for p in cleaned.split(",")] if cleaned else []
    if len(parts) != n:
        raise SessionError(f"expected {n} comma-separated coordinates, got {text!r}")
    try:
        return as_point([Fraction(p) for p in parts], n)
    except (ValueError, ZeroDivisionError) as exc:
        raise SessionError(f"bad point {text!r}") from exc


def _parse_cli_points(text: str, n: int) -> list[Point]:
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise SessionError("expected at least one point")
    points = [_parse_cli_point(chunk, n) for chunk in chunks]
    try:
        point_set(points, n)
    except ValueError as exc:
        raise SessionError(str(exc)) from exc
    return points


def _emit(payload, as_json: bool, text: str):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# -- subcommand bodies ------------------------------------------------


def _codim_block(report: CodimReport) -> tuple[str, dict]:
    """The codimension, missing monomials and conductor, as text and as JSON."""
    missing = [format_poly(Poly.monomial(m)) for m in sorted(report.missing)]
    text = (
        f"codimension: {report.codim}\nmissing: {', '.join(missing) or 'none'}\n"
        f"conductor: {report.conductor}"
    )
    return text, {"codimension": report.codim, "missing": missing, "conductor": report.conductor}


def _cmd_build(session: Session, args) -> int:
    flt = session.build()
    lines = []
    levels_json = []
    for index, level in enumerate(flt.levels, start=1):
        lines.append(f"level {index}: {describe_condition(level.condition)}")
        gens = [format_poly(g) for g in level.basis.gens]
        lines.append("  basis: " + ", ".join(gens))
        levels_json.append(
            {
                "condition": condition_to_json(level.condition),
                "basis": gens,
                "codimension": level.report.codim,
            }
        )
    text, payload = _codim_block(flt.final_report)
    _emit({"levels": levels_json, **payload}, args.json, "\n".join(lines + [text]))
    return 0


def _cmd_member(session: Session, args) -> int:
    flt = session.build()
    f = parse_poly(args.poly, session.n)
    result = subduce(f, flt.final_basis)
    verdict = result.remainder.is_zero()
    remainder = format_poly(result.remainder)
    text = f"member: {'true' if verdict else 'false'}\nremainder: {remainder}"
    _emit({"member": verdict, "remainder": remainder}, args.json, text)
    return 0


def _cmd_codim(session: Session, args) -> int:
    text, payload = _codim_block(session.build().final_report)
    _emit(payload, args.json, text)
    return 0


def _cmd_spectrum(session: Session, args) -> int:
    flt = session.build()
    sp = spectrum(flt)
    lines = ["points: " + (", ".join(_format_point(p) for p in sp.points) or "none")]
    for index, cluster in enumerate(sp.clusters, start=1):
        lines.append(f"cluster {index}: " + ", ".join(_format_point(p) for p in cluster))
    payload = {
        "points": [_point_json(p) for p in sp.points],
        "clusters": [[_point_json(p) for p in cluster] for cluster in sp.clusters],
    }
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_derivations(session: Session, args) -> int:
    flt = session.build()
    point = _parse_cli_point(args.point, session.n)
    space = derivation_space(flt, point)
    basis_json = [
        functional_to_derivation_json(functional, point) for functional in space.basis
    ]
    payload = {
        "point": _point_json(point),
        "dimension": space.dimension,
        "basis": basis_json,
    }
    text = "\n".join(
        [f"point: {_format_point(point)}", f"dimension: {space.dimension}"]
        + [json.dumps(obj) for obj in basis_json]
    )
    _emit(payload, args.json, text)
    return 0


def _cmd_verify_main(session: Session, args) -> int:
    flt = session.build()
    point = _parse_cli_point(args.point, session.n)
    cap = _env_degree_cap()
    report = verify_main_theorem(flt, point, containment_cap=cap)
    text, machine = render_report(report)
    _emit(machine, args.json, text)
    return 0 if report.passed else 3


def _cmd_qn(session: Session, args) -> int:
    points = _parse_cli_points(args.points, session.n)
    level = args.N
    if level < 1:
        raise SessionError("--N must be at least 1")
    spec = qn_spec(points, level)
    flt = qn_build(spec, session.order)
    items = [
        CheckItem(
            "filtration_valid",
            True,
            {
                "codimension": flt.codim,
                "basis": [format_poly(g) for g in flt.final_basis.gens],
            },
        )
    ]
    cap = _env_degree_cap()
    items.extend(
        verify_qprime_eq_q(points, level, session.order, degree_cap=cap, flt=flt).items
    )
    items.extend(verify_d_of_q(points, level, spec.points[0], session.order, flt=flt).items)
    report = Report(tuple(items))
    text, machine = render_report(report)
    _emit(machine, args.json, text)
    return 0 if report.passed else 3


def _env_degree_cap() -> int | None:
    raw = os.environ.get("SUBALG_MAX_DEGREE")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise SessionError(f"SUBALG_MAX_DEGREE must be an integer, got {raw!r}") from exc
    if value < 1:
        raise SessionError("SUBALG_MAX_DEGREE must be positive")
    return value


# -- argument plumbing ------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the process.

    ``parse_args`` keeps no state between calls, so every in-process
    ``main`` call can share one parser.
    """
    parser = _Parser(prog="subalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("session", help="path to the session JSON file")
        p.add_argument(
            "--order",
            choices=sorted(_ORDERS),
            default=None,
            help="term order override",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("build", "build the filtration and print each level's basis")
    member = add("member", "test membership of a polynomial by subduction")
    member.add_argument("poly", help="polynomial in the x1..xn grammar")
    add("codim", "print codimension, missing monomials, and conductor")
    add("spectrum", "print spectrum points and clusters")
    derivations = add("derivations", "print a derivation-space basis at a point")
    derivations.add_argument("point", help="comma-separated coordinates")
    verify_main = add("verify-main", "run the derivation-space verification report")
    verify_main.add_argument("point", help="comma-separated coordinates")
    qn = add("qn", "build and verify the two descriptions for a point set")
    qn.add_argument("--points", required=True, help="semicolon-separated points")
    qn.add_argument("--N", type=int, required=True, help="derivative order level")
    return parser


_COMMANDS = {
    "build": _cmd_build,
    "member": _cmd_member,
    "codim": _cmd_codim,
    "spectrum": _cmd_spectrum,
    "derivations": _cmd_derivations,
    "verify-main": _cmd_verify_main,
    "qn": _cmd_qn,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        session = Session.load(args.session, order_override=args.order)
        return _COMMANDS[args.command](session, args)
    except InvalidFiltration as exc:
        print(
            f"invalid filtration at level {exc.level}: {exc.reason}",
            file=sys.stderr,
        )
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (OSError, SessionError, SubalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
