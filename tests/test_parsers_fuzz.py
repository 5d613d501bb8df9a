"""Deterministic fuzzing of the polynomial, point and session parsers.

Every case runs a fixed, derandomized example sequence, so the suite
stays reproducible and fast.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from subalg.cli import Session, SessionError, _parse_cli_point, condition_from_json
from subalg.errors import PolyParseError
from subalg.poly import Poly, format_poly, parse_poly

FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)

N = 3

fractions = st.builds(
    Fraction,
    st.integers(-50, 50),
    st.integers(1, 12),
)
monomials = st.tuples(*(st.integers(0, 4) for _ in range(N)))
polys = st.dictionaries(monomials, fractions, max_size=6).map(lambda terms: Poly(N, terms))

# Every character the polynomial grammar knows, plus a few it does not.
POLY_ALPHABET = "0123456789/xy^*+- \t@.(e"
POINT_ALPHABET = "0123456789/-+,.() e_"


@FUZZ
@given(polys)
def test_format_then_parse_round_trips(f):
    assert parse_poly(format_poly(f), N) == f


@FUZZ
@given(st.text(POLY_ALPHABET, max_size=24))
def test_poly_text_parses_or_raises_parse_error(text):
    try:
        result = parse_poly(text, N)
    except PolyParseError:
        return
    assert isinstance(result, Poly)


@FUZZ
@given(st.text(POINT_ALPHABET, max_size=16))
def test_cli_point_parses_or_raises_session_error(text):
    try:
        point = _parse_cli_point(text, 2)
    except SessionError:
        return
    assert len(point) == 2
    assert all(isinstance(c, Fraction) for c in point)


# JSON-shaped values: scalars of every JSON type nested in lists and objects.
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1/2", "1/0", "x", "", "degrevlex", "chardiff"]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "point", "terms", "partials"]), inner, max_size=3),
    max_leaves=8,
)


def condition_objects(n):
    """Condition-shaped objects over n variables with JSON-shaped fields.

    One family of shapes carries well-formed points, so the fuzz reaches
    the partials, coefficients and functional construction behind them.
    """
    good = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4"])
    rationals = good | st.sampled_from(["1/0", "x"]) | json_values
    good_point = st.lists(good, min_size=n, max_size=n)
    any_point = st.lists(rationals, max_size=n + 1) | json_values
    index = st.integers(1, n)
    partials = st.lists(index, min_size=1, max_size=3) | st.lists(
        index | st.integers(-1, n + 1) | json_values, max_size=3
    )

    def shapes(point):
        term = st.fixed_dictionaries(
            {"partials": partials}, optional={"coeff": rationals, "point": point}
        )
        return st.fixed_dictionaries(
            {"type": st.just("chardiff"), "alpha": point, "beta": point},
            optional={"c": rationals},
        ) | st.fixed_dictionaries(
            {"type": st.just("derivation"), "point": point},
            optional={"terms": st.lists(term, min_size=1, max_size=3) | json_values},
        )

    return json_values | shapes(good_point) | shapes(any_point)


conditions = st.integers(1, 3).flatmap(lambda n: st.tuples(condition_objects(n), st.just(n)))
sessions = json_values | st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n": st.just(n) | json_values},
        optional={
            "order": st.sampled_from(["lex", "deglex", "degrevlex"]) | json_values,
            "conditions": st.lists(condition_objects(n), max_size=3) | json_values,
        },
    )
)


@FUZZ
@given(conditions)
def test_condition_loads_or_raises_session_error(case):
    obj, n = case
    try:
        condition_from_json(obj, n)
    except SessionError:
        return


@FUZZ
@given(sessions)
def test_session_loads_or_raises_session_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-session.json"
    path.write_text(json.dumps(data))
    try:
        session = Session.load(str(path))
    except SessionError:
        return
    assert len(session.conditions) == len(data.get("conditions", []))
