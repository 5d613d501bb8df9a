"""Deterministic fuzzing of the polynomial and point parsers.

Every case runs a fixed, derandomized example sequence, so the suite
stays reproducible and fast.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from subalg.cli import SessionError, _parse_cli_point
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
