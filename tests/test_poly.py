import random
from fractions import Fraction
from math import comb

import pytest

from subalg.errors import (
    DimensionMismatch,
    InvalidDirection,
    PolyParseError,
    ZeroLeadingTerm,
)
from subalg.poly import (
    DEGREVLEX,
    Poly,
    TermOrder,
    format_poly,
    monomials_of_degree,
    monomials_up_to,
    parse_poly,
    partials_from_indices,
)
from test_qn import translate

F = Fraction


def P(text, n):
    return parse_poly(text, n)


def random_poly(rng, n, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(n))
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        terms[mono] = terms.get(mono, F(0)) + F(num, den)
    return Poly(n, terms)


def random_point(rng, n):
    return tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


def test_parse_basic():
    p = P("x1^2*x2 - 2*x1 + 3/2", 2)
    assert p.coeff((2, 1)) == 1
    assert p.coeff((1, 0)) == -2
    assert p.coeff((0, 0)) == F(3, 2)
    assert p.total_degree() == 3


def test_parse_y_alias():
    assert P("y1*y2 - 2*y1 - y2", 2) == P("x1*x2 - 2*x1 - x2", 2)


def test_parse_whitespace_and_signs():
    assert P("  -x1 +  2", 1) == P("2 - x1", 1)
    assert P("3 / 2 * x1", 1) == P("3/2*x1", 1)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as info:
        P("x1 + @", 1)
    assert info.value.position == 5
    with pytest.raises(PolyParseError):
        P("x3", 2)
    with pytest.raises(PolyParseError):
        P("x1^-2", 1)
    with pytest.raises(PolyParseError):
        P("x1 x2", 2)
    for text, position in [("1/0", 0), ("x1 + 3 / 0*x1", 5)]:
        with pytest.raises(PolyParseError, match="zero denominator") as info:
            P(text, 1)
        assert info.value.position == position


def test_format_round_trip():
    text = "x1^2*x2 - 2*x1 + 3/2"
    assert format_poly(P(text, 2)) == text
    assert format_poly(Poly.zero(3)) == "0"
    assert format_poly(P("-x1^2", 1)) == "-x1^2"


def test_format_orders_terms_by_degrevlex():
    p = P("x2 + x1 + x1*x2^2 + x1^2*x2", 2)
    assert format_poly(p) == "x1^2*x2 + x1*x2^2 + x1 + x2"
    # items() holds the same terms, in no promised order
    assert sorted(p.items()) == sorted(p.terms())


def test_leading_degrevlex_spec_case():
    p = P("x1*x2^2 + x1^2*x2", 2)
    mono, coeff = p.leading(TermOrder("degrevlex"))
    assert mono == (2, 1)
    assert coeff == 1


def test_leading_all_orders():
    # x1^3 vs x2^4: lex picks the x1 power, graded orders pick degree 4
    p = P("x1^3 + x2^4", 2)
    assert p.leading_monomial(TermOrder("lex")) == (3, 0)
    assert p.leading_monomial(TermOrder("deglex")) == (0, 4)
    assert p.leading_monomial(TermOrder("degrevlex")) == (0, 4)
    # same total degree, deglex and degrevlex disagree:
    q = P("x1*x2*x3 + x2^3", 3)
    assert q.leading_monomial(TermOrder("deglex")) == (1, 1, 1)
    assert q.leading_monomial(TermOrder("degrevlex")) == (0, 3, 0)


def test_zero_has_no_leading_term():
    with pytest.raises(ZeroLeadingTerm):
        Poly.zero(2).leading(TermOrder("degrevlex"))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        P("x1", 1) + P("x1", 2)
    with pytest.raises(DimensionMismatch):
        P("x1", 1).evaluate((1, 2))


def test_arithmetic_example():
    x = Poly.variable(1, 1)
    one = Poly.constant(1, 1)
    assert (x + one) * (x + one) == P("x1^2 + 2*x1 + 1", 1)
    assert (x + one) ** 3 == P("x1^3 + 3*x1^2 + 3*x1 + 1", 1)


def test_evaluate_exact():
    p = P("x1^2*x2 - 2*x1 + 3/2", 2)
    assert p.evaluate((F(1, 2), F(3))) == F(1, 4) * 3 - 1 + F(3, 2)


def test_derive():
    p = P("x1^3", 1)
    assert p.derive((2,)) == P("6*x1", 1)
    q = P("x1^2*x2^3", 2)
    assert q.derive((1, 2)) == P("12*x1*x2", 2)
    assert q.derive((3, 0)).is_zero()
    assert q.derive((0, 0)) == q


def test_directional():
    f = P("x1^2*x2", 2)
    assert f.directional((1, 2)) == P("2*x1*x2 + 2*x1^2", 2)
    with pytest.raises(InvalidDirection):
        f.directional((0, 0))


def test_translate():
    assert translate(P("x1^2", 1), (-1,)) == P("x1^2 + 2*x1 + 1", 1)
    f = P("x1*x2 - x2^2", 2)
    alpha = (F(-1), F(2))
    rng = random.Random(7)
    for _ in range(20):
        pt = random_point(rng, 2)
        moved = tuple(a - s for a, s in zip(pt, alpha))
        assert translate(f, alpha).evaluate(pt) == f.evaluate(moved)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 3, 4)
        g = random_poly(rng, n, 3, 4)
        h = random_poly(rng, n, 3, 4)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Poly.zero(n)


def test_leading_term_is_multiplicative():
    rng = random.Random(102)
    orders = [TermOrder(name) for name in ("lex", "deglex", "degrevlex")]
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 3, 4)
        g = random_poly(rng, n, 3, 4)
        if f.is_zero() or g.is_zero():
            continue
        for order in orders:
            fm, fc = f.leading(order)
            gm, gc = g.leading(order)
            pm, pc = (f * g).leading(order)
            assert pm == tuple(a + b for a, b in zip(fm, gm))
            assert pc == fc * gc


def test_order_respects_multiplication():
    rng = random.Random(103)
    orders = [TermOrder(name) for name in ("lex", "deglex", "degrevlex")]
    for _ in range(200):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(0, 4) for _ in range(n))
        v = tuple(rng.randint(0, 4) for _ in range(n))
        w = tuple(rng.randint(0, 4) for _ in range(n))
        for order in orders:
            # 1 is minimal
            assert order.key((0,) * n) <= order.key(u)
            if order.key(u) < order.key(v):
                shifted_u = tuple(a + b for a, b in zip(u, w))
                shifted_v = tuple(a + b for a, b in zip(v, w))
                assert order.key(shifted_u) < order.key(shifted_v)


def key_by_generator(name, mono):
    """``TermOrder.key`` with the degrevlex tuple from a generator expression."""
    if name == "lex":
        return mono
    deg = sum(mono)
    if name == "deglex":
        return (deg, mono)
    return (deg, tuple(-e for e in reversed(mono)))


@pytest.mark.parametrize("name", ["lex", "deglex", "degrevlex"])
def test_order_keys_match_the_generator_formula(name):
    order = TermOrder(name)
    for n in range(1, 5):
        monos = set(monomials_up_to(n, 6))
        assert len(monos) == comb(n + 6, n)
        for mono in monos:
            assert order.key(mono) == key_by_generator(name, mono)


def test_derivatives_commute():
    rng = random.Random(104)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 4, 5)
        a = tuple(rng.randint(0, 2) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        both = tuple(x + y for x, y in zip(a, b))
        assert f.derive(a).derive(b) == f.derive(both)
        assert f.derive(b).derive(a) == f.derive(both)


def test_directional_product_rule():
    rng = random.Random(105)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 3, 4)
        g = random_poly(rng, n, 3, 4)
        u = [F(rng.randint(-3, 3)) for _ in range(n)]
        if all(c == 0 for c in u):
            u[0] = F(1)
        left = (f * g).directional(u)
        right = f.directional(u) * g + f * g.directional(u)
        assert left == right


def test_translate_is_a_ring_morphism():
    rng = random.Random(106)
    for _ in range(30):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 3, 4)
        g = random_poly(rng, n, 3, 4)
        alpha = random_point(rng, n)
        assert translate(f * g, alpha) == translate(f, alpha) * translate(g, alpha)
        assert translate(f + g, alpha) == translate(f, alpha) + translate(g, alpha)
        back = tuple(-s for s in alpha)
        assert translate(translate(f, alpha), back) == f


def test_monomial_enumeration():
    assert list(monomials_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert len(list(monomials_up_to(3, 4))) == 35  # C(7,3)
    assert list(monomials_up_to(1, 2)) == [(0,), (1,), (2,)]


def test_partials_from_indices():
    assert partials_from_indices([1, 1, 2], 3) == (2, 1, 0)
    assert partials_from_indices([], 2) == (0, 0)
    with pytest.raises(DimensionMismatch):
        partials_from_indices([3], 2)


# -- int storage against a Fraction-only reference --------------------
#
# The helpers below are Fraction-only arithmetic on plain dicts, the
# oracle for int storage: values must agree term by term, and printing
# must not see the storage type.


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, F(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, F(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_pow(a, e, n):
    out = {(0,) * n: F(1)}
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_derive(a, partials):
    out = {}
    for mono, c in a.items():
        if any(e < k for e, k in zip(mono, partials)):
            continue
        factor = F(1)
        for e, k in zip(mono, partials):
            for step in range(k):
                factor *= e - step
        m = tuple(e - k for e, k in zip(mono, partials))
        out[m] = out.get(m, F(0)) + c * factor
    return {m: c for m, c in out.items() if c}


def ref_evaluate(a, point):
    total = F(0)
    for mono, c in a.items():
        value = c
        for x, e in zip(point, mono):
            value *= x**e
        total += value
    return total


def fraction_poly(n, terms):
    """A Poly holding Fraction coefficients, as every Poly did before int storage."""
    p = Poly(n)
    p._terms = {m: F(c) for m, c in terms.items() if c}
    return p


def random_ref(rng, n, max_degree, max_terms):
    """Fraction terms, mostly integral, some with a denominator."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(n))
        value = F(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))
        terms[mono] = terms.get(mono, F(0)) + value
    return {m: c for m, c in terms.items() if c}


def assert_int_storage(p):
    """Every stored coefficient is an int exactly when it is integral."""
    for mono, c in p.items():
        assert type(c) in (int, Fraction), (mono, c)
        assert (type(c) is int) == (c.denominator == 1), (mono, c)


def assert_agrees(p, ref):
    assert_int_storage(p)
    assert dict(p.items()) == ref
    assert format_poly(p) == format_poly(fraction_poly(p.n, ref))


def test_int_storage_matches_fraction_reference(seed=107, rounds=80):
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 3)
        a = random_ref(rng, n, 3, 5)
        b = random_ref(rng, n, 3, 5)
        f, g = Poly(n, a), Poly(n, b)
        assert_agrees(f, a)
        assert_agrees(g, b)
        assert_agrees(f + g, ref_add(a, b))
        assert_agrees(f - g, ref_add(a, {m: -c for m, c in b.items()}))
        assert_agrees(-f, {m: -c for m, c in a.items()})
        assert_agrees(f * g, ref_mul(a, b))
        e = rng.randint(0, 3)
        assert_agrees(f**e, ref_pow(a, e, n))
        partials = tuple(rng.randint(0, 2) for _ in range(n))
        assert_agrees(f.derive(partials), ref_derive(a, partials))
        point = random_point(rng, n)
        assert f.evaluate(point) == ref_evaluate(a, point)
        integral = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        value = f.evaluate(integral)
        assert type(value) in (int, Fraction) and value == ref_evaluate(a, integral)
        assert_agrees(parse_poly(format_poly(f), n), a)


def test_scalars_and_monic_store_ints_when_integral():
    f = P("3/2*x1^2 + 3*x1 - 6", 1)
    assert_agrees(f, {(2,): F(3, 2), (1,): F(3), (0,): F(-6)})
    assert_agrees(f.monic(DEGREVLEX), {(2,): F(1), (1,): F(2), (0,): F(-4)})
    assert_agrees(f * 2, {(2,): F(3), (1,): F(6), (0,): F(-12)})
    assert_agrees(2 * f, {(2,): F(3), (1,): F(6), (0,): F(-12)})
    assert_agrees(f * F(4), {(2,): F(6), (1,): F(12), (0,): F(-24)})
    assert_agrees(f * F(1, 3), {(2,): F(1, 2), (1,): F(1), (0,): F(-2)})
    assert_agrees(f * "2/3", {(2,): F(1), (1,): F(2), (0,): F(-4)})
    assert_agrees(P("6/3*x1", 1), {(1,): F(2)})
    assert_agrees(P("x1 - 1/2*x1", 1), {(1,): F(1, 2)})
    assert_agrees(Poly.constant(2, F(8, 4)), {(0, 0): F(2)})
    assert_agrees(Poly.monomial((1, 2), "9/3"), {(1, 2): F(3)})
    assert_agrees(Poly.variable(2, 2), {(0, 1): F(1)})
    assert_agrees(Poly(1, {(1,): F(4, 2), (0,): F(0)}), {(1,): F(2)})
    assert P("x1", 1).coeff((0,)) == 0
