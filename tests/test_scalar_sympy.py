"""Differential test of RadicalScalar against sympy's exact arithmetic."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cuntzboson.scalar import RadicalScalar

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=30)
term_maps = st.dictionaries(st.integers(min_value=1, max_value=60), coefficients, max_size=4)
scalars = st.builds(RadicalScalar, term_maps)
single_terms = st.builds(
    lambda r, q: RadicalScalar({r: q}),
    st.integers(min_value=1, max_value=60),
    coefficients.filter(bool),
)


def to_sympy(value: RadicalScalar) -> sympy.Expr:
    return sympy.Add(*[sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(r)
                       for r, q in value.terms()])


def same(value: RadicalScalar, expected: sympy.Expr) -> bool:
    return sympy.expand(to_sympy(value) - expected) == 0


def assert_canonical(value: RadicalScalar) -> None:
    assert value._den > 0
    assert math.gcd(value._den, *value._num.values()) == 1
    assert all(isinstance(n, int) and n != 0 for n in value._num.values())
    assert all(r >= 1 and sympy.ntheory.factor_.core(r) == r for r in value._num)
    if not value._num:
        assert value._den == 1


@settings(max_examples=100, deadline=None)
@given(term_maps)
def test_constructor_matches_sympy(terms):
    value = RadicalScalar(terms)
    assert_canonical(value)
    expected = sympy.Add(*[sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(r)
                           for r, q in terms.items()])
    assert same(value, expected)


@settings(max_examples=100, deadline=None)
@given(scalars, scalars)
def test_ring_operations_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    for got, expected in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (-a, -sa)):
        assert_canonical(got)
        assert same(got, expected)


@settings(max_examples=100, deadline=None)
@given(scalars, scalars)
def test_equality_matches_sympy(a, b):
    assert (a == b) == (sympy.expand(to_sympy(a) - to_sympy(b)) == 0)
    assert a == RadicalScalar(dict(a.terms())) == a * 1 + 0
    if a:  # a/k differs from a, in its denominator or in its numerators
        assert a / 7 != a and RadicalScalar.rational(Fraction(1, 2)) != Fraction(1, 3)


@settings(max_examples=100, deadline=None)
@given(term_maps, st.integers(min_value=2, max_value=6))
def test_equal_values_from_unreduced_radicands_compare_equal(terms, k):
    # sqrt(k*k*r) / k == sqrt(r): the same value written with a square factor
    scaled = RadicalScalar({r * k * k: q / k for r, q in terms.items()})
    assert scaled == RadicalScalar(terms)
    assert hash(scaled) == hash(RadicalScalar(terms))


@settings(max_examples=100, deadline=None)
@given(single_terms)
def test_inverse_matches_sympy(a):
    inverse = a.inverse()
    assert_canonical(inverse)
    assert same(inverse, 1 / to_sympy(a))
    assert inverse * a == 1


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_json_round_trip(a):
    doc = a.to_json_terms()
    assert [entry["radicand"] for entry in doc] == sorted(entry["radicand"] for entry in doc)
    assert all(math.gcd(entry["numerator"], entry["denominator"]) == 1 for entry in doc)
    back = RadicalScalar.from_json_terms(doc)
    assert back == a
    assert_canonical(back)


def test_terms_are_reduced_fractions():
    value = RadicalScalar({1: Fraction(1, 6), 2: Fraction(1, 3), 3: Fraction(1, 2)})
    assert value._den == 6 and value._num == {1: 1, 2: 2, 3: 3}
    assert value.terms() == ((1, Fraction(1, 6)), (2, Fraction(1, 3)), (3, Fraction(1, 2)))
    with pytest.raises(ValueError):
        (value - value).inverse()
