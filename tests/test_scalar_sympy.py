"""Differential test of RadicalScalar against sympy's exact arithmetic."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cuntzboson.boson import apply_create
from cuntzboson.cli import main
from cuntzboson.common import DomainError
from cuntzboson.scalar import (ONE, RadicalScalar, _TRIAL_LIMIT, _root, _scale_root, sqrt_nat, sqrt_product,
                               squarefree_split)
from cuntzboson.states import Ket
from cuntzboson.words import EPWord

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
@given(scalars, scalars, st.sampled_from([0, 1, -1, 2]), coefficients)
def test_subtraction_matches_sympy(a, b, k, q):
    y = k * a + b  # equal, opposite or unequal coefficients on a's radicands
    sa, sy = to_sympy(a), to_sympy(y)
    sq = sympy.Rational(q.numerator, q.denominator)
    for got, expected in ((a - y, sa - sy), (y - a, sy - sa), (a - a, 0), (q - a, sq - sa),
                          (a - q, sa - sq), (3 - a, 3 - sa)):
        assert_canonical(got)
        assert same(got, expected)


@settings(max_examples=100, deadline=None)
@given(scalars, scalars)
def test_equality_matches_sympy(a, b):
    assert (a == b) == (sympy.expand(to_sympy(a) - to_sympy(b)) == 0)
    assert a == RadicalScalar(dict(a.terms())) == a * 1 + 0
    if a:  # a/k differs from a, in its denominator or in its numerators
        assert a * Fraction(1, 7) != a and RadicalScalar.rational(Fraction(1, 2)) != Fraction(1, 3)


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


SMALL_PRIMES = list(sympy.primerange(2, 200))
# primes on both sides of the trial-division limit: one above it is left over
# as the cofactor, one below it is found by the last divisions
NEAR_LIMIT_PRIMES = list(sympy.primerange(_TRIAL_LIMIT - 300, _TRIAL_LIMIT + 300))


@st.composite
def factorable_radicands(draw):
    n = 1
    for p in draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=12)):
        n *= p
    n *= draw(st.integers(min_value=1, max_value=10**4)) ** 2
    if draw(st.booleans()):
        big = draw(st.sampled_from(NEAR_LIMIT_PRIMES))
        n *= big ** draw(st.integers(1, 2))
    return n


def _split_by_factorint(n):
    q, r = 1, 1
    for p, e in sympy.factorint(n).items():
        q *= p ** (e // 2)
        r *= p ** (e % 2)
    return q, r


@settings(max_examples=150, deadline=None)
@given(factorable_radicands())
def test_squarefree_split_matches_factorint(n):
    assert squarefree_split(n) == _split_by_factorint(n)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(NEAR_LIMIT_PRIMES), st.sampled_from(NEAR_LIMIT_PRIMES),
       st.integers(min_value=1, max_value=10**5))
def test_two_prime_cofactors_below_the_limit_cubed_match_factorint(p, q, r):
    """p*p*r and p*q*r with p, q near the trial-division limit: a cofactor of two primes
    above the limit, a square or a product, is below the limit cubed and is split."""
    for n in (p * p * r, p * q * r):
        assert squarefree_split(n) == _split_by_factorint(n), n


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10**18 - 1))
def test_every_radicand_below_ten_to_the_eighteen_matches_factorint(n):
    assert squarefree_split(n) == _split_by_factorint(n)


def test_three_prime_cofactor_is_refused():
    above = [p for p in NEAR_LIMIT_PRIMES if p > _TRIAL_LIMIT]
    with pytest.raises(DomainError, match=r"cannot factor radicand"):
        squarefree_split(above[0] * above[1] * above[2])


@pytest.mark.parametrize("low, high", [
    (1, 0), (8, 7), (1, 1), (1, 12), (2, 30), (7, 7), (40, 60),
    (10_000, 10_001), (9_990, 10_010), (10_001, 10_040),
])
def test_sqrt_product_matches_sympy(low, high):
    value = sqrt_product(low, high)
    assert_canonical(value)
    assert same(value, sympy.sqrt(math.prod(range(low, high + 1))))
    if high < low:
        assert value == ONE


def test_sqrt_product_refuses_a_factor_below_one():
    with pytest.raises(ValueError):
        sqrt_product(0, 3)
    with pytest.raises(ValueError):
        sqrt_nat(0)


def _assert_root_pair_matches_sympy(n):
    q, r = _root(n)
    assert sympy.ntheory.factor_.core(r) == r and q * sympy.sqrt(r) == sympy.sqrt(n), n
    assert sqrt_nat(n)._num == {r: q} and sqrt_nat(n)._den == 1, n


def test_cached_root_pair_matches_sympy():
    for n in list(range(1, 201)) + [10_001, 10_008, 2**40, 12 * 10**9, 99999999999]:
        _assert_root_pair_matches_sympy(n)


def test_root_memo_is_bounded():
    """Distinct radicands past the memo's size evict the least recently used ones."""
    maxsize = _root.cache_info().maxsize
    for n in range(1, maxsize + 101):
        _root(n)
    assert _root.cache_info().currsize == maxsize
    # the first radicands were evicted and are factored again; the last are kept
    before = _root.cache_info()
    _root(1), _root(maxsize + 100)
    after = _root.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    for n in [1, 2, 12, 100, maxsize, maxsize + 99, maxsize + 100]:
        _assert_root_pair_matches_sympy(n)
    assert _root.cache_info().currsize == maxsize


@pytest.mark.parametrize("low, high", [(1, 30), (5, 17), (9_997, 10_003)])
def test_sqrt_product_is_the_product_of_its_factors(low, high):
    assert sqrt_product(low, high) == math.prod((sqrt_nat(i) for i in range(low, high + 1)), start=ONE)


def test_ladder_step_at_an_eleven_digit_letter(capsys):
    label = EPWord((99999999999,), (1,))
    image = apply_create(1, Ket.basis(label))
    assert image == 3 * sqrt_nat(11111111111) * Ket.basis(EPWord((10**11,), (1,)))
    assert main(["act", "--state", "99999999999|1", "--expr", "a1*"]) == 0
    assert capsys.readouterr().out == "3*sqrt(11111111111) * |100000000000|1>\n"


# every sqrt_nat(k) and sqrt_product(low, high) root of a small range, as (label, scalar)
ROOTS = ([(f"sqrt_nat({k})", sqrt_nat(k)) for k in range(1, 41)]
         + [(f"sqrt_product({low}, {high})", sqrt_product(low, high))
            for low in range(1, 9) for high in range(low, 9)])


@settings(max_examples=30, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=3))
def test_scale_root_matches_mul_and_sympy(amplitudes):
    for c in amplitudes:
        sc = to_sympy(c)
        for name, root in ROOTS:
            (r, q), = root._num.items()
            got = _scale_root(c, q, r)
            assert_canonical(got)
            assert got == c * root == root * c, name
            # the constructor factors each product radicand itself
            assert got == RadicalScalar({s * r: Fraction(n * q, c._den) for s, n in c._num.items()}), name
            assert same(got, sc * to_sympy(root)), name


@settings(max_examples=100, deadline=None)
@given(scalars, single_terms)
def test_mul_by_one_term_matches_sympy(a, b):
    for got in (a * b, b * a):
        assert_canonical(got)
        assert same(got, to_sympy(a) * to_sympy(b))


@settings(max_examples=50, deadline=None)
@given(scalars)
def test_unit_root_returns_the_amplitude_itself(c):
    assert sqrt_nat(1)._num == {1: 1} and sqrt_product(3, 2) == ONE
    assert _scale_root(c, 1, 1) is c
    assert c * ONE is c
