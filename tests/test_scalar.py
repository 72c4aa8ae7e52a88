import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cuntzboson.common import DomainError
from cuntzboson.scalar import (ONE, RadicalScalar, ZERO, inv_sqrt_nat,
                               sqrt_factorial, sqrt_nat, squarefree_split)


def brute_squarefree(n):
    """Largest-square-divisor factorization, by exhaustive search."""
    for q in range(math.isqrt(n), 0, -1):
        if n % (q * q) == 0:
            return q, n // (q * q)


def test_sqrt_nat_examples():
    assert sqrt_nat(8) == RadicalScalar({2: 2})
    assert sqrt_nat(1) == ONE
    assert sqrt_nat(12) == RadicalScalar({3: 2})


def test_sqrt_nat_rejects_zero():
    with pytest.raises(ValueError):
        sqrt_nat(0)


def test_squarefree_split_against_brute_force():
    for n in range(1, 600):
        assert squarefree_split(n) == brute_squarefree(n)


def test_squarefree_split_limit():
    big_primes = 999983 * 999979  # both below the trial-division limit
    assert squarefree_split(big_primes) == (1, big_primes)
    assert squarefree_split(4 * 1000000007) == (2, 1000000007)
    # products of factorials, as the basis normalizers build them, only have small primes
    n = math.factorial(30) ** 3 * math.factorial(7)
    q, r = squarefree_split(n)
    assert q * q * r == n and all(r % (p * p) for p in range(2, 32))
    with pytest.raises(DomainError):
        squarefree_split((10**9 + 7) * (10**9 + 9))
    with pytest.raises(DomainError):
        sqrt_nat(1000003 * 1000033)


def test_sqrt_factorial_examples():
    assert sqrt_factorial(0) == ONE
    assert sqrt_factorial(2) == sqrt_nat(2)
    # 4! = 24 factors as 4 * 6
    q, r = brute_squarefree(24)
    assert (q, r) == (2, 6)
    assert sqrt_factorial(4) == RadicalScalar({r: q})


def test_sqrt_factorial_matches_direct_root():
    fact = 1
    for k in range(13):
        assert sqrt_factorial(k) == sqrt_nat(fact)
        fact *= k + 1


def test_mul_examples():
    assert sqrt_nat(2) * sqrt_nat(3) == sqrt_nat(6)
    assert (sqrt_nat(2) + (-sqrt_nat(2))).is_zero()
    # expand (1 + sqrt 2)(1 - sqrt 2) by hand: 1 - sqrt2 + sqrt2 - 2 = -1
    assert (ONE + sqrt_nat(2)) * (ONE - sqrt_nat(2)) == RadicalScalar.rational(-1)


def test_sqrt_squares_to_rational():
    for m in range(1, 1001):
        assert sqrt_nat(m) * sqrt_nat(m) == RadicalScalar.rational(m)


def test_division_and_inverse():
    assert sqrt_nat(2).inverse() * sqrt_nat(2) == ONE
    assert inv_sqrt_nat(6) * sqrt_nat(6) == ONE
    assert (sqrt_nat(8) / 2) == sqrt_nat(2)
    assert RadicalScalar.rational(Fraction(3, 2)) / Fraction(3, 2) == ONE
    with pytest.raises(ValueError):
        (ONE + sqrt_nat(2)).inverse()
    with pytest.raises(ValueError):
        ZERO.inverse()


def test_text_form():
    value = RadicalScalar({1: Fraction(1, 2), 2: 3})
    assert str(value) == "1/2 + 3*sqrt(2)"
    assert str(ZERO) == "0"
    assert str(ONE - sqrt_nat(2)) == "1 - sqrt(2)"
    assert str(sqrt_nat(2)) == "sqrt(2)"


def test_json_terms_roundtrip():
    value = RadicalScalar({1: Fraction(-1, 3), 6: Fraction(5, 2)})
    assert RadicalScalar.from_json_terms(value.to_json_terms()) == value


scalars = st.builds(
    RadicalScalar,
    st.dictionaries(
        st.integers(min_value=1, max_value=50),
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
        max_size=4,
    ),
)


@given(scalars)
def test_recanonicalize_is_identity(a):
    assert RadicalScalar(dict(a.terms())) == a


@given(scalars)
def test_additive_inverse(a):
    assert (a + (-a)).is_zero()


@given(scalars, scalars)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars, scalars)
def test_mul_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(st.dictionaries(
    st.integers(min_value=1, max_value=100),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    max_size=5,
))
def test_float_accuracy(terms):
    value = RadicalScalar(terms)
    direct = math.fsum(float(q) * math.sqrt(r) for r, q in value.terms())
    assert abs(value.to_float() - direct) <= 1e-12


def test_hash_consistency():
    a = RadicalScalar({8: 1})
    b = RadicalScalar({2: 2})
    assert a == b and hash(a) == hash(b)
    assert RadicalScalar.rational(3) == 3
