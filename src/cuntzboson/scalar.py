"""Exact arithmetic in the rational span of square roots of squarefree naturals.

Every coefficient produced by the ladder calculus is a finite sum
``q_1*sqrt(r_1) + ... + q_k*sqrt(r_k)`` with rational ``q_i`` and squarefree
radicands ``r_i >= 1``, where radicand 1 carries the rational part.  The span
is closed under addition and multiplication because

    sqrt(r) * sqrt(r') = g * sqrt((r/g) * (r'/g)),   g = gcd(r, r'),

and the product of two coprime squarefree numbers is squarefree.

A scalar is stored over one common denominator, as integers only: a positive
``int`` denominator ``d`` and a map from squarefree radicand ``r`` to nonzero
``int`` numerator ``n_r``, so the value is ``sum_r (n_r / d) * sqrt(r)``.
The form is reduced, ``gcd(d, n_r for all r) == 1`` (zero is ``d = 1`` with
no terms), which makes it unique: equality is a compare of the denominator
and the map.  ``terms()``, the text form and the JSON form still present
each coefficient as a reduced ``Fraction``.  All identity checks in the
package therefore run with exact equality, and no text or JSON form uses a
float; ``float(x)`` is a numeric view for callers and tests.

Radicands are made squarefree by trial division by 2 and the odd numbers,
with no table of primes: a composite divisor never divides, because its
prime factors were all divided out before it is tried; every radicand below
10**18 is factored (``_TRIAL_LIMIT``).  ``_root`` keeps the split of the
most recently used radicands in one bounded memo.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

from .common import DomainError, add_term

# Trial division stops at this divisor.  A radicand factors when what is left
# of it after dividing out every prime below the limit is below the limit
# cubed (that remainder is then 1, a prime p, a product p*q of two or a
# square p*p, the one case ``math.isqrt`` must split); this holds for every
# radicand below 10**18 and for every product of factorials of numbers below
# the limit.  Beyond it squarefree_split raises DomainError.
_TRIAL_LIMIT = 1_000_000

# Radicands longer than this many bits are refused before any division, even
# when they would factor: trial division of such a number takes seconds
# before it can fail.  The radicands the package forms itself are label
# letters, truncation bounds of the literal series and single factors of
# ladder and normalizer products (``sqrt_product`` never factors a product),
# all far below 2**1024 unless the input names such a number: a letter in
# ``--state``, ``sqrt(...)``, a JSON coefficient.
_RADICAND_BITS = 1024


def squarefree_split(n: int) -> tuple[int, int]:
    """Factor ``n = q*q*r`` with ``r`` squarefree; returns ``(q, r)``.

    Trial division by 2 and the odd numbers below ``_TRIAL_LIMIT``, then a
    square test of what is left; raises ``DomainError`` when that part may
    have three prime factors.  A radicand of more than ``_RADICAND_BITS``
    bits raises ``DomainError`` before any division, even when it would factor.
    """
    if n < 1:
        raise ValueError(f"radicand must be >= 1, got {n}")
    if n.bit_length() > _RADICAND_BITS:
        raise DomainError(
            f"radicand has {n.bit_length()} bits, more than the {_RADICAND_BITS} that are factored")
    q, r, m = 1, 1, n
    for p in itertools.chain((2,), range(3, _TRIAL_LIMIT, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            q *= p ** (e // 2)
            if e % 2:
                r *= p
    else:
        if m >= _TRIAL_LIMIT**3:
            raise DomainError(
                f"cannot factor radicand {n}: a factor of it at least {_TRIAL_LIMIT}**3 "
                f"has no prime factor below {_TRIAL_LIMIT}")
        root = math.isqrt(m)
        if root * root == m:  # p*p; a prime or a product of two primes is squarefree
            q, m = q * root, 1
    if m > 1:
        r *= m
    return q, r


Rational = Union[int, Fraction]
TermsLike = Union[Mapping[int, Rational], Iterable[tuple[int, Rational]]]


class RadicalScalar:
    """Immutable element of the rational span of {sqrt(r) : r squarefree}.

    Stored as ``(_den, _num)``: a positive common denominator and a
    squarefree radicand -> nonzero numerator map, reduced so that
    ``gcd(_den, *_num.values()) == 1``.  The constructor reduces arbitrary
    radicands and rational coefficients (``{8: 1}`` is ``2*sqrt(2)``) through
    the arithmetic kernels: ``_scale_root`` per term, ``_combine`` to add.
    """

    __slots__ = ("_den", "_num")

    def __init__(self, terms: TermsLike | None = None):
        total = _raw(1, {})
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for radicand, coeff in items:
                coeff = RadicalScalar.rational(coeff)
                if coeff:
                    q, r = _root(radicand)
                    total = total + _scale_root(coeff, q, r)
        self._den, self._num = total._den, total._num

    @classmethod
    def rational(cls, value: Rational) -> "RadicalScalar":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _raw(value.denominator, {1: value.numerator} if value else {})

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, sorted by radicand."""
        den = self._den
        return tuple((r, Fraction(n, den)) for r, n in sorted(self._num.items()))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        num = self._num
        if num.keys() <= {1}:  # rational: hash like the equal int or Fraction
            return hash(Fraction(num.get(1, 0), self._den))
        return hash((self._den, frozenset(num.items())))

    def __neg__(self) -> "RadicalScalar":
        return _raw(self._den, {r: -n for r, n in self._num.items()})

    def __add__(self, other) -> "RadicalScalar":
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "RadicalScalar":
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other) -> "RadicalScalar":
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(other._num) == 1:
            (r, n), = other._num.items()
            return _scale_root(self, n, r, other._den)
        if len(self._num) == 1:
            (r, n), = self._num.items()
            return _scale_root(other, n, r, self._den)
        num: dict[int, int] = {}
        for r1, n1 in self._num.items():
            for r2, n2 in other._num.items():
                g = math.gcd(r1, r2)
                add_term(num, (r1 // g) * (r2 // g), n1 * n2 * g)
        return _reduced(self._den * other._den, num)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Reciprocal of a single-term scalar q*sqrt(r); raises otherwise.

        General division is out of scope; single terms cover every reciprocal
        the operator formulas need (normalizers are 1/sqrt(integer)).
        """
        if len(self._num) != 1:
            raise ValueError(f"only single-term scalars are invertible, got {self}")
        (r, n), = self._num.items()
        # 1 / ((n/d) sqrt(r)) = (d / (n r)) sqrt(r)
        sign = 1 if n > 0 else -1
        return _reduced(abs(n) * r, {r: sign * self._den})

    def __float__(self) -> float:
        return math.fsum(float(q) * math.sqrt(r) for r, q in self.terms())

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for r, q in self.terms():
            if r == 1:
                parts.append(str(q))
            elif q == 1:
                parts.append(f"sqrt({r})")
            elif q == -1:
                parts.append(f"-sqrt({r})")
            else:
                parts.append(f"{q}*sqrt({r})")
        text = parts[0]
        for part in parts[1:]:
            text += " - " + part[1:] if part.startswith("-") else " + " + part
        return text

    __repr__ = __str__

    def to_json_terms(self) -> list[dict]:
        return [
            {"radicand": r, "numerator": q.numerator, "denominator": q.denominator}
            for r, q in self.terms()
        ]

    @classmethod
    def from_json_terms(cls, doc: Iterable[Mapping]) -> "RadicalScalar":
        return cls(
            (entry["radicand"], Fraction(entry["numerator"], entry["denominator"]))
            for entry in doc
        )


def _raw(den: int, num: dict[int, int]) -> RadicalScalar:
    """A scalar from fields already in reduced form."""
    out = object.__new__(RadicalScalar)
    out._den = den
    out._num = num
    return out


def _combine(x: RadicalScalar, y: RadicalScalar, sign: int) -> RadicalScalar:
    """``x + sign*y`` for ``sign`` 1 or -1, over the common denominator and reduced.

    ``x - x`` is zero after one compare of the fields: the form is unique.
    """
    if not y._num:
        return x
    if not x._num:
        return y if sign > 0 else -y
    d1, d2 = x._den, y._den
    if d1 == d2:
        if sign < 0 and x._num == y._num:
            return ZERO
        num = x._num.copy()
        for r, n in y._num.items():
            add_term(num, r, n, sign)
        return _reduced(d1, num)
    g = math.gcd(d1, d2)
    a, b = d2 // g, sign * (d1 // g)
    num = {r: n * a for r, n in x._num.items()}
    for r, n in y._num.items():
        add_term(num, r, n * b)
    return _reduced(d1 * a, num)


def _reduced(den: int, num: dict[int, int]) -> RadicalScalar:
    """A scalar from a positive denominator and nonzero numerators, reduced by their gcd.

    Built in place, not through ``_raw``: every arithmetic result ends here, and
    the extra frame was about 3% of a ladder step's scaling.
    """
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {r: n // g for r, n in num.items()}
    out = object.__new__(RadicalScalar)
    out._den = den
    out._num = num
    return out


def _scale_root(c: RadicalScalar, q: int, r: int, d: int = 1) -> RadicalScalar:
    """``c * (q/d) * sqrt(r)`` for a squarefree ``r``, a nonzero ``q`` and ``d >= 1``.

    A factor of 1 (``q == d``, ``r == 1``) returns ``c`` itself.  Otherwise
    each radicand ``s`` of ``c`` goes to ``r*s/gcd(r, s)**2``, which permutes
    the squarefree numbers, so no two products meet and none is zero.
    """
    if r == 1 and q == d:
        return c
    num: dict[int, int] = {}
    for s, n in c._num.items():
        g = math.gcd(r, s)
        num[(r // g) * (s // g)] = n * q * g
    return _reduced(c._den * d, num)


def _grouped(c: RadicalScalar) -> str:
    """The text of ``c`` as a factor: parenthesized when it is a sum of several terms."""
    return f"({c})" if len(c._num) > 1 else str(c)


def _coerce(value) -> RadicalScalar:
    if isinstance(value, RadicalScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalScalar.rational(value)
    return NotImplemented


ZERO = RadicalScalar()
ONE = RadicalScalar.rational(1)


@functools.lru_cache(maxsize=2**14)
def _root(n: int) -> tuple[int, int]:
    """``squarefree_split(n)``, memoized: ``(q, r)`` with sqrt(n) = q*sqrt(r), r squarefree.

    The package's one root memo and its one caller of ``squarefree_split``.
    Every ladder step, normalizer and coefficient root is a root of a natural
    number; the 2**14 most recently used ones are kept, whatever their size.
    """
    return squarefree_split(n)


def _root_range(low: int, high: int) -> tuple[int, int]:
    """``(q, r)`` with sqrt(low * (low+1) * ... * high) = q*sqrt(r), r squarefree;
    ``(1, 1)`` for the empty range high < low.

    The root of each factor is merged into the pair, so no product is ever factored.
    """
    q, r = 1, 1
    for i in range(low, high + 1):
        qi, ri = _root(i)
        g = math.gcd(r, ri)
        q *= qi * g
        r = (r // g) * (ri // g)
    return q, r


def sqrt_nat(n: int) -> RadicalScalar:
    """Exact sqrt(n) for a natural n >= 1, reduced to q*sqrt(r) with r squarefree."""
    q, r = _root(n)
    return _raw(1, {r: q})


def sqrt_product(low: int, high: int) -> RadicalScalar:
    """Exact sqrt(low * (low+1) * ... * high), ``ONE`` for the empty range high < low."""
    q, r = _root_range(low, high)
    return _raw(1, {r: q})
