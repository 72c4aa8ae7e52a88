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
package therefore run with exact equality; floats are for display only and
never decide anything.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .common import DomainError

_SIEVE_BOUND = 10_000

# Trial division stops at this divisor.  A radicand factors when what is left
# of it after dividing out every prime below the limit is below the limit
# squared (that remainder is then 1 or a prime); this holds for every
# radicand below 10**12 and for every product of factorials of numbers below
# the limit.  Beyond it squarefree_split raises DomainError.
_TRIAL_LIMIT = 1_000_000


def _sieve(bound: int) -> tuple[int, ...]:
    composite = bytearray(bound + 1)
    primes = []
    for p in range(2, bound + 1):
        if not composite[p]:
            primes.append(p)
            for q in range(p * p, bound + 1, p):
                composite[q] = 1
    return tuple(primes)


_PRIMES = _sieve(_SIEVE_BOUND)


def _trial_divisors() -> Iterator[int]:
    yield from _PRIMES
    yield from range(_PRIMES[-1] + 2, _TRIAL_LIMIT, 2)


def squarefree_split(n: int) -> tuple[int, int]:
    """Factor ``n = q*q*r`` with ``r`` squarefree; returns ``(q, r)``.

    Trial division by the divisors below ``_TRIAL_LIMIT``; raises
    ``DomainError`` when the part of ``n`` left after them is too large to be
    known prime.
    """
    if n < 1:
        raise ValueError(f"radicand must be >= 1, got {n}")
    q, r, m = 1, 1, n
    for p in _trial_divisors():
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
        if m >= _TRIAL_LIMIT * _TRIAL_LIMIT:
            raise DomainError(
                f"cannot factor radicand {n}: a factor of it at least {_TRIAL_LIMIT}**2 "
                f"has no prime factor below {_TRIAL_LIMIT}")
    if m > 1:
        r *= m
    return q, r


Rational = Union[int, Fraction]
TermsLike = Union[Mapping[int, Rational], Iterable[tuple[int, Rational]]]


class RadicalScalar:
    """Immutable element of the rational span of {sqrt(r) : r squarefree}.

    Stored as ``(_den, _num)``: a positive common denominator and a
    squarefree radicand -> nonzero numerator map, reduced so that
    ``gcd(_den, *_num.values()) == 1``.  The constructor accepts arbitrary
    radicands and rational coefficients and reduces them (e.g. ``{8: 1}``
    becomes ``2*sqrt(2)``); arithmetic builds its results with ``_reduced``
    instead.
    """

    __slots__ = ("_den", "_num")

    def __init__(self, terms: TermsLike | None = None):
        den = 1
        parts = []
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for radicand, coeff in items:
                if not isinstance(coeff, (int, Fraction)):
                    coeff = Fraction(coeff)
                if not coeff:
                    continue
                q, r = squarefree_split(radicand)
                parts.append((r, coeff.numerator * q, coeff.denominator))
                den = math.lcm(den, coeff.denominator)
        num: dict[int, int] = {}
        for r, n, d in parts:
            _accumulate(num, r, n * (den // d))
        reduced = _reduced(den, num)
        self._den, self._num = reduced._den, reduced._num

    @classmethod
    def rational(cls, value: Rational) -> "RadicalScalar":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _raw(value.denominator, {1: value.numerator} if value else {})

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, sorted by radicand."""
        den = self._den
        return tuple((r, Fraction(n, den)) for r, n in sorted(self._num.items()))

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __neg__(self) -> "RadicalScalar":
        return _raw(self._den, {r: -n for r, n in self._num.items()})

    def __add__(self, other) -> "RadicalScalar":
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            num = self._num.copy()
            for r, n in other._num.items():
                _accumulate(num, r, n)
            return _reduced(d1, num)
        g = math.gcd(d1, d2)
        a, b = d2 // g, d1 // g
        num = {r: n * a for r, n in self._num.items()}
        for r, n in other._num.items():
            _accumulate(num, r, n * b)
        return _reduced(d1 * a, num)

    __radd__ = __add__

    def __sub__(self, other) -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RadicalScalar":
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        num: dict[int, int] = {}
        for r1, n1 in self._num.items():
            for r2, n2 in other._num.items():
                g = math.gcd(r1, r2)
                _accumulate(num, (r1 // g) * (r2 // g), n1 * n2 * g)
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

    def __truediv__(self, other) -> "RadicalScalar":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, RadicalScalar):
            return self * other.inverse()
        return NotImplemented

    def to_float(self) -> float:
        return math.fsum(float(q) * math.sqrt(r) for r, q in self.terms())

    __float__ = to_float

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


def _accumulate(num: dict[int, int], r: int, n: int) -> None:
    """Add ``n`` to the numerator of radicand ``r``, dropping it at zero."""
    total = num.get(r, 0) + n
    if total:
        num[r] = total
    else:
        del num[r]


def _raw(den: int, num: dict[int, int]) -> RadicalScalar:
    """A scalar from fields already in reduced form."""
    out = object.__new__(RadicalScalar)
    out._den = den
    out._num = num
    return out


def _reduced(den: int, num: dict[int, int]) -> RadicalScalar:
    """A scalar from a positive denominator and nonzero numerators, reduced by their gcd."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {r: n // g for r, n in num.items()}
    return _raw(den, num)


def _coerce(value) -> RadicalScalar:
    if isinstance(value, RadicalScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalScalar.rational(value)
    return NotImplemented


ZERO = RadicalScalar()
ONE = RadicalScalar.rational(1)

_SQRT_CACHE: dict[int, RadicalScalar] = {}  # n -> sqrt(n) for n <= _SIEVE_BOUND, filled on demand


def sqrt_nat(n: int) -> RadicalScalar:
    """Exact sqrt(n) for a natural n >= 1, reduced to q*sqrt(r) with r squarefree."""
    cached = _SQRT_CACHE.get(n)
    if cached is not None:
        return cached
    if n < 1:
        raise ValueError(f"sqrt_nat requires n >= 1, got {n}")
    q, r = squarefree_split(n)
    value = _raw(1, {r: q})
    if n <= _SIEVE_BOUND:
        _SQRT_CACHE[n] = value
    return value


def sqrt_factorial(k: int) -> RadicalScalar:
    """Exact sqrt(k!), built incrementally so radicands stay small."""
    if k < 0:
        raise ValueError(f"sqrt_factorial requires k >= 0, got {k}")
    out = ONE
    for i in range(2, k + 1):
        out = out * sqrt_nat(i)
    return out


def inv_sqrt_nat(n: int) -> RadicalScalar:
    """Exact 1/sqrt(n) = sqrt(n)/n."""
    return sqrt_nat(n) / n
