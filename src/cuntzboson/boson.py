"""Bosonic ladder operators realized on word-label kets.

The mode-1 annihilator is the formal series sum_m sqrt(m) s_m s_{m+1}*, and
mode n is its image under n-1 applications of the shift x -> sum_k s_k x s_k*.
On a basis label the series collapses to a single term, giving the closed
label rule used here:

    a_n   |w> = sqrt(c-1) |w with letter c-1 at position n>   (c = letter, 0 if c = 1)
    a_n*  |w> = sqrt(c)   |w with letter c+1 at position n>

so letter c at position n encodes occupation number c-1 of mode n.  The
closed rule is O(1) per label; ``literal_annihilate``/``literal_create``
evaluate the truncated series through Cuntz monomials instead and exist to
cross-validate the closed form against its defining expansion.

Normal ordering rewrites free products of ladder factors into the
creators-left canonical form using a_n a_m* = a_m* a_n + delta_nm; distinct
modes commute freely.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence, Union

from .common import CheckResult
from .cuntz import CuntzMonomial, CuntzPolynomial, RepSpec, apply_generator, apply_polynomial
from .scalar import ONE, RadicalScalar, ZERO, sqrt_factorial, sqrt_nat
from .states import Ket, _add_amplitude, _canonical
from .words import EPWord, Word

Exponents = tuple[tuple[int, int], ...]  # sorted (mode, exponent) pairs, exponents >= 1


def _as_exponents(data: Union[Mapping[int, int], Iterable[tuple[int, int]]]) -> Exponents:
    merged: dict[int, int] = {}
    items = data.items() if isinstance(data, Mapping) else data
    for mode, exp in items:
        if mode < 1:
            raise ValueError(f"modes are 1-based, got {mode}")
        if exp < 0:
            raise ValueError(f"exponents must be >= 0, got {exp}")
        if exp:
            merged[mode] = merged.get(mode, 0) + exp
    return tuple(sorted(merged.items()))


def apply_annihilate(n: int, v: Ket) -> Ket:
    if n < 1:
        raise ValueError(f"modes are 1-based, got {n}")
    out: dict[EPWord, RadicalScalar] = {}
    for word, coeff in v._amps.items():
        c = word.letter_at(n)
        if c < 2:
            continue
        _add_amplitude(out, word.set_letter(n, c - 1), sqrt_nat(c - 1) * coeff)
    return _canonical(out)


def apply_create(n: int, v: Ket) -> Ket:
    if n < 1:
        raise ValueError(f"modes are 1-based, got {n}")
    out: dict[EPWord, RadicalScalar] = {}
    for word, coeff in v._amps.items():
        c = word.letter_at(n)
        _add_amplitude(out, word.set_letter(n, c + 1), sqrt_nat(c) * coeff)
    return _canonical(out)


class BosonMonomial:
    """coeff * prod (a_n*)^{k_n} * prod a_m^{l_m}, creators left of annihilators."""

    __slots__ = ("coeff", "creators", "annihilators")

    def __init__(
        self,
        coeff: RadicalScalar = ONE,
        creators: Union[Mapping[int, int], Iterable[tuple[int, int]]] = (),
        annihilators: Union[Mapping[int, int], Iterable[tuple[int, int]]] = (),
    ):
        self.coeff = coeff
        self.creators = _as_exponents(creators)
        self.annihilators = _as_exponents(annihilators)

    @classmethod
    def identity(cls) -> "BosonMonomial":
        return cls()

    def key(self) -> tuple[Exponents, Exponents]:
        return (self.creators, self.annihilators)

    def is_identity(self) -> bool:
        return not self.creators and not self.annihilators

    def total_displacement(self) -> int:
        return sum(e for _, e in self.creators) + sum(e for _, e in self.annihilators)

    def apply(self, v: Ket) -> Ket:
        for mode, exp in self.annihilators:
            for _ in range(exp):
                v = apply_annihilate(mode, v)
        for mode, exp in self.creators:
            for _ in range(exp):
                v = apply_create(mode, v)
        return self.coeff * v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BosonMonomial):
            return NotImplemented
        return self.key() == other.key() and self.coeff == other.coeff

    def __str__(self) -> str:
        factors = [f"a{n}*" + (f"^{e}" if e > 1 else "") for n, e in self.creators]
        factors += [f"a{m}" + (f"^{e}" if e > 1 else "") for m, e in self.annihilators]
        body = " ".join(factors) if factors else "1"
        if self.coeff == ONE:
            return body
        coeff = str(self.coeff)
        if len(self.coeff.terms()) > 1:
            coeff = f"({coeff})"
        return f"{coeff} {body}" if factors else coeff

    __repr__ = __str__


class BosonPolynomial:
    """Finite sum of normal-ordered monomials with distinct keys."""

    __slots__ = ("_terms",)

    def __init__(self, monomials: Iterable[BosonMonomial] = ()):
        terms: dict[tuple[Exponents, Exponents], RadicalScalar] = {}
        for m in monomials:
            total = terms.get(m.key(), ZERO) + m.coeff
            if total:
                terms[m.key()] = total
            else:
                terms.pop(m.key(), None)
        self._terms = terms

    def monomials(self) -> list[BosonMonomial]:
        return [
            BosonMonomial(coeff, creators, annihilators)
            for (creators, annihilators), coeff in sorted(self._terms.items())
        ]

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BosonPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "BosonPolynomial") -> "BosonPolynomial":
        return BosonPolynomial(self.monomials() + other.monomials())

    def apply(self, v: Ket) -> Ket:
        total = Ket()
        for m in self.monomials():
            total = total + m.apply(v)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(m) for m in self.monomials())

    __repr__ = __str__


def apply_boson(p: Union[BosonPolynomial, BosonMonomial], v: Ket) -> Ket:
    return p.apply(v)


Factor = tuple[int, bool]  # (mode, is_creator)


def normal_order(factors: Sequence[Factor], coeff: RadicalScalar = ONE) -> BosonPolynomial:
    """Rewrite a free product of ladder factors into normal-ordered form.

    ``factors`` is the product read left to right, each entry ``(mode, True)``
    for a creator and ``(mode, False)`` for an annihilator.  Worklist rewriting
    with the single rule a_n a_m* -> a_m* a_n + delta_nm; terminates because
    each step lowers the number of (annihilator, creator) inversions.
    """
    out: list[BosonMonomial] = []
    pending: list[tuple[RadicalScalar, list[Factor]]] = [(coeff, list(factors))]
    while pending:
        c, fs = pending.pop()
        hit = None
        for i in range(len(fs) - 1):
            if not fs[i][1] and fs[i + 1][1]:
                hit = i
                break
        if hit is None:
            creators = [(m, 1) for m, is_c in fs if is_c]
            annihilators = [(m, 1) for m, is_c in fs if not is_c]
            out.append(BosonMonomial(c, creators, annihilators))
            continue
        n, m = fs[hit][0], fs[hit + 1][0]
        swapped = fs[:hit] + [fs[hit + 1], fs[hit]] + fs[hit + 2:]
        pending.append((c, swapped))
        if n == m:
            pending.append((c, fs[:hit] + fs[hit + 2:]))
    return BosonPolynomial(out)


def apply_factors(factors: Sequence[Factor], v: Ket) -> Ket:
    """Apply a free product of ladder factors right to left, without reordering."""
    for mode, is_creator in reversed(factors):
        v = apply_create(mode, v) if is_creator else apply_annihilate(mode, v)
    return v


def creator_monomial(occupations: Mapping[int, int]) -> BosonMonomial:
    return BosonMonomial(ONE, occupations, ())


def fock_word(occupations: Mapping[int, int]) -> tuple[RadicalScalar, Word]:
    """Occupation list -> (coefficient, word) of the corresponding basis label.

    Applying prod (a_n*)^{k_n} to the vacuum of the standard representation
    yields coefficient * |J . 1^inf> with J = (occupation+1 per mode up to the
    largest occupied one) and coefficient = prod sqrt(k_n!).
    """
    occ = dict(_as_exponents(occupations))
    top = max(occ) if occ else 0
    word = tuple(occ.get(mode, 0) + 1 for mode in range(1, top + 1))
    coeff = ONE
    for count in occ.values():
        coeff = coeff * sqrt_factorial(count)
    return coeff, word


def fock_extension_action(
    m: int, star: bool, creators: Union[Mapping[int, int], Iterable[tuple[int, int]]]
) -> tuple[RadicalScalar, Exponents]:
    """Action of s_m / s_m* on a creator monomial over the Fock vacuum.

    Input and output states are creator monomials prod (a_n*)^{k_n} applied to
    the vacuum; the result is (coefficient, creator exponents), with
    coefficient zero for the annihilated cases.  This is the extension of the
    isometry action to a stand-alone Fock representation:

        s_m  (a_{n_1}*)^{k_1}...(a_{n_p}*)^{k_p} vac
            = ((m-1)!)^{-1/2} (a_1*)^{m-1} (a_{n_1+1}*)^{k_1}... vac
        s_m* vac = delta_{m,1} vac
        s_m* (a_{n_1}*)^{k_1}... vac
            = delta_{m,1} (a_{n_1-1}*)^{k_1}... vac              if n_1 >= 2
            = delta_{m,k_1+1} sqrt(k_1!) (a_{n_2-1}*)^{k_2}... vac  if n_1 = 1
    """
    if m < 1:
        raise ValueError(f"generator indices are 1-based, got {m}")
    state = _as_exponents(creators)
    if not star:
        shifted = [(n + 1, k) for n, k in state]
        if m >= 2:
            shifted.append((1, m - 1))
        coeff = sqrt_factorial(m - 1).inverse()
        return coeff, _as_exponents(shifted)
    if not state:
        return (ONE, ()) if m == 1 else (ZERO, ())
    n1, k1 = state[0]
    if n1 >= 2:
        if m != 1:
            return ZERO, ()
        return ONE, _as_exponents((n - 1, k) for n, k in state)
    if m != k1 + 1:
        return ZERO, ()
    rest = _as_exponents((n - 1, k) for n, k in state[1:])
    return sqrt_factorial(k1), rest


def _probe_bound(v: Ket) -> int:
    top = 1
    for word in v.labels():
        top = max(top, *word.prefix) if word.prefix else top
        top = max(top, *word.cycle)
    return top


def _literal_polynomial(n: int, mode_bound: int, create: bool) -> CuntzPolynomial:
    monomials = []
    for K in itertools.product(range(1, mode_bound + 1), repeat=n - 1):
        for m in range(1, mode_bound + 1):
            lowering = CuntzMonomial(sqrt_nat(m), K + (m,), K + (m + 1,))
            monomials.append(lowering.adjoint() if create else lowering)
    return CuntzPolynomial(monomials)


def literal_annihilate(spec: RepSpec, n: int, v: Ket, mode_bound: Optional[int] = None) -> Ket:
    """a_n via the truncated defining series, for cross-validation only.

    The series over shift words K and mode index m is cut at ``mode_bound``,
    which defaults to one more than the largest letter in the ket; that bound
    provably captures every term acting nontrivially on the given labels.
    """
    bound = mode_bound if mode_bound is not None else _probe_bound(v) + 1
    return apply_polynomial(spec, _literal_polynomial(n, bound, create=False), v)


def literal_create(spec: RepSpec, n: int, v: Ket, mode_bound: Optional[int] = None) -> Ket:
    bound = mode_bound if mode_bound is not None else _probe_bound(v) + 1
    return apply_polynomial(spec, _literal_polynomial(n, bound, create=True), v)


def check_intertwining(
    spec: RepSpec, samples: Iterable[Ket], modes: int = 3, gens: int = 3
) -> list[CheckResult]:
    """Verify s_m a_n = a_{n+1} s_m and s_m a_n* = a_{n+1}* s_m on sample kets."""
    results = []
    for idx, v in enumerate(samples):
        for m in range(1, gens + 1):
            for n in range(1, modes + 1):
                lhs = apply_generator(spec, m, apply_annihilate(n, v))
                rhs = apply_annihilate(n + 1, apply_generator(spec, m, v))
                results.append(CheckResult(
                    f"{spec} sample {idx}: s{m} a{n} = a{n + 1} s{m}", lhs == rhs))
                lhs = apply_generator(spec, m, apply_create(n, v))
                rhs = apply_create(n + 1, apply_generator(spec, m, v))
                results.append(CheckResult(
                    f"{spec} sample {idx}: s{m} a{n}* = a{n + 1}* s{m}", lhs == rhs))
    return results
