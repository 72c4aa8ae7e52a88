"""Symbolic Cuntz-algebra monomials and their action on word-label kets.

The ambient algebra O_N (2 <= N <= infinity) is generated by isometries
s_1, ..., s_N with s_i* s_j = delta_ij I and orthogonal ranges.  A cyclic
permutative representation is specified by a primitive cycle word: its GP
vector is the purely periodic label cycle^inf, s_i prepends the letter i to
a label, and s_i* strips a leading i (or kills the label).  Algebra elements
are finite sums of monomials coeff * s_J s_K*, multiplied via prefix overlap
of the inner words.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .common import AlphabetError, CheckResult, DomainError
from .scalar import ONE, RadicalScalar, ZERO
from .states import Ket
from .words import EPWord, Word, _check_word, format_word, is_primitive, rotations


class RepSpec:
    """A cyclic permutative representation: alphabet bound plus primitive cycle.

    ``alphabet=None`` means the countably infinite alphabet.
    """

    __slots__ = ("alphabet", "cycle")

    def __init__(self, cycle: Iterable[int], alphabet: Optional[int] = None):
        cycle = _check_word(cycle, "cycle")
        if not cycle:
            raise DomainError("cycle must be nonempty")
        if not is_primitive(cycle):
            raise DomainError(f"cycle must be primitive, got {cycle}")
        if alphabet is not None:
            if alphabet < 2:
                raise ValueError(f"alphabet bound must be >= 2, got {alphabet}")
            for letter in cycle:
                if letter > alphabet:
                    raise AlphabetError(f"cycle letter {letter} exceeds alphabet bound {alphabet}")
        self.cycle = cycle
        self.alphabet = alphabet

    def check_letter(self, i: int) -> None:
        if i < 1:
            raise AlphabetError(f"generator index must be >= 1, got {i}")
        if self.alphabet is not None and i > self.alphabet:
            raise AlphabetError(f"generator index {i} exceeds alphabet bound {self.alphabet}")

    def check_word(self, word: Sequence[int]) -> None:
        for letter in word:
            self.check_letter(letter)

    def gp_vector(self) -> Ket:
        return Ket.basis(EPWord((), self.cycle))

    def rotation_vacua(self) -> list[EPWord]:
        return [EPWord((), c) for c in rotations(self.cycle)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepSpec):
            return NotImplemented
        return self.cycle == other.cycle and self.alphabet == other.alphabet

    def __str__(self) -> str:
        bound = "inf" if self.alphabet is None else str(self.alphabet)
        return f"P_{bound}({format_word(self.cycle)})"

    __repr__ = __str__


class CuntzMonomial:
    """coeff * s_J s_K* with J = left and K = right."""

    __slots__ = ("coeff", "left", "right")

    def __init__(self, coeff: RadicalScalar, left: Iterable[int] = (), right: Iterable[int] = ()):
        self.coeff = coeff
        self.left = _check_word(left, "left word")
        self.right = _check_word(right, "right word")

    def key(self) -> tuple[Word, Word]:
        return (self.left, self.right)

    def adjoint(self) -> "CuntzMonomial":
        return CuntzMonomial(self.coeff, self.right, self.left)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CuntzMonomial):
            return NotImplemented
        return self.key() == other.key() and self.coeff == other.coeff

    def __str__(self) -> str:
        factors = [f"s{j}" for j in self.left]
        factors += [f"s{k}*" for k in reversed(self.right)]
        body = " ".join(factors) if factors else "1"
        if self.coeff == ONE:
            return body
        coeff = str(self.coeff)
        if len(self.coeff.terms()) > 1:
            coeff = f"({coeff})"
        return f"{coeff} {body}" if factors else coeff

    __repr__ = __str__


class CuntzPolynomial:
    """Finite sum of monomials with pairwise distinct (left, right) keys."""

    __slots__ = ("_terms",)

    def __init__(self, monomials: Iterable[CuntzMonomial] = ()):
        terms: dict[tuple[Word, Word], RadicalScalar] = {}
        for m in monomials:
            total = terms.get(m.key(), ZERO) + m.coeff
            if total:
                terms[m.key()] = total
            else:
                terms.pop(m.key(), None)
        self._terms = terms

    @classmethod
    def identity(cls) -> "CuntzPolynomial":
        return cls([CuntzMonomial(ONE)])

    @classmethod
    def zero(cls) -> "CuntzPolynomial":
        return cls()

    def monomials(self) -> list[CuntzMonomial]:
        return [
            CuntzMonomial(coeff, left, right)
            for (left, right), coeff in sorted(self._terms.items())
        ]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CuntzPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "CuntzPolynomial") -> "CuntzPolynomial":
        return CuntzPolynomial(self.monomials() + other.monomials())

    def multiply(self, other: "CuntzPolynomial") -> "CuntzPolynomial":
        out: list[CuntzMonomial] = []
        for a in self.monomials():
            for b in other.monomials():
                out.extend(monomial_multiply(a, b).monomials())
        return CuntzPolynomial(out)

    __mul__ = multiply

    def adjoint(self) -> "CuntzPolynomial":
        return CuntzPolynomial(m.adjoint() for m in self.monomials())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(m) for m in self.monomials())

    __repr__ = __str__


def monomial_multiply(a: CuntzMonomial, b: CuntzMonomial) -> CuntzPolynomial:
    """(s_J s_K*)(s_L s_M*), collapsed by prefix overlap of K and L.

    K a prefix of L gives s_{J.(L\\K)} s_M*; L a proper prefix of K gives
    s_J s_{M.(K\\L)}*; anything else is zero.
    """
    K, L = a.right, b.left
    coeff = a.coeff * b.coeff
    if len(K) <= len(L):
        if L[: len(K)] != K:
            return CuntzPolynomial()
        return CuntzPolynomial([CuntzMonomial(coeff, a.left + L[len(K):], b.right)])
    if K[: len(L)] != L:
        return CuntzPolynomial()
    return CuntzPolynomial([CuntzMonomial(coeff, a.left, b.right + K[len(L):])])


def _strip_word(word: Word, label: EPWord) -> Optional[EPWord]:
    for pos, letter in enumerate(word, start=1):
        if label.letter_at(pos) != letter:
            return None
    return label.drop_first(len(word))


def apply_generator(spec: RepSpec, i: int, v: Ket, star: bool = False) -> Ket:
    """Action of s_i (or s_i*) on a ket, extended linearly."""
    spec.check_letter(i)
    out: dict[EPWord, RadicalScalar] = {}
    for word, coeff in v.items():
        if star:
            if word.letter_at(1) != i:
                continue
            image = word.drop_first(1)
        else:
            image = word.prepend((i,))
        total = out.get(image, ZERO) + coeff
        if total:
            out[image] = total
        else:
            out.pop(image, None)
    return Ket(out)


def apply_monomial(spec: RepSpec, m: CuntzMonomial, v: Ket) -> Ket:
    spec.check_word(m.left)
    spec.check_word(m.right)
    out: dict[EPWord, RadicalScalar] = {}
    for word, coeff in v.items():
        stripped = _strip_word(m.right, word)
        if stripped is None:
            continue
        image = stripped.prepend(m.left)
        total = out.get(image, ZERO) + m.coeff * coeff
        if total:
            out[image] = total
        else:
            out.pop(image, None)
    return Ket(out)


def apply_polynomial(spec: RepSpec, p: CuntzPolynomial, v: Ket) -> Ket:
    total = Ket()
    for m in p.monomials():
        total = total + apply_monomial(spec, m, v)
    return total


def gp_vector(spec: RepSpec) -> Ket:
    return spec.gp_vector()


def check_isometry_relations(spec: RepSpec, k: int, sample: Iterable[Ket]) -> list[CheckResult]:
    """Verify s_i*s_j = delta_ij I and the range projections on sample kets.

    The partial sum sum_{i<=k} s_i s_i* must equal, exactly, the projection
    onto the labels whose first letter is at most k (the identity once k
    reaches a finite alphabet bound).
    """
    results = []
    if spec.alphabet is not None:
        k = min(k, spec.alphabet)
    for idx, v in enumerate(sample):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                got = apply_generator(spec, i, apply_generator(spec, j, v), star=True)
                expected = v if i == j else Ket()
                results.append(CheckResult(
                    f"{spec} sample {idx}: s{i}* s{j} = {'I' if i == j else '0'}",
                    got == expected,
                ))
        bound = k if spec.alphabet is None else min(k, spec.alphabet)
        projected = Ket()
        for i in range(1, bound + 1):
            projected = projected + apply_generator(
                spec, i, apply_generator(spec, i, v, star=True))
        restricted = Ket((word, coeff) for word, coeff in v.items() if word.letter_at(1) <= bound)
        results.append(CheckResult(
            f"{spec} sample {idx}: sum(s_i s_i*, i<={bound}) = projection on first letter <= {bound}",
            projected == restricted,
        ))
        if spec.alphabet is not None and bound == spec.alphabet:
            results.append(CheckResult(
                f"{spec} sample {idx}: sum(s_i s_i*, i<={bound}) = I",
                projected == v,
            ))
    return results
