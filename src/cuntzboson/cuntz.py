"""Cuntz-algebra generators and monomials acting on word-label kets.

The ambient algebra O_N (2 <= N <= infinity) is generated by isometries
s_1, ..., s_N with s_i* s_j = delta_ij I and orthogonal ranges.  A cyclic
permutative representation is specified by a primitive cycle word: its GP
vector is the purely periodic label cycle^inf, s_i prepends the letter i to
a label, and s_i* strips a leading i (or kills the label).  A monomial
coeff * s_J s_K*, given by its coefficient and its two words, acts on a ket
label by label: strip K, prepend J, scale (``apply_monomial``).  A product of
generators as a value is an ``expr.Term``, whose runs of generators
``expr.eval_on_ket`` reduces to such monomials.

``apply_generator`` keeps its own loop beside ``apply_monomial``: applied as
the one-letter monomial ``s_i`` or ``s_i*``, it made ``verify relations``
21% slower (16 of 16 alternating rounds, in process, a 2-vCPU machine,
Python 3.11), ``verify odometer`` 13% (15 of 16) and ``verify fock-ext``
16% (15 of 16), since the monomial multiplies every amplitude by its
coefficient and strips through its general word loop.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .common import DomainError
from .scalar import RadicalScalar
from .states import Ket, _canonical
from .words import EPWord, Word, _check_word, format_word, is_primitive, rotations


class RepSpec:
    """A cyclic permutative representation: alphabet bound plus primitive cycle.

    ``alphabet=None`` means the countably infinite alphabet.
    """

    __slots__ = ("alphabet", "cycle", "_vacua")

    def __init__(self, cycle: Iterable[int], alphabet: Optional[int] = None):
        cycle = _check_word(cycle, "cycle")
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if not is_primitive(cycle):
            raise DomainError(f"cycle must be primitive, got {cycle}")
        if alphabet is not None:
            if alphabet < 2:
                raise ValueError(f"alphabet bound must be >= 2, got {alphabet}")
            for letter in cycle:
                if letter > alphabet:
                    raise DomainError(f"cycle letter {letter} exceeds alphabet bound {alphabet}")
        self.cycle = cycle
        self.alphabet = alphabet
        self._vacua: Optional[tuple[EPWord, ...]] = None

    def check_letter(self, i: int) -> None:
        if i < 1:
            raise DomainError(f"generator index must be >= 1, got {i}")
        if self.alphabet is not None and i > self.alphabet:
            raise DomainError(f"generator index {i} exceeds alphabet bound {self.alphabet}")

    def gp_vector(self) -> Ket:
        return Ket.basis(self.rotation_vacua()[0])

    def rotation_vacua(self) -> tuple[EPWord, ...]:
        """The vacuum ``r^inf`` of each rotation ``r`` of the cycle, built on first use."""
        if self._vacua is None:
            self._vacua = tuple(EPWord((), c) for c in rotations(self.cycle))
        return self._vacua

    def __str__(self) -> str:
        bound = "inf" if self.alphabet is None else str(self.alphabet)
        return f"P_{bound}({format_word(self.cycle)})"

    __repr__ = __str__


def _strip_word(word: Word, label: EPWord) -> Optional[EPWord]:
    for pos, letter in enumerate(word, start=1):
        if label.letter_at(pos) != letter:
            return None
    return label.drop_first(len(word))


def apply_generator(spec: RepSpec, i: int, v: Ket, star: bool = False) -> Ket:
    """Action of s_i (or s_i*) on a ket, extended linearly.

    Prepending a letter, or stripping the leading i, sends distinct labels to
    distinct labels, so each image is stored as it is, with no accumulation.
    """
    spec.check_letter(i)
    if star:
        return _canonical({word.drop_first(1): coeff for word, coeff in v._amps.items()
                           if word.letter_at(1) == i})
    letter = (i,)
    return _canonical({word.prepend(letter): coeff for word, coeff in v._amps.items()})


def apply_monomial(spec: RepSpec, coeff: RadicalScalar, left: Sequence[int], right: Sequence[int],
                   v: Ket) -> Ket:
    """Action of coeff * s_J s_K* (J = ``left``, K = ``right``) on a ket: strip K,
    prepend J, scale; injective on labels."""
    for letter in (*left, *right):
        spec.check_letter(letter)
    if not coeff:
        return Ket()
    out: dict[EPWord, RadicalScalar] = {}
    for word, c in v._amps.items():
        stripped = _strip_word(right, word)
        if stripped is not None:
            out[stripped.prepend(left)] = coeff * c
    return _canonical(out)
