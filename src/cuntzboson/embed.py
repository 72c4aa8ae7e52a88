"""Embedding of the infinitely generated algebra into O_N, plus the odometer model.

The generators s_m (m >= 1) embed into O_N (finite N >= 2) as

    s_{(N-1)(k-1)+i} = t_N^{k-1} t_i        (k >= 1, 1 <= i <= N-1),

i.e. index m maps to the word N^{k-1}.i with m-1 = (N-1)(k-1) + (i-1).  Under
this map the standard cycle-(1) representation of O_N restricts to the
standard representation of the infinite algebra, and labels translate by a
block code: d leading copies of N followed by a letter b < N decode to the
single letter (N-1)d + b.  The code reads any label whose periodic tail has
letters below N, each tail letter a block of its own; a tail that holds N is
refused.  The ladder operators act on O_N labels through that code; its
functions read N from the alphabet bound of an O_N ``RepSpec``.

The odometer model realizes the standard representation on basis indices
e_1, e_2, ... via s_n e_m = e_{2^{n-1}(2m-1)}; ``odometer_isomorphism`` is the
label bijection onto word labels and ``odometer_index`` its inverse.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .boson import Exponents, _occupations, _walk, apply_create
from .common import DomainError
from .cuntz import RepSpec
from .scalar import RadicalScalar
from .states import Ket, _canonical
from .words import EPWord, Word, _tail_one


def embed_generator(spec: RepSpec, m: int) -> Word:
    """Word over {1..N} representing generator index m."""
    if m < 1:
        raise ValueError(f"generator indices are 1-based, got {m}")
    k1, i1 = divmod(m - 1, spec.alphabet - 1)  # m-1 = (N-1)(k-1) + (i-1)
    return (spec.alphabet,) * k1 + (i1 + 1,)


def translate_word(spec: RepSpec, J: Word) -> Word:
    out: list[int] = []
    for m in J:
        out += embed_generator(spec, m)
    return tuple(out)


def fock_word_in_ON(spec: RepSpec, occupations: Exponents) -> Word:
    """O_N word whose action on the GP vector carries the occupation list.

    Built directly from the digit decomposition k = (N-1)(c-1) + (b-1) of each
    occupation count; agrees letter for letter with translating the word from
    ``fock_word`` generator by generator, and refuses the same non-canonical
    occupation lists (``fock_word`` alone bounds the coefficient).
    """
    N = spec.alphabet
    word: list[int] = []
    previous = 0
    for mode, count in _occupations(occupations):
        c1, b1 = divmod(count, N - 1)  # count = (N-1)(c-1) + (b-1)
        word += (1,) * (mode - previous - 1) + (N,) * c1 + (b1 + 1,)
        previous = mode
    return tuple(word)


def decode_label(spec: RepSpec, label: EPWord) -> EPWord:
    """O_N label whose periodic tail has letters below N -> label of the infinite-alphabet rep.

    Past the printed prefix every letter is below N, so each is a block of its
    own and decodes to itself; a trailing run of Ns in the prefix closes with
    the first tail letter, and the rest of the tail follows, re-aligned.
    """
    N, rot = spec.alphabet, label._rot
    if max(rot) >= N:
        raise DomainError(f"only labels whose periodic tail has letters below {N} decode, got {label}")
    prefix = label.prefix
    out = []
    run = 0
    for letter in prefix:
        if letter > N:
            raise DomainError(f"letter {letter} exceeds alphabet bound {N}")
        if letter == N:
            run += 1
        else:
            out.append((N - 1) * run + letter)
            run = 0
    read = len(prefix)
    if run:  # a trailing run of Ns closes with the first tail letter
        read += 1
        out.append((N - 1) * run + label.letter_at(read))
    return label.drop_first(read).prepend(out)


def encode_label(spec: RepSpec, label: EPWord) -> EPWord:
    """Inverse of ``decode_label``: the prefix translated, the tail kept and re-aligned."""
    N, rot = spec.alphabet, label._rot
    if max(rot) >= N:
        raise DomainError(f"only labels whose periodic tail has letters below {N} encode, got {label}")
    prefix = label.prefix
    return label.drop_first(len(prefix)).prepend(translate_word(spec, prefix))


def _embedded(spec: RepSpec, v: Ket, steps: Sequence[tuple[int, int]]) -> Ket:
    """The ladder product ``steps`` (as ``boson._walk`` takes them) acting on O_N
    labels through the block code: the ket is decoded once, walked, and its
    image encoded once.

    A ladder product is a weighted injection on labels and the codec is a
    bijection, so no amplitude is merged on either side.
    """
    image = _walk(_canonical({decode_label(spec, w): c for w, c in v._amps.items()}), steps)
    return _canonical({encode_label(spec, w): c for w, c in image._amps.items()})


# --- odometer model on basis indices -------------------------------------

def odometer_action(n: int, star: bool, index: int) -> Optional[int]:
    """s_n e_m = e_{2^{n-1}(2m-1)}; the starred action inverts or returns None."""
    if n < 1 or index < 1:
        raise ValueError("generator index and basis index are 1-based")
    if not star:
        return 2 ** (n - 1) * (2 * index - 1)
    quotient, remainder = divmod(index, 2 ** (n - 1))
    if remainder or quotient % 2 == 0:
        return None
    return (quotient + 1) // 2


def odometer_isomorphism(index: int) -> EPWord:
    """Basis index -> word label, peeling one generator per step.

    The leading generator index is the 2-adic valuation plus one, read off
    the lowest set bit; e_1 is the GP vector and maps to 1^inf.
    """
    if index < 1:
        raise ValueError("basis indices are 1-based")
    letters = []
    while index != 1:
        n = (index & -index).bit_length()
        letters.append(n)
        index = ((index >> (n - 1)) + 1) >> 1
    return _tail_one(letters)


def odometer_index(label: EPWord) -> int:
    """Inverse of ``odometer_isomorphism``; defined on labels with tail 1^inf.

    Reads the letters right to left, e <- e_{2^{n-1}(2e-1)} for letter n; a
    run of r letters 1 is the one step e <- 2^r (e-1) + 1, so the cost follows
    the letters other than 1, not the label's length.
    """
    if label._rot != (1,):
        raise DomainError(f"odometer labels end in 1^inf, got {label}")
    diff = label._diff
    index, right = 1, max(diff, default=0) + 1
    for pos, n in sorted(diff.items(), reverse=True):
        # the letters 1 at pos+1..right-1, then letter n at pos
        index = (((index - 1) << (right - pos)) + 1) << (n - 1)
        right = pos
    return ((index - 1) << (right - 1)) + 1


def ladder_action(N: int, i: int, index: int) -> int:
    """The standard O_N action on basis indices: t_i e_n = e_{N(n-1)+i}."""
    if N < 2 or not 1 <= i <= N or index < 1:
        raise ValueError("need N >= 2, 1 <= i <= N, index >= 1")
    return N * (index - 1) + i


def odometer_boson(n: int, v: Mapping[int, RadicalScalar]) -> dict[int, RadicalScalar]:
    """Creator a_n* on a combination of odometer basis indices, via the label bijection."""
    ket = Ket((odometer_isomorphism(idx), coeff) for idx, coeff in v.items())
    return {odometer_index(label): coeff for label, coeff in apply_create(n, ket)._amps.items()}
