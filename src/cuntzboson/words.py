"""Eventually periodic infinite words over the alphabet {1, 2, 3, ...}.

An ``EPWord`` denotes the right-infinite word ``prefix . cycle . cycle . ...``
and is the label of a reference-basis vector of a cyclic permutative
representation.  Construction always reduces to the unique canonical form:

  * the cycle is replaced by its primitive root;
  * while the prefix is nonempty and its last letter equals the cycle's last
    letter, that prefix letter is dropped and the cycle rotated right by one
    (maximal absorption of the prefix into the periodic tail).

Two (prefix, cycle) pairs denote the same infinite word exactly when their
canonical forms coincide, so denotational equality is plain ``==``.
Positions are 1-based throughout.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

Word = tuple[int, ...]


def _check_word(letters: Iterable[int], what: str = "word") -> Word:
    out = tuple(letters)
    for letter in out:
        if not isinstance(letter, int) or isinstance(letter, bool) or letter < 1:
            raise ValueError(f"{what} letters must be integers >= 1, got {letter!r}")
    return out


def parse_word(text: str) -> Word:
    """Parse a comma-separated letter list; empty text is the empty word."""
    text = text.strip()
    if not text:
        return ()
    try:
        return _check_word(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad word {text!r}: {exc}") from None


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(letter) for letter in word)


def primitive_root(cycle: Word) -> Word:
    """Shortest word whose repetition gives ``cycle``."""
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    raise AssertionError("unreachable")


def is_primitive(cycle: Word) -> bool:
    return len(cycle) > 0 and primitive_root(cycle) == cycle


def rotations(cycle: Word) -> list[Word]:
    """Distinct rotations of a primitive cycle, in first-occurrence order."""
    cycle = _check_word(cycle, "cycle")
    if not is_primitive(cycle):
        raise ValueError(f"rotations requires a primitive cycle, got {cycle}")
    return [cycle[i:] + cycle[:i] for i in range(len(cycle))]


def expand(prefix: Sequence[int], cycle: Sequence[int], count: int) -> Word:
    """First ``count`` letters of prefix.cycle^inf, without canonicalizing."""
    prefix = tuple(prefix)
    cycle = tuple(cycle)
    out = list(prefix[:count])
    i = 0
    while len(out) < count:
        out.append(cycle[i % len(cycle)])
        i += 1
    return tuple(out)


class EPWord:
    """Canonical eventually periodic word; immutable and hashable."""

    __slots__ = ("prefix", "cycle", "_hash")

    def __init__(self, prefix: Iterable[int] = (), cycle: Iterable[int] = (1,)):
        p = list(_check_word(prefix, "prefix"))
        c = _check_word(cycle, "cycle")
        if not c:
            raise ValueError("cycle must be nonempty")
        c = primitive_root(c)
        while p and p[-1] == c[-1]:
            p.pop()
            c = (c[-1],) + c[:-1]
        self.prefix: Word = tuple(p)
        self.cycle: Word = c
        self._hash = hash((self.prefix, self.cycle))

    @classmethod
    def parse(cls, text: str) -> "EPWord":
        """Parse ``prefix|cycle`` syntax, e.g. ``1,2|1`` or ``|1,2``."""
        if "|" not in text:
            raise ValueError(f"expected 'prefix|cycle', got {text!r}")
        prefix_text, cycle_text = text.split("|", 1)
        return cls(parse_word(prefix_text), parse_word(cycle_text))

    def letter_at(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"positions are 1-based, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    def set_letter(self, n: int, v: int) -> "EPWord":
        """The canonical word equal to this one except letter ``v`` at position ``n``."""
        if n < 1:
            raise ValueError(f"positions are 1-based, got {n}")
        if v < 1:
            raise ValueError(f"letters must be >= 1, got {v}")
        if n <= len(self.prefix):
            letters = self.prefix[: n - 1] + (v,) + self.prefix[n:]
            return EPWord(letters, self.cycle)
        # unroll the cycle so the prefix covers position n, then mutate
        k = n - len(self.prefix)
        pulled = tuple(self.cycle[i % len(self.cycle)] for i in range(k - 1))
        shift = k % len(self.cycle)
        rotated = self.cycle[shift:] + self.cycle[:shift]
        return EPWord(self.prefix + pulled + (v,), rotated)

    def drop_first(self, count: int = 1) -> "EPWord":
        """The word with its first ``count`` letters removed."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count <= len(self.prefix):
            return EPWord(self.prefix[count:], self.cycle)
        shift = (count - len(self.prefix)) % len(self.cycle)
        return EPWord((), self.cycle[shift:] + self.cycle[:shift])

    def prepend(self, word: Sequence[int]) -> "EPWord":
        return EPWord(tuple(word) + self.prefix, self.cycle)

    def tail_equivalent(self, other: "EPWord") -> bool:
        """Whether the two infinite words agree from some position onward."""
        start = max(len(self.prefix), len(other.prefix)) + 1
        window = lcm(len(self.cycle), len(other.cycle))
        return all(
            self.letter_at(i) == other.letter_at(i)
            for i in range(start, start + window)
        )

    def expand(self, count: int) -> Word:
        return expand(self.prefix, self.cycle, count)

    def sort_key(self) -> tuple:
        return (len(self.prefix), self.prefix, self.cycle)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EPWord):
            return NotImplemented
        return self.prefix == other.prefix and self.cycle == other.cycle

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{format_word(self.prefix)}|{format_word(self.cycle)}"

    def __repr__(self) -> str:
        return f"EPWord({self})"
