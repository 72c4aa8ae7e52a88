"""Eventually periodic infinite words over the alphabet {1, 2, 3, ...}.

An ``EPWord`` is the label of a reference-basis vector of a cyclic
permutative representation: a right-infinite word that is periodic from some
position on.  Positions are 1-based throughout.  It is stored as the pair a
permutative representation sees, its periodic tail and its finitely many
deviations from it:

  * ``_rot`` is the primitive word ``R`` whose repetition ``R^inf``, aligned
    at position 1, agrees with the label from some position on; two labels
    are tail-equivalent (lie in the same component) iff their ``_rot`` agree;
  * ``_diff`` maps each position where the label differs from ``R^inf`` to
    its letter there, in no particular order.

Both parts are unique, so equality compares fields, and reading or changing
one letter costs the same at mode 10**6 as at mode 1.  The hash is
``hash(_rot)`` XOR ``hash((pos, letter))`` over the items of ``_diff``, so
the ladder's letter move ``_move_letter`` keeps it in O(1): it XORs out the
old item at the changed position and XORs in the new one.  The printed
``prefix|cycle`` form is derived on demand: ``prefix`` is letters
``1..max(_diff)`` and ``cycle`` is ``R`` rotated left by ``max(_diff) mod |R|``.
That is the maximally absorbed form (primitive cycle, prefix not ending in
the cycle's last letter), so text, JSON and label order are those of the
canonical ``(prefix, cycle)`` pair.  Only the readers that need position
order impose it: ``_split`` (printing and ``sort_key``) and ``expand`` here,
and ``embed.odometer_index``, which sorts the deviations.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from .common import _past_int_text_limit

Word = tuple[int, ...]


def _check_word(letters: Iterable[int], what: str = "word") -> Word:
    out = tuple(letters)
    for letter in out:
        if (letter.__class__ is not int  # the common case, tested first
                and (not isinstance(letter, int) or isinstance(letter, bool))) or letter < 1:
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
        if _past_int_text_limit(exc):
            raise ValueError(f"bad word: a letter has more than {sys.get_int_max_str_digits()} "
                             "decimal digits") from None
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


def _deviations(letters: Iterable[int], rot: Word) -> dict[int, int]:
    """Positions of ``letters`` (read from position 1) that differ from rot^inf."""
    diff = {}
    pos = 0
    n = len(rot)
    for x in letters:
        if x != rot[pos % n]:
            diff[pos + 1] = x
        pos += 1
    return diff


class EPWord:
    """Canonical eventually periodic word; immutable and hashable."""

    __slots__ = ("_rot", "_diff", "_hash")

    def __init__(self, prefix: Iterable[int] = (), cycle: Iterable[int] = (1,)):
        p = _check_word(prefix, "prefix")
        c = _check_word(cycle, "cycle")
        if not c:
            raise ValueError("cycle must be nonempty")
        c = primitive_root(c)
        word = _raw(c, {}, hash(c)).prepend(p)  # the vacuum c^inf, the prefix prepended
        self._rot, self._diff, self._hash = word._rot, word._diff, word._hash

    @classmethod
    def parse(cls, text: str) -> "EPWord":
        """Parse ``prefix|cycle`` syntax, e.g. ``1,2|1`` or ``|1,2``."""
        if "|" not in text:
            raise ValueError(f"expected 'prefix|cycle', got {text!r}")
        prefix_text, cycle_text = text.split("|", 1)
        return cls(parse_word(prefix_text), parse_word(cycle_text))

    def _split(self) -> tuple[Word, Word]:
        """The ``(prefix, cycle)`` form: letters 1..max(_diff), then ``_rot`` rotated to follow them."""
        rot, diff = self._rot, self._diff
        if not diff:
            return (), rot
        last = max(diff)
        shift = last % len(rot)
        return self.expand(last), (rot[shift:] + rot[:shift] if shift else rot)

    @property
    def prefix(self) -> Word:
        """The shortest prefix after which the word is periodic."""
        return self._split()[0]

    @property
    def cycle(self) -> Word:
        """The primitive period read from just after ``prefix``."""
        return self._split()[1]

    def letter_at(self, n: int) -> int:
        letter = self._diff.get(n)
        if letter is not None:
            return letter
        if n < 1:
            raise ValueError(f"positions are 1-based, got {n}")
        rot = self._rot
        return rot[(n - 1) % len(rot)]

    def drop_first(self, count: int) -> "EPWord":
        """The word with its first ``count`` letters removed."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if not count:
            return self
        rot = self._rot
        shift = count % len(rot)
        if shift:
            rot = rot[shift:] + rot[:shift]
        return _raw(rot, {pos - count: x for pos, x in self._diff.items() if pos > count})

    def prepend(self, word: Sequence[int]) -> "EPWord":
        word = _check_word(word, "prefix")
        if not word:
            return self
        count, rot = len(word), self._rot
        shift = count % len(rot)
        if shift:
            rot = rot[-shift:] + rot[:-shift]
        diff = _deviations(word, rot)
        for pos, x in self._diff.items():
            diff[pos + count] = x
        return _raw(rot, diff)

    def tail_equivalent(self, other: "EPWord") -> bool:
        """Whether the two infinite words agree from some position onward."""
        return self._rot == other._rot

    def expand(self, count: int) -> Word:
        rot = self._rot
        letters = list((rot * (count // len(rot) + 1))[:count])
        for pos, letter in self._diff.items():
            if pos <= count:
                letters[pos - 1] = letter
        return tuple(letters)

    def sort_key(self) -> tuple:
        prefix, cycle = self._split()
        return (len(prefix), prefix, cycle)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EPWord):
            return NotImplemented
        return (self._hash == other._hash and self._rot == other._rot
                and self._diff == other._diff)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        prefix, cycle = self._split()
        return f"{format_word(prefix)}|{format_word(cycle)}"

    def __repr__(self) -> str:
        return f"EPWord({self})"


def _label_hash(rot: Word, diff: dict[int, int]) -> int:
    """The hash of the word ``(rot, diff)`` from the whole map; ``_move_letter`` updates it instead."""
    h = hash(rot)
    for item in diff.items():  # on CPython 3.11 this beats functools.reduce for a label's few items
        h ^= hash(item)
    return h


def _move_letter(word: EPWord, n: int, v: int, old: int | None, tail: int) -> EPWord:
    """``word`` with letter ``v`` at position ``n``, which must differ from the letter there.

    ``old`` is the deviation of ``word`` at ``n`` (None for none) and ``tail``
    the letter of ``_rot``'s repetition at ``n``, both read by the caller, so
    the letter is not read or checked again.  The hash is updated in O(1): the
    old item XORed out, the new one XORed in.  The map is copied once and
    changed at ``n`` alone, so its keys are in no particular order.  The word
    is built in place, not through ``_raw``, to spare every ladder step a frame.
    """
    diff = word._diff.copy()
    h = word._hash if old is None else word._hash ^ hash((n, old))
    if v == tail:  # back to the tail letter: the deviation at n goes
        del diff[n]
    else:
        diff[n] = v
        h ^= hash((n, v))
    out = object.__new__(EPWord)
    out._rot = word._rot
    out._diff = diff
    out._hash = h
    return out


def _raw(rot: Word, diff: dict[int, int], h: int | None = None) -> EPWord:
    """A word from a primitive ``rot``, a deviation map in any key order and its hash if known."""
    out = object.__new__(EPWord)
    out._rot = rot
    out._diff = diff
    out._hash = _label_hash(rot, diff) if h is None else h
    return out


def _tail_one(letters: Iterable[int]) -> EPWord:
    """The word ``letters . 1^inf`` from letters already known to be integers >= 1."""
    return _raw((1,), _deviations(letters, (1,)))
