import math

import pytest
from hypothesis import given, strategies as st

from cuntzboson.words import EPWord, expand, format_word, is_primitive, parse_word, rotations

letters = st.integers(min_value=1, max_value=4)
prefixes = st.lists(letters, max_size=5).map(tuple)
cycles = st.lists(letters, min_size=1, max_size=4).map(tuple)


def test_canonicalize_examples():
    assert EPWord((1,), (1,)) == EPWord((), (1,))
    assert EPWord((1, 2), (1, 2)) == EPWord((), (1, 2))
    assert EPWord((1, 1), (1, 2)) == EPWord((1, 1), (1, 2))


def test_two_step_absorption_oracle():
    # the absorbed form must denote the same first 20 letters
    raw = expand((1, 2), (1, 2), 20)
    assert EPWord((1, 2), (1, 2)).expand(20) == raw


def test_nonprimitive_cycle_reduces():
    assert EPWord((), (1, 2, 1, 2)) == EPWord((), (1, 2))
    assert EPWord((3,), (2, 2)).cycle == (2,)


def test_empty_cycle_rejected():
    with pytest.raises(ValueError):
        EPWord((1,), ())


def test_letter_at_examples():
    assert EPWord((), (1, 2)).letter_at(3) == 1
    assert EPWord((3,), (1,)).letter_at(1) == 3
    assert EPWord((), (2, 1)).letter_at(4) == 1


def test_set_letter_examples():
    assert EPWord((), (1,)).set_letter(2, 2) == EPWord((1, 2), (1,))
    got = EPWord((), (1, 2)).set_letter(2, 1)
    assert got == EPWord((1, 1), (1, 2))
    # oracle: compare the first 12 letters against a direct splice
    spliced = list(expand((), (1, 2), 12))
    spliced[1] = 1
    assert got.expand(12) == tuple(spliced)
    assert EPWord((2,), (1,)).set_letter(1, 1) == EPWord((), (1,))


def test_tail_equivalence_examples():
    w12 = EPWord((), (1, 2))
    w21 = EPWord((), (2, 1))
    assert not w12.tail_equivalent(w21)
    assert EPWord((), (1,)).tail_equivalent(EPWord((5, 3), (1,)))
    assert w12.tail_equivalent(w12)


def test_rotations_examples():
    assert rotations((1, 2)) == [(1, 2), (2, 1)]
    assert rotations((7,)) == [(7,)]
    assert rotations((1, 1, 2)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    with pytest.raises(ValueError):
        rotations((1, 2, 1, 2))


def test_primitivity():
    assert is_primitive((1, 2, 1))
    assert not is_primitive((2, 2))
    assert not is_primitive((1, 2, 1, 2, 1, 2))


def test_parse_and_format():
    w = EPWord.parse("1,2|1")
    assert w.prefix == (1, 2) and w.cycle == (1,)
    assert str(w) == "1,2|1"
    assert str(EPWord.parse("|1,2")) == "|1,2"
    assert parse_word("") == ()
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        EPWord.parse("1,2")
    with pytest.raises(ValueError):
        parse_word("1,x")


@given(prefixes, cycles, prefixes, cycles)
def test_canonical_equality_matches_expansion(p1, c1, p2, c2):
    window = len(p1) + len(p2) + 2 * math.lcm(len(c1), len(c2))
    same_word = expand(p1, c1, window) == expand(p2, c2, window)
    assert (EPWord(p1, c1) == EPWord(p2, c2)) == same_word


@given(prefixes, cycles, st.integers(min_value=1, max_value=12))
def test_set_letter_roundtrip(prefix, cycle, n):
    w = EPWord(prefix, cycle)
    assert w.set_letter(n, w.letter_at(n)) == w


@given(prefixes, cycles, st.integers(min_value=1, max_value=10), letters)
def test_set_letter_reads_back(prefix, cycle, n, v):
    w = EPWord(prefix, cycle)
    mutated = w.set_letter(n, v)
    assert mutated.letter_at(n) == v
    for probe in range(1, 15):
        if probe != n:
            assert mutated.letter_at(probe) == w.letter_at(probe)


@given(st.lists(st.tuples(prefixes, cycles), min_size=1, max_size=4))
def test_tail_equivalence_is_an_equivalence(pairs):
    words = [EPWord(p, c) for p, c in pairs]
    for u in words:
        assert u.tail_equivalent(u)
        for v in words:
            assert u.tail_equivalent(v) == v.tail_equivalent(u)
            for w in words:
                if u.tail_equivalent(v) and v.tail_equivalent(w):
                    assert u.tail_equivalent(w)


@given(prefixes, cycles)
def test_drop_first_shifts(prefix, cycle):
    w = EPWord(prefix, cycle)
    assert w.drop_first(1).expand(10) == w.expand(11)[1:]
    assert w.prepend((3,)).expand(11)[1:] == w.expand(10)
