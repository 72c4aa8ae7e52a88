import math

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson import words
from cuntzboson.boson import BosonMonomial, _walk, apply_annihilate, apply_create
from cuntzboson.embed import odometer_index, odometer_isomorphism
from cuntzboson.states import Ket
from cuntzboson.words import EPWord, expand, format_word, is_primitive, parse_word, rotations

letters = st.integers(min_value=1, max_value=4)
prefixes = st.lists(letters, max_size=5).map(tuple)
cycles = st.lists(letters, min_size=1, max_size=4).map(tuple)


def set_letter(w, n, v):
    """``w`` with letter ``v`` at position ``n``, built by the ladder's letter move."""
    old, tail = w._diff.get(n), w._rot[(n - 1) % len(w._rot)]
    if v == (tail if old is None else old):
        return w
    return words._move_letter(w, n, v, old, tail)


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


@given(st.lists(letters, max_size=8).map(tuple), cycles)
def test_a_label_is_its_vacuum_with_the_prefix_prepended(prefix, cycle):
    # ``cycles`` draws non-primitive cycles too, which the constructor reduces first
    built, prepended = EPWord(prefix, cycle), EPWord((), cycle).prepend(prefix)
    assert built._rot == prepended._rot and built._diff == prepended._diff
    assert hash(built) == hash(prepended)


def test_prefix_letters_are_checked_before_the_cycle():
    with pytest.raises(ValueError, match="prefix letters must be integers >= 1, got 0"):
        EPWord((0,), ())


def test_letter_at_examples():
    assert EPWord((), (1, 2)).letter_at(3) == 1
    assert EPWord((3,), (1,)).letter_at(1) == 3
    assert EPWord((), (2, 1)).letter_at(4) == 1


def test_set_letter_examples():
    assert set_letter(EPWord((), (1,)), 2, 2) == EPWord((1, 2), (1,))
    got = set_letter(EPWord((), (1, 2)), 2, 1)
    assert got == EPWord((1, 1), (1, 2))
    # oracle: compare the first 12 letters against a direct splice
    spliced = list(expand((), (1, 2), 12))
    spliced[1] = 1
    assert got.expand(12) == tuple(spliced)
    assert set_letter(EPWord((2,), (1,)), 1, 1) == EPWord((), (1,))


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
    assert set_letter(w, n, w.letter_at(n)) == w


@given(prefixes, cycles, st.integers(min_value=1, max_value=10), letters)
def test_set_letter_reads_back(prefix, cycle, n, v):
    w = EPWord(prefix, cycle)
    mutated = set_letter(w, n, v)
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


# --- the sparse form against a dense model ----------------------------------
#
# A label is modelled densely as (prefix, cycle, n, v): the word
# prefix.cycle^inf with letter v spliced in at position n (v = None for no
# splice).  ``window`` reads it through ``words.expand`` on the letters around
# a position, so positions up to 10**6 cost no more than small ones.

deep_positions = st.one_of(st.integers(min_value=1, max_value=40),
                           st.integers(min_value=1, max_value=10**6))
splices = st.one_of(st.none(), st.tuples(deep_positions, letters))
# the dense pair of a splice at position n has n letters, so it stays short
short_splices = st.one_of(st.none(), st.tuples(st.integers(min_value=1, max_value=2000), letters))
SPAN = 6


def window(prefix, cycle, splice, start, count):
    """Letters start..start+count-1 of the dense model."""
    skip = start - 1
    if skip <= len(prefix):
        out = list(expand(prefix[skip:], cycle, count))
    else:
        shift = (skip - len(prefix)) % len(cycle)
        out = list(expand((), cycle[shift:] + cycle[:shift], count))
    if splice is not None and start <= splice[0] < start + count:
        out[splice[0] - start] = splice[1]
    return tuple(out)


def build(prefix, cycle, splice):
    w = EPWord(prefix, cycle)
    return w if splice is None else set_letter(w, *splice)


def around(n):
    start = max(1, n - SPAN)
    return start, n + SPAN - start + 1


def absorbed(prefix, cycle):
    """The canonical (prefix, cycle): primitive cycle, prefix absorbed from the right."""
    p, c = list(prefix), tuple(cycle)
    k = len(c)
    c = next(c[:d] for d in range(1, k + 1) if k % d == 0 and c[:d] * (k // d) == c)
    while p and p[-1] == c[-1]:
        p.pop()
        c = c[-1:] + c[:-1]
    return tuple(p), c


def dense(prefix, cycle, splice):
    """The model as one explicit (prefix, cycle) pair, the splice written out."""
    if splice is None:
        return prefix, cycle
    n, v = splice
    head = list(expand(prefix, cycle, max(n, len(prefix))))
    head[n - 1] = v
    tail = window(prefix, cycle, None, len(head) + 1, len(cycle))
    return tuple(head), tail


@given(prefixes, cycles, splices, deep_positions)
def test_letter_at_matches_dense_model(prefix, cycle, splice, n):
    w = build(prefix, cycle, splice)
    start, count = around(n)
    assert tuple(w.letter_at(i) for i in range(start, start + count)) == \
        window(prefix, cycle, splice, start, count)


@given(prefixes, cycles, splices, deep_positions, letters)
def test_set_letter_matches_dense_model(prefix, cycle, splice, n, v):
    w = build(prefix, cycle, splice)
    got = set_letter(w, n, v)
    for probe in {n} | ({splice[0]} if splice else set()) | {1}:
        start, count = around(probe)
        expected = list(window(prefix, cycle, splice, start, count))
        if start <= n < start + count:
            expected[n - start] = v
        assert tuple(got.letter_at(i) for i in range(start, start + count)) == tuple(expected)
    assert got.tail_equivalent(w)


@given(prefixes, cycles, st.lists(st.tuples(st.integers(min_value=1, max_value=12), letters),
                                  max_size=6))
def test_set_letter_in_any_order_reaches_the_canonical_word(prefix, cycle, edits):
    w = EPWord(prefix, cycle)
    head = list(expand(prefix, cycle, max(len(prefix), 12)))
    for n, v in edits:
        w = set_letter(w, n, v)
        head[n - 1] = v
    tail = window(prefix, cycle, None, len(head) + 1, len(cycle))
    expected = EPWord(head, tail)
    assert w == expected and hash(w) == hash(expected)
    assert (w.prefix, w.cycle) == absorbed(head, tail)


@given(prefixes, cycles, splices, deep_positions)
def test_drop_first_matches_dense_model(prefix, cycle, splice, count):
    w = build(prefix, cycle, splice)
    got = w.drop_first(count)
    for probe in {1} | ({splice[0] - count} if splice and splice[0] > count else set()):
        start, span = around(probe)
        assert tuple(got.letter_at(i) for i in range(start, start + span)) == \
            window(prefix, cycle, splice, start + count, span)


@given(prefixes, cycles, splices, st.lists(letters, max_size=4).map(tuple))
def test_prepend_matches_dense_model(prefix, cycle, splice, word):
    w = build(prefix, cycle, splice)
    got = w.prepend(word)
    assert got.expand(len(word)) == word
    for probe in {1} | ({splice[0]} if splice else set()):
        start, span = around(probe)
        assert tuple(got.letter_at(i + len(word)) for i in range(start, start + span)) == \
            window(prefix, cycle, splice, start, span)
    assert got.drop_first(len(word)) == w


@given(prefixes, cycles, splices, prefixes, cycles, splices)
def test_tail_equivalent_matches_dense_model(p1, c1, s1, p2, c2, s2):
    # past every prefix and splice, the two models agree for good or never
    start = max(len(p1), len(p2), s1[0] if s1 else 0, s2[0] if s2 else 0) + 1
    span = math.lcm(len(c1), len(c2))
    agree = window(p1, c1, s1, start, span) == window(p2, c2, s2, start, span)
    assert build(p1, c1, s1).tail_equivalent(build(p2, c2, s2)) == agree


@given(prefixes, cycles, short_splices)
def test_prefix_and_cycle_follow_the_absorption_rule(prefix, cycle, splice):
    w = build(prefix, cycle, splice)
    assert (w.prefix, w.cycle) == absorbed(*dense(prefix, cycle, splice))
    assert w == EPWord(*dense(prefix, cycle, splice))
    assert EPWord.parse(str(w)) == w


def test_deep_label_costs_what_changed():
    w = set_letter(EPWord((), (1, 2)), 10**6, 3)
    assert w.letter_at(10**6) == 3 and w.letter_at(10**6 - 1) == 1
    assert set_letter(w, 10**6, 2) == EPWord((), (1, 2))
    assert w.drop_first(10**6 - 1).prefix == (3,)
    assert len(w.prefix) == 10**6 and w.cycle == (1, 2)
    assert w.prepend((2,)).tail_equivalent(EPWord((), (2, 1)))


@pytest.mark.parametrize("path, prefix, cycle, n, v", [
    ("drop a key", (3, 1, 2), (1, 2), 1, 2),
    ("replace a key", (3, 1, 2), (1, 2), 1, 4),
    ("append a last key", (3, 1, 2), (1, 2), 7, 5),
    ("insert before the last key", (1, 3), (1,), 1, 2),
    ("append at mode 10**6", (2,), (1, 2), 10**6, 3),
])
def test_letter_move_edit_paths(path, prefix, cycle, n, v):
    w = EPWord(prefix, cycle)
    got = set_letter(w, n, v)
    head = list(expand(prefix, cycle, max(n, len(prefix))))
    head[n - 1] = v
    expected = EPWord(head, window(prefix, cycle, None, len(head) + 1, len(cycle)))
    assert got == expected and got._diff == expected._diff, path
    assert got._hash == words._label_hash(got._rot, got._diff) == hash(expected), path


# --- the deviation map carries no order: only its readers sort ---

_MODES = st.integers(min_value=1, max_value=8) | st.sampled_from([2**e for e in range(6, 15)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(1,), (2,), (1, 2), (1, 2, 3)]), prefixes,
       st.lists(_MODES, max_size=3, unique=True), st.lists(_MODES, max_size=4, unique=True),
       st.data())
def test_step_order_leaves_no_trace(cycle, prefix, raised, lifted, data):
    """Single steps at distinct modes, walked in two orders, give equal kets whose labels
    print, sort, serialize and expand like the labels their printed form builds afresh."""
    start = _walk(Ket.basis(EPWord(prefix, cycle)), [(n, 1) for n in raised])
    # each raised mode is lowered again, back to the tail letter past the prefix; each
    # lifted mode gains a deviation, so a walk adds keys in the order of its steps
    steps = [(n, -1) for n in raised] + [(n, 1) for n in lifted if n not in raised]
    got, again = _walk(start, steps), _walk(start, data.draw(st.permutations(steps)))
    assert got == again and got.to_json() == again.to_json() and str(got) == str(again)
    for w in [w for w, _ in got.items()] + [w for w, _ in again.items()]:
        fresh = EPWord(w.prefix, w.cycle)
        assert w == fresh and w._diff == fresh._diff
        assert hash(w) == hash(fresh) == words._label_hash(w._rot, w._diff)
        assert (str(w), w.sort_key()) == (str(fresh), fresh.sort_key())
        assert Ket.basis(w).to_json() == Ket.basis(fresh).to_json()
        last = max(w._diff, default=0)
        for k in (0, 1, max(last - 1, 0), last, last + len(w._rot)):
            assert w.expand(k) == fresh.expand(k)
        if w._rot == (1,):
            index = odometer_index(w)
            assert index == odometer_index(fresh) and odometer_isomorphism(index) == w


# --- the hash: hash(_rot) XOR hash((pos, letter)) over _diff, updated in O(1) ---

def constructions(prefix, cycle, order, detours, cut):
    """The word prefix.cycle^inf, built along every path that makes a label."""
    target = EPWord(prefix, cycle)
    yield "EPWord", target
    yield "parse", EPWord.parse(str(target))
    # set_letter edits: the detour letters, then every head position set to its
    # target letter in a drawn order (tail letters included, so an edit may
    # insert, overwrite or drop a deviation), then the detours undone
    head = expand(prefix, cycle, len(prefix) + len(cycle))
    w = EPWord((1,) * len(prefix), cycle)
    for n, v in detours:
        w = set_letter(w, n, v)
    for n in order(range(1, len(head) + 1)):
        w = set_letter(w, n, head[n - 1])
    for n, _ in detours:
        w = set_letter(w, n, target.letter_at(n))
    yield "set_letter", w
    k = min(cut, len(prefix))
    yield "prepend", EPWord(prefix[k:], cycle).prepend(prefix[:k])
    yield "drop_first", EPWord(prefix[:k] + prefix, cycle).drop_first(k)
    if target.tail_equivalent(EPWord((), (1,))):
        yield "odometer_isomorphism", odometer_isomorphism(odometer_index(target))
    for n in (1, 2, len(prefix) + 1):
        up = apply_create(n, Ket.basis(target))
        yield f"a{n}* then a{n}", [w for w, _ in apply_annihilate(n, up).items()][0]
        if target.letter_at(n) > 1:
            down = apply_annihilate(n, Ket.basis(target))
            yield f"a{n} then a{n}*", [w for w, _ in apply_create(n, down).items()][0]


@given(prefixes, cycles, st.permutations(range(9)),
       st.lists(st.tuples(st.integers(min_value=1, max_value=12), letters), max_size=4),
       st.integers(min_value=0, max_value=5))
def test_equal_words_have_equal_hashes_on_every_path(prefix, cycle, perm, detours, cut):
    def order(positions):
        return sorted(positions, key=lambda n: perm.index(n % 9))

    target = EPWord(prefix, cycle)
    for path, w in constructions(prefix, cycle, order, detours, cut):
        assert w == target, path
        assert hash(w) == hash(target), path
        assert w._hash == words._label_hash(w._rot, w._diff), path


def test_set_letter_and_the_ladder_never_rehash_the_map(monkeypatch):
    w = EPWord((3, 1, 2), (1, 2))
    deep = set_letter(EPWord((), (1,)), 10**6, 2)
    v = Ket({w: 1, deep: 2, EPWord((2,), (2,)): 3})
    # an overwrite, a letter back to the tail, a new last key, an insert before
    # the last key, a deep drop
    edits = [(w, 1, 4), (w, 2, 2), (w, 7, 5), (deep, 5, 3), (deep, 10**6, 1)]
    ladder_modes = (1, 2, 5, 10**6)

    def ladders():
        """Single steps, then the powers 1 and 2 as one-factor monomials."""
        return ([(apply_create(n, v), apply_annihilate(n, v)) for n in ladder_modes]
                + [(BosonMonomial({n: k}).apply(v), BosonMonomial((), {n: k}).apply(v))
                   for n in ladder_modes for k in (1, 2)])

    expected = ([set_letter(u, n, x) for u, n, x in edits], ladders())

    def refuse(rot, diff):
        raise AssertionError("the whole deviation map was rehashed")

    monkeypatch.setattr(words, "_label_hash", refuse)
    got = ([set_letter(u, n, x) for u, n, x in edits], ladders())
    monkeypatch.undo()
    assert got == expected
    for u in got[0] + [label for pair in got[1] for ket in pair for label in ket._amps]:
        assert u._hash == words._label_hash(u._rot, u._diff)
