"""Every label operator is a weighted partial injection, so it needs no accumulation.

In a permutative representation s_i prepends a letter, s_i* strips one, a
monomial strips one word and prepends another, a_n^k moves one letter, and
the embedded ladders conjugate a_n by a bijective block code.  Each label
therefore has at most one image label, distinct labels have distinct images,
and each weight is one nonzero scalar.  The operators store each image as it
is; here every one is compared with an oracle that computes the image of
each label by hand and accumulates the images with ``add_term``, so a
collision the operators overwrote would show as a difference.
"""

import math
import random
from functools import partial

from hypothesis import given, settings, strategies as st

from cuntzboson.boson import _walk, apply_annihilate, apply_create
from cuntzboson.common import add_term
from cuntzboson.cuntz import RepSpec, apply_generator, apply_monomial
from cuntzboson.embed import _embedded, decode_label, encode_label
from cuntzboson.scalar import ONE, RadicalScalar
from cuntzboson.states import Ket
from cuntzboson.verify import random_ket
from cuntzboson.words import EPWord

SPECS = [RepSpec((1,)), RepSpec((2,)), RepSpec((1, 2))]

seeds = st.integers(min_value=0, max_value=2**32)
specs = st.sampled_from(SPECS)
modes = st.integers(min_value=1, max_value=5)
powers = st.integers(min_value=1, max_value=3)
letters = st.integers(min_value=1, max_value=4)
words = st.lists(letters, max_size=3).map(tuple)
coeffs = st.sampled_from([ONE, RadicalScalar({2: 3}), RadicalScalar({1: -1, 3: 2})])


def _ket(seed, spec):
    return random_ket(random.Random(seed), spec, max_labels=10, letter_bound=6, prefix_bound=4)


def _ladder_image(label, n, power, create):
    """(image, weight) of one label under (a_n*)^power or a_n^power, or None."""
    c = label.letter_at(n)
    low = c if create else c - power
    if low < 1:
        return None
    weight = RadicalScalar({math.prod(range(low, low + power)): 1})
    return _spliced(label, n, c + power if create else low), weight


def _spliced(label, n, letter):
    """``label`` with ``letter`` at position ``n``, built from its dense letters."""
    k = max(n, len(label.prefix))
    letters = list(label.expand(k + len(label.cycle)))
    letters[n - 1] = letter
    return EPWord(letters[:k], letters[k:])


def _oracle(v, image):
    """Sum of weight * amplitude over the images of v's labels, accumulated with add_term."""
    out = {}
    for label, coeff in v._amps.items():
        found = image(label)
        if found is not None:
            add_term(out, found[0], found[1] * coeff)
    return out


def _assert_injective_map(op, v, image):
    images = []
    for label in v._amps:
        one = op(Ket.basis(label))
        assert len(one) <= 1
        images += [w for w, _ in one.items()]
    assert len(set(images)) == len(images)
    assert op(v)._amps == _oracle(v, image)


@settings(max_examples=100, deadline=None)
@given(seeds, specs, modes, powers)
def test_ladders_are_injective_maps(seed, spec, n, power):
    v = _ket(seed, spec)
    _assert_injective_map(lambda u: _walk(u, [(n, power)]), v,
                          lambda w: _ladder_image(w, n, power, True))
    _assert_injective_map(lambda u: _walk(u, [(n, -power)]), v,
                          lambda w: _ladder_image(w, n, power, False))
    for op, create in ((apply_create, True), (apply_annihilate, False)):
        _assert_injective_map(partial(op, n), v, lambda w: _ladder_image(w, n, 1, create))


@settings(max_examples=100, deadline=None)
@given(seeds, specs, letters)
def test_generators_are_injective_maps(seed, spec, i):
    v = _ket(seed, spec)
    _assert_injective_map(lambda u: apply_generator(spec, i, u), v,
                          lambda w: (w.prepend((i,)), ONE))
    _assert_injective_map(lambda u: apply_generator(spec, i, u, star=True), v,
                          lambda w: (w.drop_first(1), ONE) if w.letter_at(1) == i else None)


@settings(max_examples=100, deadline=None)
@given(seeds, specs, words, words, coeffs)
def test_monomials_are_injective_maps(seed, spec, left, right, coeff):
    v = _ket(seed, spec)

    def image(w):
        if any(w.letter_at(pos) != letter for pos, letter in enumerate(right, start=1)):
            return None
        return w.drop_first(len(right)).prepend(left), coeff

    _assert_injective_map(lambda u: apply_monomial(spec, coeff, left, right, u), v, image)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from([2, 3]), modes, st.booleans())
def test_embedded_ladders_are_injective_maps(seed, N, n, create):
    spec = RepSpec((1,), alphabet=N)
    v = Ket((encode_label(spec, w), c) for w, c in _ket(seed, RepSpec((1,)))._amps.items())

    def image(w):
        found = _ladder_image(decode_label(spec, w), n, 1, create)
        return None if found is None else (encode_label(spec, found[0]), found[1])

    _assert_injective_map(lambda u: _embedded(spec, u, ((n, 1 if create else -1),)), v, image)
