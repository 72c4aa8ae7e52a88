import random
import re

import pytest

from cuntzboson.boson import apply_annihilate, apply_create, fock_word
from cuntzboson.common import DomainError
from cuntzboson.cuntz import RepSpec, apply_monomial
from cuntzboson.embed import (decode_label, embed_generator,
                              _embedded,
                              encode_label, fock_word_in_ON, ladder_action,
                              odometer_action, odometer_boson, odometer_index,
                              odometer_isomorphism, translate_word)
from cuntzboson.scalar import ONE
from cuntzboson.states import Ket
from cuntzboson.verify import random_ket, random_label, random_occupations
from cuntzboson.words import EPWord

N2 = RepSpec((1,), alphabet=2)
N3 = RepSpec((1,), alphabet=3)


def test_embed_generator_examples():
    assert embed_generator(N2, 3) == (2, 2, 1)
    assert embed_generator(N3, 2) == (2,)
    assert embed_generator(N3, 3) == (3, 1)


def test_embed_generator_inverts_index_formula():
    for spec in (N2, N3, RepSpec((1,), alphabet=4)):
        for m in range(1, 30):
            word = embed_generator(spec, m)
            run = len(word) - 1
            assert word[:run] == (spec.alphabet,) * run and word[run] < spec.alphabet
            assert (spec.alphabet - 1) * run + word[run] == m


def test_translate_word_examples():
    assert translate_word(N2, (2, 3)) == (2, 1, 2, 2, 1)
    assert translate_word(N3, ()) == ()
    assert translate_word(N2, (1,)) == (1,)


def test_fock_word_in_ON_single_mode():
    # single mode n, count k: the word acts on the GP vector exactly like
    # t_1^{n-1} t_2^k does, the trailing letter 1 being absorbed by the tail
    for n in (1, 2, 4):
        for k in (1, 2, 3):
            word = fock_word_in_ON(N2, {n: k})
            assert word == (1,) * (n - 1) + (2,) * k + (1,)
            label = EPWord(word, (1,))
            assert label == EPWord((1,) * (n - 1) + (2,) * k, (1,))


def test_fock_word_in_ON_digit_rule():
    assert fock_word_in_ON(N3, {1: 1}) == (2,)          # c = 1, b = 2
    assert fock_word_in_ON(N3, {1: 2}) == (3, 1)        # c = 2, b = 1
    assert fock_word_in_ON(N3, {}) == ()


def test_fock_word_in_ON_matches_translation():
    rng = random.Random(53)
    for spec in (N2, N3):
        for _ in range(30):
            occ = random_occupations(rng, max_modes=4, max_count=5, mode_bound=5)
            coeff, word = fock_word(occ)
            assert fock_word_in_ON(spec, occ) == translate_word(spec, word)


@pytest.mark.parametrize("occupations", [{1: -1}, {0: 1}, {-2: 3}, {2: 1, 0: 0}])
def test_fock_word_in_ON_refuses_what_fock_word_refuses(occupations):
    with pytest.raises(ValueError) as expected:
        fock_word(occupations)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        fock_word_in_ON(N2, occupations)


def test_label_codec_roundtrip():
    rng = random.Random(59)
    for spec in (N2, N3, RepSpec((1,), alphabet=5)):
        for _ in range(40):
            label = random_label(rng, RepSpec((1,)), letter_bound=7, prefix_bound=4)
            assert decode_label(spec, encode_label(spec, label)) == label
    with pytest.raises(DomainError):
        decode_label(N2, EPWord((), (2, 1)))


def test_embedded_ladder_intertwines_the_codec():
    rng = random.Random(61)
    rep_inf = RepSpec((1,))
    for spec in (N2, N3):
        for _ in range(15):
            label = random_label(rng, rep_inf, letter_bound=5, prefix_bound=3)
            v = Ket.basis(label)
            encoded = Ket.basis(encode_label(spec, label))
            for n in (1, 2, 3):
                lhs = _embedded(spec, encoded, ((n, 1),))
                rhs = Ket((encode_label(spec, w), c) for w, c in apply_create(n, v).items())
                assert lhs == rhs
                lhs = _embedded(spec, encoded, ((n, -1),))
                rhs = Ket((encode_label(spec, w), c) for w, c in apply_annihilate(n, v).items())
                assert lhs == rhs
        for _ in range(15):
            v = random_ket(rng, rep_inf, letter_bound=5, prefix_bound=3)
            encoded = Ket((encode_label(spec, w), c) for w, c in v.items())
            for n in (1, 2, 3):
                lhs = _embedded(spec, encoded, ((n, 1),))
                rhs = Ket((encode_label(spec, w), c) for w, c in apply_create(n, v).items())
                assert lhs == rhs
                lhs = _embedded(spec, encoded, ((n, -1),))
                rhs = Ket((encode_label(spec, w), c) for w, c in apply_annihilate(n, v).items())
                assert lhs == rhs


def test_embedded_fock_state_matches_creators():
    for spec in (N2, N3):
        omega = spec.gp_vector()
        for occ in ({}, {1: 2}, {2: 1, 3: 2}, {1: 1, 4: 3}):
            state = omega
            for mode, count in sorted(occ.items()):
                for _ in range(count):
                    state = _embedded(spec, state, ((mode, 1),))
            coeff, _ = fock_word(occ)
            assert state == coeff * Ket.basis(EPWord(fock_word_in_ON(spec, occ), (1,)))


def test_embedded_isometry_relations():
    rng = random.Random(67)
    for spec in (N2, N3):
        for i in range(1, 5):
            for j in range(1, 5):
                word_i, word_j = embed_generator(spec, i), embed_generator(spec, j)
                for _ in range(3):
                    v = random_ket(rng, spec)
                    got = apply_monomial(spec, ONE, (), word_i, apply_monomial(spec, ONE, word_j, (), v))
                    assert got == (v if i == j else Ket())


def test_generator_images_prefix_incomparable():
    for spec in (N2, N3):
        images = [embed_generator(spec, m) for m in range(1, 21)]
        for a, wa in enumerate(images):
            for b, wb in enumerate(images):
                if a != b:
                    assert wb[: len(wa)] != wa


def test_odometer_action_examples():
    assert odometer_action(2, False, 1) == 2
    assert odometer_action(1, False, 1) == 1
    # s_1 s_2 e_1 = e_3
    assert odometer_action(1, False, odometer_action(2, False, 1)) == 3
    assert odometer_action(2, True, 2) == 1
    assert odometer_action(2, True, 3) is None


def test_odometer_isomorphism_examples():
    assert odometer_isomorphism(1) == EPWord((), (1,))
    assert odometer_isomorphism(2) == EPWord((2,), (1,))
    assert odometer_isomorphism(3) == EPWord((1, 2), (1,))
    for index in (2, 3, 17, 96):
        # oracle: push the word back through the forward action
        assert odometer_index(odometer_isomorphism(index)) == index


def _odometer_isomorphism_bit_by_bit(index):
    """The label of e_index, one factor of 2 stripped per step: the oracle of the peel."""
    letters = []
    while index != 1:
        n = 1
        while not index & 1:
            index >>= 1
            n += 1
        letters.append(n)
        index = (index + 1) >> 1
    return EPWord(letters, (1,))


def test_odometer_isomorphism_matches_the_bit_by_bit_peel():
    rng = random.Random(11)
    indices = [rng.randint(1, 2**2000) for _ in range(2000)]
    indices += [2**k * (2 * rng.randint(1, 2**64) - 1) for k in range(3001)]
    for index in indices:
        label = odometer_isomorphism(index)
        assert label == _odometer_isomorphism_bit_by_bit(index), index
        assert odometer_index(label) == index


def test_odometer_intertwining_small():
    spec = RepSpec((1,))
    from cuntzboson.cuntz import apply_generator
    for index in range(1, 129):
        word = odometer_isomorphism(index)
        for n in range(1, 5):
            assert (apply_generator(spec, n, Ket.basis(word))
                    == Ket.basis(odometer_isomorphism(odometer_action(n, False, index))))
            back = odometer_action(n, True, index)
            expected = Ket() if back is None else Ket.basis(odometer_isomorphism(back))
            assert apply_generator(spec, n, Ket.basis(word), star=True) == expected


def test_one_particle_indices():
    for n in range(1, 10):
        image = odometer_boson(n, {1: ONE})
        assert image == {2 ** (n - 1) + 1: ONE}


def test_ladder_action_model():
    # t_i e_n = e_{N(n-1)+i}; the embedded generators realize the odometer
    assert ladder_action(2, 1, 1) == 1
    assert ladder_action(2, 2, 1) == 2
    for n in range(1, 6):
        word = embed_generator(N2, n)
        for index in range(1, 33):
            via = index
            for letter in reversed(word):
                via = ladder_action(2, letter, via)
            assert via == odometer_action(n, False, index)


def test_odometer_index_of_deep_labels():
    # a_n* e_1 = e_{2^{n-1}+1} at every mode; the label has n letters
    for n in (40, 10**6):
        label = EPWord((1,) * (n - 1) + (2,), (1,))
        assert odometer_index(label) == 2 ** (n - 1) + 1
    # runs of letter 1 between deviations, against the letter-by-letter oracle
    label = EPWord((3, 1, 1, 2, 1, 1, 1, 4, 1), (1,))
    index = 1
    for n in reversed(label.prefix):
        index = 2 ** (n - 1) * (2 * index - 1)
    assert odometer_index(label) == index
    assert odometer_isomorphism(index) == label


def test_codec_at_a_deep_mode():
    label = EPWord((1,) * (10**5 - 1) + (3,), (1,))
    encoded = encode_label(N2, label)
    assert encoded == EPWord((1,) * (10**5 - 1) + (2, 2, 1), (1,))  # s_3 -> t_2 t_2 t_1
    assert decode_label(N2, encoded) == label
