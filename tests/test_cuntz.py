import random

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson.common import AlphabetError
from cuntzboson.cuntz import (CuntzMonomial, CuntzPolynomial, RepSpec, apply_generator,
                              apply_monomial, apply_polynomial, check_isometry_relations,
                              gp_vector, monomial_multiply)
from cuntzboson.scalar import ONE, sqrt_nat
from cuntzboson.states import Ket
from cuntzboson.verify import random_ket
from cuntzboson.words import EPWord

P1 = RepSpec((1,))
P12 = RepSpec((1, 2))


def mono(left=(), right=(), coeff=ONE):
    return CuntzMonomial(coeff, left, right)


def test_monomial_multiply_full_overlap():
    got = monomial_multiply(mono((1,), (2,)), mono((2,), (1,)))
    assert got == CuntzPolynomial([mono((1,), (1,))])


def test_monomial_multiply_mismatch_is_zero():
    assert monomial_multiply(mono((1,), (2,)), mono((3,), (1,))).is_zero()


def test_monomial_multiply_partial_overlap():
    # s_1* s_(1,2) = s_2, checked against the action on random basis kets
    product = monomial_multiply(mono((), (1,)), mono((1, 2), ()))
    assert product == CuntzPolynomial([mono((2,), ())])
    rng = random.Random(11)
    for _ in range(10):
        v = random_ket(rng, P1, max_labels=1)
        direct = apply_monomial(P1, mono((1, 2), ()), v)
        direct = apply_monomial(P1, mono((), (1,)), direct)
        assert apply_polynomial(P1, product, v) == direct


def test_monomial_multiply_right_remainder():
    # (s_1 s_(1,2)*)(s_1 s_3*) = s_1 (s_3 s_2)* since (1,2) = (1).(2)
    got = monomial_multiply(mono((1,), (1, 2)), mono((1,), (3,)))
    assert got == CuntzPolynomial([mono((1,), (3, 2))])


def test_adjoint():
    p = CuntzPolynomial([mono((1,), (2,)), mono((3,), (), sqrt_nat(2))])
    assert p.adjoint() == CuntzPolynomial([mono((2,), (1,)), mono((), (3,), sqrt_nat(2))])
    assert p.adjoint().adjoint() == p


def test_apply_generator_examples():
    omega1 = gp_vector(P1)
    assert apply_generator(P1, 1, omega1) == omega1
    omega12 = gp_vector(P12)
    assert apply_generator(P12, 2, omega12) == Ket.basis(EPWord((), (2, 1)))
    assert apply_generator(P1, 2, omega1, star=True).is_zero()


def test_apply_polynomial_examples():
    label = EPWord((2, 3), (1,))
    v = Ket.basis(label)
    ranged = apply_polynomial(P1, CuntzPolynomial([mono((2, 3), (2, 3))]), v)
    assert ranged == v
    three = Ket.basis(EPWord((3,), (1,)))
    proj = CuntzPolynomial([mono((1,), (1,)), mono((2,), (2,))])
    # oracle: generator-by-generator application of each monomial
    by_hand = Ket()
    for i in (1, 2):
        by_hand = by_hand + apply_generator(P1, i, apply_generator(P1, i, three, star=True))
    assert apply_polynomial(P1, proj, three) == by_hand
    assert by_hand.is_zero()
    assert apply_polynomial(P1, CuntzPolynomial.identity(), v) == v


def test_gp_vector_examples():
    assert gp_vector(P1) == Ket.basis(EPWord((), (1,)))
    assert gp_vector(P12) == Ket.basis(EPWord((), (1, 2)))
    assert gp_vector(RepSpec((1,), alphabet=2)) == Ket.basis(EPWord((), (1,)))


def test_gp_vector_fixed_by_cycle_word():
    for spec in (P1, P12, RepSpec((1, 1, 2)), RepSpec((2,), alphabet=3)):
        fixed = apply_polynomial(
            spec, CuntzPolynomial([mono(spec.cycle, ())]), spec.gp_vector())
        assert fixed == spec.gp_vector()


def test_isometry_relations_report():
    rng = random.Random(3)
    checks = check_isometry_relations(P1, 3, [gp_vector(P1)])
    assert all(c.passed for c in checks)
    checks = check_isometry_relations(P12, 4, [random_ket(rng, P12) for _ in range(3)])
    assert all(c.passed for c in checks)
    finite = RepSpec((1,), alphabet=2)
    checks = check_isometry_relations(finite, 2, [random_ket(rng, finite) for _ in range(3)])
    assert all(c.passed for c in checks)
    assert any("= I" in c.name for c in checks)


def test_wrong_range_projection_fails(monkeypatch):
    """Dropping s_3 s_3* still contracts, but it is not the first-letter projection."""
    import cuntzboson.cuntz as cuntz

    true_apply = cuntz.apply_generator

    def lossy_apply(spec, i, v, star=False):
        return Ket() if i == 3 and not star else true_apply(spec, i, v, star)

    v = Ket({EPWord((3, 1), (1,)): 1, EPWord((2,), (1,)): sqrt_nat(2)})
    assert all(c.passed for c in check_isometry_relations(P1, 3, [v]))
    monkeypatch.setattr(cuntz, "apply_generator", lossy_apply)
    checks = check_isometry_relations(P1, 3, [v])
    projection = [c for c in checks if "projection on first letter <= 3" in c.name]
    assert len(projection) == 1 and not projection[0].passed


def test_alphabet_violations():
    finite = RepSpec((1,), alphabet=2)
    with pytest.raises(AlphabetError):
        apply_generator(finite, 3, gp_vector(finite))
    with pytest.raises(AlphabetError):
        RepSpec((1, 3), alphabet=2)
    with pytest.raises(ValueError):
        RepSpec((1, 2, 1, 2))


def test_basis_maps_to_basis_or_zero():
    rng = random.Random(5)
    for _ in range(40):
        v = random_ket(rng, P12, max_labels=1)
        (label, coeff), = v.items()
        for i in (1, 2, 3):
            for star in (False, True):
                image = apply_generator(P12, i, Ket.basis(label), star=star)
                assert image.is_zero() or (
                    len(image) == 1 and image.items()[0][1] == ONE)


@given(st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_generator_adjointness(i, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    u = random_ket(rng, P12)
    v = random_ket(rng, P12)
    lhs = apply_generator(P12, i, u).inner(v)
    rhs = u.inner(apply_generator(P12, i, v, star=True))
    assert lhs == rhs


words_small = st.lists(st.integers(1, 3), max_size=2).map(tuple)


@given(words_small, words_small, words_small, words_small, words_small, words_small)
@settings(max_examples=60, deadline=None)
def test_monomial_multiply_associative(l1, r1, l2, r2, l3, r3):
    a, b, c = mono(l1, r1), mono(l2, r2), mono(l3, r3)
    pa, pb, pc = (CuntzPolynomial([m]) for m in (a, b, c))
    assert pa.multiply(pb).multiply(pc) == pa.multiply(pb.multiply(pc))
