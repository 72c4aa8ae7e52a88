import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson.common import CheckResult, DomainError
from cuntzboson import verify
from cuntzboson.cuntz import RepSpec, apply_generator, apply_monomial
from cuntzboson.expr import Factor, Term
from cuntzboson.scalar import ONE, ZERO, sqrt_nat
from cuntzboson.states import Ket, _sum
from cuntzboson.verify import SuiteResult, _isometry_relations, random_ket
from cuntzboson.words import EPWord, rotations

P1 = RepSpec((1,))
P12 = RepSpec((1, 2))


def mono(left=(), right=(), coeff=ONE):
    """coeff s_J s_K* as a ``Term``: the letters of J, then those of K starred and reversed."""
    return Term(coeff, tuple(Factor("s", j, False) for j in left)
                + tuple(Factor("s", k, True) for k in reversed(right)))


def test_apply_generator_examples():
    omega1 = P1.gp_vector()
    assert apply_generator(P1, 1, omega1) == omega1
    omega12 = P12.gp_vector()
    assert apply_generator(P12, 2, omega12) == Ket.basis(EPWord((), (2, 1)))
    assert not apply_generator(P1, 2, omega1, star=True)


def test_apply_monomial_examples():
    label = EPWord((2, 3), (1,))
    v = Ket.basis(label)
    ranged = apply_monomial(P1, ONE, (2, 3), (2, 3), v)
    assert ranged == v
    three = Ket.basis(EPWord((3,), (1,)))
    proj = _sum(apply_monomial(P1, ONE, (i,), (i,), three) for i in (1, 2))
    # oracle: generator-by-generator application of each monomial
    by_hand = Ket()
    for i in (1, 2):
        by_hand = by_hand + apply_generator(P1, i, apply_generator(P1, i, three, star=True))
    assert proj == by_hand
    assert not by_hand
    assert apply_monomial(P1, ONE, (), (), v) == v


def test_gp_vector_examples():
    assert P1.gp_vector() == Ket.basis(EPWord((), (1,)))
    assert P12.gp_vector() == Ket.basis(EPWord((), (1, 2)))
    assert RepSpec((1,), alphabet=2).gp_vector() == Ket.basis(EPWord((), (1,)))


def test_gp_vector_fixed_by_cycle_word():
    for spec in (P1, P12, RepSpec((1, 1, 2)), RepSpec((2,), alphabet=3)):
        fixed = apply_monomial(spec, ONE, spec.cycle, (), spec.gp_vector())
        assert fixed == spec.gp_vector()


def test_rotation_vacua_built_once():
    for cycle in ((1,), (1, 2), (1, 2, 3), (2, 1, 1)):
        spec = RepSpec(cycle)
        vacua = spec.rotation_vacua()
        assert list(vacua) == [EPWord((), r) for r in rotations(cycle)]
        assert spec.rotation_vacua() is vacua


def isometry_record(spec, k, kets):
    result = SuiteResult("isometry")
    _isometry_relations(result, spec, k, kets)
    return result.total, result.passed, result.failures


def test_isometry_relations_report():
    rng = random.Random(3)
    # k^2 products s_i* s_j and one projection per ket
    assert isometry_record(P1, 3, [P1.gp_vector()]) == (10, 10, [])
    assert isometry_record(P12, 4, [random_ket(rng, P12) for _ in range(3)]) == (51, 51, [])
    finite = RepSpec((1,), alphabet=2)
    # k reaches the alphabet bound, so each ket also takes sum(s_i s_i*) = I
    assert isometry_record(finite, 2, [random_ket(rng, finite) for _ in range(3)]) == (18, 18, [])


@pytest.mark.parametrize("spec, k", [(P1, 3), (P12, 4), (RepSpec((1,), alphabet=2), 2)], ids=str)
def test_isometry_relations_build_each_generator_operand_once(monkeypatch, spec, k):
    """Per sample: each s_j v once, s_i* of each (k^2), then s_i s_i* v for the projection (2k)."""
    true_apply, calls = verify.apply_generator, []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return true_apply(*args, **kwargs)
    monkeypatch.setattr(verify, "apply_generator", spy)
    _isometry_relations(SuiteResult("isometry"), spec, k, [random_ket(random.Random(3), spec)])
    assert len(calls) == k**2 + 3 * k


def test_wrong_range_projection_fails(monkeypatch):
    """Dropping s_3 s_3* still contracts, but it is not the first-letter projection."""
    true_apply = verify.apply_generator

    def lossy_apply(spec, i, v, star=False):
        return Ket() if i == 3 and not star else true_apply(spec, i, v, star)

    v = Ket({EPWord((3, 1), (1,)): 1, EPWord((2,), (1,)): sqrt_nat(2)})
    assert isometry_record(P1, 3, [v]) == (10, 10, [])
    monkeypatch.setattr(verify, "apply_generator", lossy_apply)
    assert isometry_record(P1, 3, [v]) == (10, 8, [
        CheckResult("P_inf(1) sample 0: s3* s3 = I", False),
        CheckResult("P_inf(1) sample 0: sum(s_i s_i*, i<=3) = projection on first letter <= 3", False)])


def test_alphabet_violations():
    finite = RepSpec((1,), alphabet=2)
    with pytest.raises(DomainError, match="^generator index 3 exceeds alphabet bound 2$"):
        apply_generator(finite, 3, finite.gp_vector())
    with pytest.raises(DomainError, match="^cycle letter 3 exceeds alphabet bound 2$"):
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
                assert not image or (
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


def test_zero_coefficient_monomial_leaves_no_zero_amplitude():
    v = random_ket(random.Random(5), P1)
    image = apply_monomial(P1, ZERO, (1,), (), v)
    assert len(image) == 0
    assert image == Ket()


def test_monomial_text_parenthesizes_multi_term_coefficients():
    # pinned from the output before the parenthesis rule was shared
    c = ONE - sqrt_nat(2) * Fraction(1, 3)
    assert str(mono((1, 2), (3,), c)) == "(1 - 1/3*sqrt(2)) s1 s2 s3*"
    assert str(mono(coeff=c)) == "(1 - 1/3*sqrt(2))"
    assert str(mono((2,), (), sqrt_nat(3) - sqrt_nat(6))) == "(sqrt(3) - sqrt(6)) s2"
    assert str(mono((), (1,), -sqrt_nat(2))) == "-sqrt(2) s1*"
    assert str(mono((1,), (2,))) == "s1 s2*"
