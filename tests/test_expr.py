import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson.boson import apply_annihilate, apply_create
from cuntzboson.common import ExprError
from cuntzboson.cuntz import RepSpec, apply_generator
from cuntzboson.embed import _embedded
from cuntzboson.expr import Factor, eval_on_ket, parse_expression
from cuntzboson.scalar import ONE, RadicalScalar, sqrt_nat
from cuntzboson.states import Ket, _sum
from cuntzboson.verify import random_ket
from cuntzboson.words import EPWord

P1 = RepSpec((1,))


def test_parse_sum_of_products():
    terms = parse_expression("s1 s2* + sqrt(2) s3")
    assert len(terms) == 2
    assert terms[0].coeff == ONE
    assert terms[0].factors == (Factor("s", 1, False), Factor("s", 2, True))
    assert terms[1].coeff == sqrt_nat(2)
    assert terms[1].factors == (Factor("s", 3, False),)
    # terms and factors are immutable values: equal and hashed alike when parsed again
    again = parse_expression("s1 s2* + sqrt(2) s3")
    assert again == terms and list(map(hash, again)) == list(map(hash, terms))
    assert hash(again[0].factors[1]) == hash(Factor("s", 2, True))
    assert terms[0] != again[1] and Factor("s", 2, False) != Factor("s", 2, True)
    for record, field in ((terms[0], "coeff"), (terms[0].factors[0], "index")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)


def test_parse_rationals_and_minus():
    terms = parse_expression("3/2 a1* a1 - 2 s1")
    assert terms[0].coeff == RadicalScalar.rational(Fraction(3, 2))
    assert terms[0].factors == (Factor("a", 1, True), Factor("a", 1, False))
    assert terms[1].coeff == RadicalScalar.rational(-2)
    terms = parse_expression("-s1 + s2")
    assert terms[0].coeff == RadicalScalar.rational(-1)


def test_parse_juxtaposed_tokens():
    terms = parse_expression("s1s2*")
    assert terms[0].factors == (Factor("s", 1, False), Factor("s", 2, True))


def test_parse_pure_literal():
    terms = parse_expression("2 sqrt(3)")
    assert terms[0].coeff == 2 * sqrt_nat(3)
    assert terms[0].factors == ()


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as err:
        parse_expression("s1 + @")
    assert err.value.position == 5
    with pytest.raises(ExprError):
        parse_expression("")
    with pytest.raises(ExprError):
        parse_expression("s1 +")
    with pytest.raises(ExprError):
        parse_expression("s0")


@pytest.mark.parametrize("text, message, position", [
    ("\t s0", "generator indices are 1-based", 2),
    ("  1/0", "zero denominator", 2),
    (" \tsqrt(0)", "sqrt needs a radicand >= 1", 2),
    ("s1 \t+", "empty term", 4),
    ("  @", "unexpected character '@'", 2)])
def test_error_position_is_past_the_leading_whitespace(text, message, position):
    with pytest.raises(ExprError) as err:
        parse_expression(text)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


_pieces = st.one_of(st.sampled_from(["s0", "s1", "a2*", "a0*", "2", "1/0", "3/2", "sqrt(0)", "sqrt(8)",
                                     "+", "-"]),
                    st.text(alphabet="sa*()+-/0123456789@x", min_size=1, max_size=4))
_gaps = st.text(alphabet=" \t\n", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_gaps, _pieces), min_size=1, max_size=6), _gaps)
def test_every_error_points_at_a_token(pieces, trailing):
    """On text that is not blank, an error's position is the first character of a token or
    of junk, never whitespace."""
    text = "".join(gap + piece for gap, piece in pieces) + trailing
    try:
        parse_expression(text)
    except ExprError as err:
        assert 0 <= err.position < len(text) and not text[err.position].isspace(), text


def test_eval_matches_direct_application():
    omega = P1.gp_vector()
    got = eval_on_ket(P1, parse_expression("a2*"), omega)
    assert got == Ket.basis(EPWord((1, 2), (1,)))
    assert eval_on_ket(P1, parse_expression("s1*"), omega) == omega
    spec12 = RepSpec((1, 2))
    assert not eval_on_ket(spec12, parse_expression("a1"), spec12.gp_vector())
    mixed = eval_on_ket(P1, parse_expression("a1 a1* - a1* a1"), omega)
    assert mixed == omega


def test_eval_with_finite_alphabet_uses_embedding():
    spec = RepSpec((1,), alphabet=2)
    omega = spec.gp_vector()
    # a1* on the embedded vacuum lands on |2 . 1^inf> over the binary alphabet
    got = eval_on_ket(spec, parse_expression("a1*"), omega)
    assert got == Ket.basis(EPWord((2,), (1,)))


def test_cancelling_terms_give_the_empty_ket():
    omega = P1.gp_vector()
    image = eval_on_ket(P1, parse_expression("s1 - s1"), omega)
    assert len(image) == 0
    assert image == Ket()


def _token_by_token(spec, terms, v):
    """The oracle of ``eval_on_ket``: one token applied to the whole ket at a time, right to left."""
    images = []
    for term in terms:
        u = v
        for factor in reversed(term.factors):
            if factor.kind == "s":
                u = apply_generator(spec, factor.index, u, star=factor.star)
            elif spec.alphabet is None:
                u = (apply_create if factor.star else apply_annihilate)(factor.index, u)
            else:
                ladder = apply_create if factor.star else apply_annihilate
                u = _embedded(spec, u, partial(ladder, factor.index))
        images.append(term.coeff * u)
    return _sum(images)


_SPECS = [P1, RepSpec((2,)), RepSpec((1, 2)), RepSpec((1, 2, 3)),
          RepSpec((1,), alphabet=2), RepSpec((1,), alphabet=3)]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(_SPECS), st.data())
def test_eval_equals_token_by_token(seed, spec, data):
    """Runs of ladder tokens walk in one pass, through the block code under an alphabet."""
    top = spec.alphabet or 4
    token = st.one_of(st.builds("a{}{}".format, st.integers(min_value=1, max_value=6),
                                st.sampled_from(["", "*"])),
                      st.builds("s{}{}".format, st.integers(min_value=1, max_value=top),
                                st.sampled_from(["", "*"])))
    products = st.lists(token, min_size=1, max_size=6).map(" ".join)
    text = data.draw(st.lists(products, min_size=1, max_size=3).map(" + ".join))
    v = random_ket(random.Random(seed), spec, max_labels=4)
    terms = parse_expression(text)
    assert eval_on_ket(spec, terms, v) == _token_by_token(spec, terms, v), text
