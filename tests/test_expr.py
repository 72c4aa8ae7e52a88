import random
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson.boson import apply_annihilate, apply_create
from cuntzboson.common import DomainError, ExprError
from cuntzboson.cuntz import RepSpec, apply_generator
from cuntzboson.embed import decode_label, encode_label
from cuntzboson.expr import Factor, Term, eval_on_ket, parse_expression
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
                ladder = apply_create if factor.star else apply_annihilate  # by hand through the codec
                decoded = Ket((decode_label(spec, w), c) for w, c in u._amps.items())
                u = Ket((encode_label(spec, w), c) for w, c in ladder(factor.index, decoded)._amps.items())
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


def test_generator_runs_check_every_letter_in_acting_order_even_when_zero():
    """A run reduces by s_i* s_j = delta_ij, yet each letter is checked against the alphabet
    in the order the tokens act: s1* s2 is zero, and s3 still exceeds N = 2."""
    spec = RepSpec((1,), alphabet=2)
    omega = spec.gp_vector()
    assert not eval_on_ket(spec, parse_expression("s1* s2"), omega)
    for text, letter in (("s3 s1* s2", 3), ("s4 s3", 3), ("s1 s4* a1*", 4), ("a1 s2* s5", 5)):
        with pytest.raises(DomainError, match=f"generator index {letter} exceeds"):
            eval_on_ket(spec, parse_expression(text), omega)


def _falling_factorial(spec, n, l, v):
    """N (N - 1) ... (N - l + 1) v with N = a_n* a_n, one number operator at a time."""
    number = [Term(ONE, (Factor("a", n, True), Factor("a", n, False)))]
    for i in range(l):
        v = eval_on_ket(spec, number, v) - i * v
    return v


@pytest.mark.parametrize("n", [1, 2, 2**10])
@pytest.mark.parametrize("cycle", [(1,), (2,), (1, 2)], ids=str)
def test_ladder_power_pair_is_the_falling_factorial_of_the_number_operator(cycle, n):
    """(a_n*)^l a_n^l = N (N - 1) ... (N - l + 1), N = a_n* a_n, for l <= 6 on each letter
    1 .. l+1 at mode n, and on the vacuum of |3, where it is perm(2, l)."""
    spec = RepSpec(cycle)
    vacuum = EPWord((), cycle)
    head = tuple(vacuum.letter_at(i) for i in range(1, n))
    for l in range(1, 7):
        power_pair = [Term(ONE, (Factor("a", n, True, l), Factor("a", n, False, l)))]
        for letter in range(1, l + 2):
            v = Ket.basis(EPWord(head + (letter,), cycle))
            got = eval_on_ket(spec, power_pair, v)
            assert got == _falling_factorial(spec, n, l, v) == perm(letter - 1, l) * v, (l, letter)
        three = RepSpec((3,))
        v = three.gp_vector()
        got = eval_on_ket(three, power_pair, v)
        assert got == _falling_factorial(three, n, l, v) == perm(2, l) * v, l


_COEFFS = st.one_of(st.just(ONE), st.integers(min_value=-5, max_value=5).map(RadicalScalar.rational),
                    st.builds(lambda sign, r: sign * sqrt_nat(r), st.sampled_from([1, -1]),
                              st.sampled_from([2, 3, 5, 6, 7, 10])))


@st.composite
def _terms(draw, top):
    factor = st.builds(lambda kind, index, star: Factor(kind, index, star), st.sampled_from("sa"),
                       st.integers(min_value=1, max_value=top), st.booleans())
    factors = draw(st.lists(factor, max_size=5))
    return Term(draw(_COEFFS), tuple(factors))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(_SPECS), st.data())
def test_printed_term_parses_back_to_the_same_operator(seed, spec, data):
    """``str`` of a term with power-1 factors and a coefficient ONE, an integer or
    +-sqrt(r) is expression text that acts like the term on random kets."""
    term = data.draw(_terms(spec.alphabet or 4))
    v = random_ket(random.Random(seed), spec, max_labels=4)
    assert eval_on_ket(spec, parse_expression(str(term)), v) == eval_on_ket(spec, [term], v), str(term)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(_SPECS[:4]), st.data())
def test_adjoint_term_is_the_adjoint_operator(seed, spec, data):
    """<t u, v> = <u, t* v>, with t* the factors reversed and each star flipped."""
    term = data.draw(_terms(4))
    rng = random.Random(seed)
    u, v = random_ket(rng, spec, max_labels=4), random_ket(rng, spec, max_labels=4)
    tu = eval_on_ket(spec, [term], u)
    v = v + tu  # so that the inner products are usually nonzero
    assert tu.inner(v) == u.inner(eval_on_ket(spec, [term.adjoint()], v)), str(term)
