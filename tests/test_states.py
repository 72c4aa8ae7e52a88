from fractions import Fraction

from hypothesis import given, strategies as st

from cuntzboson.scalar import ONE, RadicalScalar, sqrt_nat
from cuntzboson.states import Ket
from cuntzboson.words import EPWord

W = EPWord((2,), (1,))
W2 = EPWord((3,), (1,))


def test_linear_space_trivia():
    v = Ket({W: sqrt_nat(2)})
    assert v + Ket() == v
    assert not (0 * v)
    assert not (Ket({W: sqrt_nat(2)}) + Ket({W: -sqrt_nat(2)}))


def test_inner_examples():
    omega = Ket.basis(EPWord((), (1,)))
    assert omega.inner(omega) == ONE
    assert not Ket.basis(EPWord((), (1, 2))).inner(Ket.basis(EPWord((), (2, 1))))
    mixed = Ket({W: sqrt_nat(2), W2: ONE})
    assert mixed.inner(Ket.basis(W)) == sqrt_nat(2)


def test_basis_skips_the_general_constructor(monkeypatch):
    def refuse(self, amplitudes=()):
        raise AssertionError("Ket.basis went through Ket.__init__")

    monkeypatch.setattr(Ket, "__init__", refuse)
    v = Ket.basis(W)
    assert v._amps == {W: ONE} and str(v) == "1 * |2|1>"


def test_norm_squared_examples():
    assert not Ket().inner(Ket())
    assert Ket.basis(W).inner(Ket.basis(W)) == ONE
    v = Ket({W: sqrt_nat(2), W2: sqrt_nat(3)})
    assert v.inner(v) == RadicalScalar.rational(5)


labels = st.builds(
    EPWord,
    st.lists(st.integers(1, 3), max_size=3).map(tuple),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
)
amplitudes = st.builds(
    RadicalScalar,
    st.dictionaries(st.sampled_from([1, 2, 3]), st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=2),
)
kets = st.dictionaries(labels, amplitudes, max_size=4).map(Ket)


@given(kets, kets)
def test_inner_symmetry(u, v):
    assert u.inner(v) == v.inner(u)


@given(kets, kets)
def test_cauchy_schwarz_at_float_precision(u, v):
    lhs = float(u.inner(v)) ** 2
    rhs = float(u.inner(u)) * float(v.inner(v))
    assert lhs <= rhs + 1e-9


@given(kets)
def test_norm_positive(v):
    if v:
        assert float(v.inner(v)) > 0
    else:
        assert not v.inner(v)


@given(kets, kets, kets)
def test_bilinearity_over_sums(u, v, w):
    assert (u + v).inner(w) == u.inner(w) + v.inner(w)


@given(kets, kets, kets, st.sampled_from([1, -1, 2]))
def test_subtraction_adds_the_negation(u, w, x, k):
    # a and b share u's labels with equal (k = 1), opposite (k = -1) or unequal amplitudes
    a, b = u + w, k * u + x
    diff = a - b
    assert diff == a + (-b)
    assert all(diff._amps.values())  # no zero amplitude is stored
    assert diff + b == a
    assert not (a - a) and a - a == Ket()
    assert a - Ket() == a and Ket() - b == -b


def test_text_format():
    v = Ket({EPWord((1, 2), (1,)): ONE})
    assert str(v) == "1 * |1,2|1>"
    multi = Ket({W: RadicalScalar({1: Fraction(1, 2), 2: 1})})
    assert str(multi) == "(1/2 + sqrt(2)) * |2|1>"
    assert str(Ket()) == "0"


def test_items_sorted_by_label_key():
    v = Ket({W2: ONE, W: ONE, EPWord((), (1,)): ONE})
    assert [w for w, _ in v.items()] == [EPWord((), (1,)), W, W2]


def test_json_roundtrip():
    v = Ket({W: sqrt_nat(2), EPWord((), (1, 2)): RadicalScalar.rational(Fraction(-1, 3))})
    assert Ket.from_json(v.to_json()) == v
