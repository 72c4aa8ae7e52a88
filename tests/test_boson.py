import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson import boson, cli, embed, expr, verify, words
from cuntzboson.boson import (_walk, apply_annihilate, apply_create,
                              fock_extension_action, fock_word, literal_annihilate, literal_create)
from cuntzboson.branching import _normal_ordered
from cuntzboson.common import MAX_MODE, CheckResult
from cuntzboson.cuntz import RepSpec, apply_generator
from cuntzboson.expr import Term, eval_on_ket, parse_expression
from cuntzboson.scalar import ONE, RadicalScalar, ZERO, sqrt_nat, sqrt_product
from cuntzboson.states import Ket, _sum
from cuntzboson.verify import SuiteResult, _intertwining, random_ket, random_occupations
from cuntzboson.words import EPWord, expand

P1 = RepSpec((1,))
P12 = RepSpec((1, 2))
OMEGA = P1.gp_vector()


def test_annihilate_examples():
    assert not apply_annihilate(1, P12.gp_vector())
    v = Ket.basis(EPWord((), (2,)))
    assert apply_annihilate(1, v) == Ket.basis(EPWord((1,), (2,)))
    assert not apply_annihilate(2, OMEGA)


def test_create_examples():
    for n in (1, 2, 5):
        expected = Ket.basis(EPWord((1,) * (n - 1) + (2,), (1,)))
        assert apply_create(n, OMEGA) == expected
    v = Ket.basis(EPWord((), (2,)))
    assert apply_create(1, v) == sqrt_nat(2) * Ket.basis(EPWord((3,), (2,)))


def test_power_examples():
    v = Ket.basis(EPWord((4,), (1,)))
    assert _walk(v, [(1, -2)]) == sqrt_nat(6) * Ket.basis(EPWord((2,), (1,)))
    assert _walk(v, [(1, -3)]) == sqrt_nat(6) * Ket.basis(EPWord((), (1,)))
    assert _walk(v, [(1, -4)]) == Ket()  # letter 4 cannot fall by 4
    assert _walk(v, [(1, 3)]) == sqrt_nat(4 * 5 * 6) * Ket.basis(EPWord((7,), (1,)))


def _single_steps(op, n, v, k):
    for _ in range(k):
        v = op(n, v)
    return v


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([P1, RepSpec((2,)), P12]),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6) | st.integers(min_value=MAX_MODE - 2, max_value=MAX_MODE))
def test_power_equals_single_steps(seed, spec, k, n):
    v = random_ket(random.Random(seed), spec)
    # raise a copy at mode n so that lowering by k both empties and keeps labels
    v = v + _single_steps(apply_create, n, v, 2)
    for step, op in ((-k, apply_annihilate), (k, apply_create)):
        # a bare bool: the text of a label that deviates near MAX_MODE has a million letters
        same = _walk(v, [(n, step)]) == _single_steps(op, n, v, k)
        assert same, f"step {step} at mode {n} differs from {k} steps of {op.__name__}"


_OCCUPATION_FUNCTIONS = (
    fock_word,
    lambda occ: embed.fock_word_in_ON(RepSpec((1,), alphabet=3), occ),
    lambda occ: fock_extension_action(2, True, occ),
)


def _merged_exponents(data):
    """The canonical occupation list of ``(mode, count)`` entries, merged by a plain dict
    loop: the oracle that ``cli._parse_occupations`` is checked against."""
    merged = {}
    for mode, exp in data:
        if mode < 1:
            raise ValueError(f"modes are 1-based, got {mode}")
        if exp < 0:
            raise ValueError(f"exponents must be >= 0, got {exp}")
        if exp:
            merged[mode] = merged.get(mode, 0) + exp
    return tuple(sorted(merged.items()))


def _exponents_or_error(convert, data):
    try:
        return convert(data)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-1, max_value=6), st.integers(min_value=-1, max_value=3)),
                max_size=5))
def test_parsed_occupations_match_the_merge_loop(entries):
    """``--occ`` text merges exactly as the dict loop does, refuses what it refuses, and
    its result is an occupation list that every occupation function takes as it is."""
    text = ",".join(f"{mode}:{count}" for mode, count in entries)
    got = _exponents_or_error(cli._parse_occupations, text)
    expected = _exponents_or_error(_merged_exponents, entries)
    assert isinstance(got, str) == isinstance(expected, str)
    if not isinstance(got, str):
        assert got == expected
        for function in _OCCUPATION_FUNCTIONS:
            function(got)


@pytest.mark.parametrize("occupations, message", [
    ({1: 2, 3: 1}, "an occupation list is a tuple of (mode, count) pairs, got a dict"),
    ([(1, 2)], "an occupation list is a tuple of (mode, count) pairs, got a list"),
    (((1, 2), [3, 1]), "an occupation list is a tuple of (mode, count) pairs, got the entry [3, 1]"),
    (((3, 1), (1, 2)), "occupation modes must increase, got 1 after 3"),
    (((1, 1), (1, 2)), "occupation modes must increase, got 1 after 1"),
    (((0, 1),), "modes are 1-based, got 0"),
    (((2, 1), (0, 1)), "modes are 1-based, got 0"),
    (((1, 0), (2, 1)), "exponents must be >= 1, got 0"),
    (((1, 1), (2, -1)), "exponents must be >= 1, got -1"),
], ids=["mapping", "list", "list entry", "unsorted", "repeated mode", "mode 0",
        "mode 0 after a pair", "count 0", "negative count"])
def test_occupation_functions_refuse_a_non_canonical_list(occupations, message):
    """Only ``cli._parse_occupations`` merges entries; the functions that take an
    occupation list refuse every other form, each case with one message."""
    for function in _OCCUPATION_FUNCTIONS:
        with pytest.raises(ValueError) as refused:
            function(occupations)
        assert str(refused.value) == message


@pytest.mark.parametrize("power", [-1])
def test_power_below_one_is_refused(power):
    for function in _OCCUPATION_FUNCTIONS:
        with pytest.raises(ValueError, match="exponents"):
            function(((1, power),))


@pytest.mark.parametrize("kept", [False, True], ids=["plain", "kept images"])
@pytest.mark.parametrize("ladder, n", [(apply_create, 0), (apply_create, -1), (apply_annihilate, 0),
                                       (apply_annihilate, -2)])
def test_ladder_refuses_a_mode_below_one(ladder, n, kept):
    """The image slot is keyed by the signed mode, so a ket that keeps its images for
    modes 1 and 2 holds a key for -1 and 2 as well: a mode below 1 is refused all the
    same, and no kept image answers it."""
    v = random_ket(random.Random(3), P12)
    if kept:
        v._images = {}
        for mode in (1, 2):
            apply_create(mode, v), apply_annihilate(mode, v)
        assert sorted(v._images) == [-2, -1, 1, 2]
    with pytest.raises(ValueError) as refused:
        ladder(n, v)
    assert str(refused.value) == f"modes are 1-based, got {n}"


def test_closed_form_matches_literal_series():
    rng = random.Random(19)
    for spec in (P1, P12):
        for _ in range(6):
            v = random_ket(rng, spec, max_labels=3, letter_bound=4, prefix_bound=3)
            for n in (1, 2, 3):
                assert apply_annihilate(n, v) == literal_annihilate(spec, n, v)
                assert apply_create(n, v) == literal_create(spec, n, v)


def _series_term(label, n, create):
    """The one term of Abe's series for a_n (a_n* if ``create``) that does not kill
    ``label``, as ``act --expr`` text, or None for a_n on letter 1.  With K the first
    n - 1 letters and c the letter at n: sqrt(c-1) s_K s_{c-1} s_c* s_K* for a_n, and
    sqrt(c) s_K s_{c+1} s_c* s_K* for a_n*."""
    K = [label.letter_at(p) for p in range(1, n)]
    c = label.letter_at(n)
    if not create and c == 1:
        return None
    new, root = (c + 1, c) if create else (c - 1, c - 1)
    return " ".join([f"sqrt({root})", *(f"s{k}" for k in K), f"s{new}", f"s{c}*",
                     *(f"s{k}*" for k in reversed(K))])


@pytest.fixture(scope="module")
def series_cases():
    """(label ket, mode, create, the series term's image) on 20 seeded labels of each of
    |1, |2, |1,2 and |3,1,2 (prefixes of up to 16 letters, each up to 12), at modes 1-16,
    64, 256 and 1024.  The images are built with the ladder kernels made unusable, so the
    s-token path they take shares none of them."""
    def unusable(*_):
        raise AssertionError("the series oracle reached a ladder kernel")

    rng, cases = random.Random(53), []
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((boson, "_ladder"), (boson, "_walk"), (boson, "_root"), (expr, "_walk"),
                             (embed, "_walk"), (boson, "_move_letter"), (words, "_move_letter")):
            mp.setattr(module, name, unusable)
        for cycle in ((1,), (2,), (1, 2), (3, 1, 2)):
            spec = RepSpec(cycle)
            for _ in range(20):
                prefix = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 16)))
                v = Ket.basis(rng.choice(spec.rotation_vacua()).prepend(prefix))
                [label] = v._amps
                for n, create in itertools.product((*range(1, 17), 64, 256, 1024), (False, True)):
                    text = _series_term(label, n, create)
                    image = Ket() if text is None else eval_on_ket(spec, parse_expression(text), v)
                    cases.append((v, n, create, image))
    return cases


def _series_disagreements(cases):
    return sum((boson.apply_create if create else boson.apply_annihilate)(n, v) != image
               for v, n, create, image in cases)


def test_each_ladder_step_is_one_term_of_the_series(series_cases):
    assert len(series_cases) == 3040 and _series_disagreements(series_cases) == 0


def _create_doubled_above_mode_8(true):  # mutant A
    return lambda n, v: 2 * true(n, v) if n > 8 else true(n, v)


def _root_one_too_high_from_10(true):  # mutant B: q + 1 for every n >= 10
    def root(n):
        q, r = true(n)
        return (q + 1, r) if n >= 10 else (q, r)
    return root


@pytest.mark.parametrize("name, plant", [("apply_create", _create_doubled_above_mode_8),
                                         ("_root", _root_one_too_high_from_10)])
def test_series_terms_flag_planted_ladder_faults(monkeypatch, series_cases, name, plant):
    """Both faults pass all six suites at their CLI defaults, which reach no mode above 7
    and no letter above 8; the series terms flag each of them."""
    monkeypatch.setattr(boson, name, plant(getattr(boson, name)))
    assert _series_disagreements(series_cases) > 0


def test_ccr_diagonal_and_number_operator():
    rng = random.Random(23)
    for _ in range(10):
        v = random_ket(rng, P12)
        assert apply_annihilate(1, apply_create(1, v)) - apply_create(1, apply_annihilate(1, v)) == v
    for _ in range(10):
        w = [w for w, _ in random_ket(rng, P1, max_labels=1).items()][0]
        for n in (1, 2, 3, 4):
            number = apply_create(n, apply_annihilate(n, Ket.basis(w)))
            expected = RadicalScalar.rational(w.letter_at(n) - 1) * Ket.basis(w)
            assert number == expected


def test_number_eigenvalue_on_gp_vectors():
    for j in (1, 2, 3, 5):
        omega = RepSpec((j,)).gp_vector()
        for n in (1, 2, 3):
            got = apply_annihilate(n, apply_create(n, omega))
            assert got == RadicalScalar.rational(j) * omega


def test_adjointness():
    rng = random.Random(29)
    for _ in range(10):
        u, v = random_ket(rng, P12), random_ket(rng, P12)
        for n in (1, 2, 3):
            assert apply_annihilate(n, u).inner(v) == u.inner(apply_create(n, v))


def test_empty_monomial_is_identity():
    assert eval_on_ket(P1, [Term(ONE, ())], OMEGA) == OMEGA


def _factor_by_factor(v, steps):
    """The oracle of ``_walk``: each ladder power applied to the whole ket in turn, as |k|
    single steps of ``apply_create``/``apply_annihilate``."""
    for n, k in steps:
        v = _single_steps(apply_create if k > 0 else apply_annihilate, n, v, abs(k))
    return v


def _canonical_labels(v):
    """Whether every label of ``v`` is the one its printed form builds afresh, hash included."""
    for word in v._amps:
        fresh = EPWord(word.prefix, word.cycle)
        if not (word == fresh and hash(word) == hash(fresh) and word._rot == fresh._rot
                and word._diff == fresh._diff):
            return False
    return True


_WALK_MODES = st.integers(min_value=1, max_value=8) | st.sampled_from([2**e for e in range(6, 15)])
_POWERS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from([P1, RepSpec((2,)), P12, RepSpec((1, 2, 3))]),
       st.lists(st.tuples(_WALK_MODES, _POWERS), max_size=5),
       _WALK_MODES, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.dictionaries(_WALK_MODES, st.integers(min_value=1, max_value=3), max_size=3),
       st.dictionaries(_WALK_MODES, st.integers(min_value=1, max_value=3), max_size=3))
def test_walk_equals_factor_by_factor(seed, spec, steps, n, lower, raise_, creators, annihilators):
    v = random_ket(random.Random(seed), spec, max_labels=4)
    # a raised copy at each mode walked, so that lowering both kills and keeps labels
    v = v + _sum([_single_steps(apply_create, mode, v, 2)
                  for mode in {m for m, _ in steps} | {n} | annihilators.keys()])
    steps = steps + [(n, -lower), (n, raise_)]  # the same mode lowered, then raised
    got = _walk(v, steps)
    same, canonical = got == _factor_by_factor(v, steps), _canonical_labels(got)
    assert same, f"walk of {steps} differs from its factors applied in turn"
    assert canonical, f"walk of {steps} leaves a label out of canonical form"
    creators, annihilators = sorted(creators.items()), sorted(annihilators.items())
    monomial = _normal_ordered(creators, annihilators)
    got = eval_on_ket(spec, [monomial], v)
    expected = _factor_by_factor(v, [(m, -k) for m, k in annihilators] + creators)
    same, canonical = got == expected, _canonical_labels(got)
    assert same, f"{monomial} differs from its factors applied in turn"
    assert canonical, f"{monomial} leaves a label out of canonical form"


def test_fock_word_examples():
    coeff, word = fock_word(((1, 1), (2, 2)))
    assert (coeff, word) == (sqrt_nat(2), (2, 3))
    assert fock_word(()) == (ONE, ())
    for n in (1, 3, 5):
        coeff, word = fock_word(((n, 1),))
        assert coeff == ONE
        assert word == (1,) * (n - 1) + (2,)


def test_fock_word_round_trip():
    rng = random.Random(37)
    for _ in range(60):
        occ = random_occupations(rng, max_modes=5, max_count=5, mode_bound=6)
        coeff, word = fock_word(occ)
        state = _walk(OMEGA, occ)
        assert state == coeff * Ket.basis(EPWord(word, (1,)))


def test_fock_extension_examples():
    coeff, creators = fock_extension_action(3, False, ())
    assert creators == ((1, 2),)
    assert coeff == sqrt_product(1, 2).inverse()
    assert fock_extension_action(1, True, ()) == (ONE, ())
    assert fock_extension_action(2, True, ()) == (ZERO, ())
    assert fock_extension_action(2, True, ((1, 1),)) == (ONE, ())


def test_fock_extension_both_sides_agree():
    state_sets = [(), ((2, 3),), ((1, 2), (3, 1)), ((2, 1), (4, 2))]
    for creators in state_sets:
        state = _walk(OMEGA, creators)
        for m in range(1, 5):
            for star in (False, True):
                coeff, image = fock_extension_action(m, star, creators)
                lhs = apply_generator(P1, m, state, star=star)
                rhs = coeff * _walk(OMEGA, image)
                assert lhs == rhs, (creators, m, star)


def test_fock_ext_right_sides_equal_the_coefficient_times_the_walk(monkeypatch):
    """``run_fock_ext`` walks the vacuum that carries the coefficient, and a zero coefficient
    gives the zero ket.  Its left side is replaced here by the oracle, the coefficient times
    the walk of the unit vacuum, so every check passes exactly when every right side equals it."""
    actions = []

    def recorded(m, star, creators):
        actions.append(fock_extension_action(m, star, creators))
        return actions[-1]

    def oracle(spec, m, v, star=False):
        coeff, image = actions[-1]
        return coeff * _walk(OMEGA, image)

    monkeypatch.setattr(boson, "fock_extension_action", recorded)
    monkeypatch.setattr(verify, "apply_generator", oracle)
    result = verify.run_suite("fock-ext", modes=4, cutoff=2, exps=2)
    assert result.ok and result.total == len(actions) == verify._fock_ext_checks(4, 2, 2) == 264
    assert {bool(coeff) for coeff, _ in actions} == {False, True}


_STEPS = {1: apply_create, -1: apply_annihilate}


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([P1, RepSpec((2,)), P12]),
       st.lists(st.tuples(_WALK_MODES, st.sampled_from([1, -1])), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_kept_images_are_fresh_images_built_once(seed, spec, requests, order):
    v = random_ket(random.Random(seed), spec)
    fresh, text, doc = Ket(v._amps), str(v), v.to_json()
    v._images = {}
    requests = requests * 2  # every request repeated, in random order
    order.shuffle(requests)
    first = {}
    for n, sign in requests:
        image = _STEPS[sign](n, v)
        assert image == _STEPS[sign](n, fresh), f"kept image of {(n, sign)} differs from a fresh copy's"
        assert image is first.setdefault((n, sign), image), f"{(n, sign)} was built twice"
        assert image._images is None, "an image keeps images of its own"
    assert len(v._images) <= 2 * len({n for n, _ in requests})
    assert set(v._images) == {sign * n for n, sign in requests}
    assert v == fresh and fresh == v and str(v) == text and v.to_json() == doc


def test_intertwining_relations():
    rng = random.Random(41)
    samples = [random_ket(rng, P12) for _ in range(4)] + [Ket()]
    result = SuiteResult("intertwining")
    _intertwining(result, P12, samples)
    # s_m a_n = a_{n+1} s_m and its adjoint form, m, n = 1..3, on each of the 5 kets
    assert (result.total, result.passed, result.failures) == (90, 90, [])


def test_intertwining_builds_each_generator_operand_once(monkeypatch):
    """One sample takes s_m v once per m and s_m of each of its six ladder images: 3 + 18 calls."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return apply_generator(*args, **kwargs)
    monkeypatch.setattr(verify, "apply_generator", spy)
    result = SuiteResult("intertwining")
    _intertwining(result, P12, [random_ket(random.Random(41), P12)])
    assert (result.total, result.passed) == (18, 18)
    assert len(calls) == 21 and sorted(calls) == [1] * 7 + [2] * 7 + [3] * 7


@pytest.mark.parametrize("modes, samples", [(2, 2), (3, 1), (1, 3), (6, 1)])
def test_ccr_builds_each_ladder_image_once(monkeypatch, modes, samples):
    """A ccr sample builds each of its 2·modes single-step images and 4·modes² two-step
    images once: 120 builds at modes 2, samples 2.  It keeps its single-step images, and
    each of those keeps only its modes two-step images of its own kind, the ones asked
    for twice: 2·modes·(1 + modes) kets, 84 at modes 6.  Each of ``apply_create`` and
    ``apply_annihilate`` is still called 6·modes² times a sample, and ``_ladder`` is
    entered once per build: a kept image is answered at the entry point."""
    builds, drawn, entries = [], [], []
    calls = {"apply_create": 0, "apply_annihilate": 0}
    canonical, draw, ladder = boson._canonical, verify.random_ket, boson._ladder

    def spy(amps):
        builds.append(1)
        return canonical(amps)

    def drawing(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def entering(n, v, sign):
        entries.append(sign * n)
        return ladder(n, v, sign)

    def counted(name, true):
        def call(n, v):
            calls[name] += 1
            return true(n, v)
        return call
    monkeypatch.setattr(boson, "_canonical", spy)
    monkeypatch.setattr(verify, "random_ket", drawing)
    monkeypatch.setattr(boson, "_ladder", entering)
    for name in calls:
        monkeypatch.setattr(boson, name, counted(name, getattr(boson, name)))
    result = verify.run_suite("ccr", modes=modes, samples=samples, seed=7)
    assert result.total == result.passed == 9 * samples * modes**2
    assert len(builds) == len(entries) == 3 * samples * (2 * modes + 4 * modes**2)
    assert calls == dict.fromkeys(calls, 3 * samples * modes**2 * 6)
    assert len(drawn) == 3 * samples
    for v in drawn:
        assert sorted(v._images) == list(range(-modes, 0)) + list(range(1, modes + 1))
        for key, image in v._images.items():
            assert len(image._images) == modes and all(key * k > 0 for k in image._images)
            assert all(two_step._images is None for two_step in image._images.values())
        held = len(v._images) + sum(len(image._images) for image in v._images.values())
        assert held == 2 * modes * (1 + modes)


def _ccr_without_kept_images(modes, samples, seed):
    """``(total, passed, failures)`` of ccr from a plain loop: samples drawn as ``run_ccr``
    draws them, every ladder applied to kets that keep no images, the relations in order."""
    rng = random.Random(seed)
    checks = []
    for cycle in ((1,), (2,), (1, 2)):
        spec = RepSpec(cycle)
        for idx in range(samples):
            v = random_ket(rng, spec)
            assert v._images is None
            for n in range(1, modes + 1):
                for m in range(1, modes + 1):
                    lowered_raised = apply_annihilate(n, apply_create(m, v))
                    raised_lowered = apply_create(m, apply_annihilate(n, v))
                    delta = v if n == m else Ket()
                    annihilators = (apply_annihilate(n, apply_annihilate(m, v)),
                                    apply_annihilate(m, apply_annihilate(n, v)))
                    creators = apply_create(n, apply_create(m, v)), apply_create(m, apply_create(n, v))
                    checks += [(lowered_raised == raised_lowered + delta, spec, idx,
                                f"[a{n}, a{m}*] = {int(n == m)}"),
                               (annihilators[0] == annihilators[1], spec, idx, f"[a{n}, a{m}] = 0"),
                               (creators[0] == creators[1], spec, idx, f"[a{n}*, a{m}*] = 0")]
    failures = [CheckResult(f"{spec} sample {idx}: {name}", False)
                for passed, spec, idx, name in checks if not passed]
    return len(checks), len(checks) - len(failures), failures


def _root_wrong_at_5(true):
    return lambda n: (2, 5) if n == 5 else true(n)


@pytest.mark.parametrize("plant", [None, _root_wrong_at_5])
def test_kept_images_change_no_ccr_outcome(monkeypatch, plant):
    """``run_ccr``, whose samples and their images keep images, records the checks of a
    loop whose kets keep none, with a planted kernel fault and without one."""
    monkeypatch.setattr(SuiteResult, "MAX_FAILURES", 10**6)
    if plant:
        monkeypatch.setattr(boson, "_root", plant(boson._root))
    result = verify.run_ccr(modes=4, samples=8, seed=7)
    expected = _ccr_without_kept_images(4, 8, 7)
    assert (result.total, result.passed, result.failures) == expected
    assert (expected[1] < expected[0]) if plant else (expected[1] == expected[0] == 1152)


def test_ccr_exact_sweep_small():
    rng = random.Random(43)
    kets = [random_ket(rng, P12, max_labels=4) for _ in range(5)]
    for v, (n, m) in itertools.product(kets, itertools.product((1, 2, 3), repeat=2)):
        comm = apply_annihilate(n, apply_create(m, v)) - apply_create(m, apply_annihilate(n, v))
        assert comm == (v if n == m else Ket())
        assert (apply_annihilate(n, apply_annihilate(m, v))
                == apply_annihilate(m, apply_annihilate(n, v)))
        assert (apply_create(n, apply_create(m, v))
                == apply_create(m, apply_create(n, v)))


def test_ccr_exact_at_mode_one_million():
    n = 10**6
    rng = random.Random(47)
    deep = EPWord(expand((), (1, 2), n - 1) + (5,), (1, 2))  # letter 5 at mode n (n is even)
    v = random_ket(rng, P12, max_labels=4) + Ket.basis(deep)
    for m in (n, n - 1, n + 1, 1):
        comm = apply_annihilate(n, apply_create(m, v)) - apply_create(m, apply_annihilate(n, v))
        expected = v if m == n else Ket()
        same = comm == expected
        assert same, f"[a_n, a_{m}*] v differs on {_differing_labels(comm, expected)} labels"
    # the number operator reads the letter at mode n: vacuum letter 2 (n even), or 5
    number = apply_create(n, apply_annihilate(n, v))
    expected = Ket({w: c * (w.letter_at(n) - 1) for w, c in v._amps.items()})
    same, nonzero = number == expected, bool(number)
    assert same, f"a_n* a_n v differs on {_differing_labels(number, expected)} labels"
    assert nonzero, "a_n* a_n v is 0"


def _differing_labels(got, want):
    """How many labels two kets disagree on: a failure message that stays short at deep modes."""
    return sum(got._amps.get(w) != want._amps.get(w) for w in got._amps.keys() | want._amps.keys())


def test_monomial_text():
    assert str(_normal_ordered([(2, 1)], [(1, 3)])) == "a2* a1^3"
    assert str(_normal_ordered([(1, 2), (3, 1)], [(2, 1)])) == "a1*^2 a3* a2"
    assert str(_normal_ordered([], [])) == "1"
