"""``orthonormality_checks`` against the all-pairs rule it replaces, the recorder it feeds,
and the seeded sample generators against general-constructor oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cuntzboson.common import CheckResult
from cuntzboson.cuntz import RepSpec
from cuntzboson.scalar import ONE, RadicalScalar, sqrt_nat
from cuntzboson.states import Ket
from cuntzboson.verify import SuiteResult, orthonormality_checks, random_ket, random_label
from cuntzboson.words import EPWord, rotations


PASS = CheckResult("passed", True)


def all_pairs(name, kets):
    """The oracle: an inner product for every norm and every pair i < j."""
    out = []
    for i, u in enumerate(kets):
        norm = u.inner(u)
        out.append(PASS if norm == ONE else CheckResult(f"{name}: |v_{i}|^2 = 1", False, f"norm^2 {norm}"))
        for j in range(i + 1, len(kets)):
            inner = u.inner(kets[j])
            out.append(CheckResult(f"{name}: <v_{i}, v_{j}> = 0", False, f"inner {inner}") if inner else PASS)
    return out


def expected_record(checks, cap):
    """(total, passed, failures) of ``checks`` for a result that keeps ``cap`` failures."""
    failures = [check.line() for check in checks if not check.passed]
    return len(checks), len(checks) - len(failures), failures[:cap]


def recorded(name, kets, cap):
    result = SuiteResult(name)
    result.MAX_FAILURES = cap
    orthonormality_checks(result, name, kets)
    return result.total, result.passed, [failure.line() for failure in result.failures]


# A small pool of labels, so that drawn kets often share some.
POOL = [EPWord(prefix, (1,)) for prefix in ((), (2,), (3,), (1, 2), (2, 2), (3, 1, 2))]
HALF = sqrt_nat(2) * Fraction(1, 2)
amplitudes = st.sampled_from([ONE, -ONE, HALF, -HALF, ONE * 2, ONE * Fraction(1, 3)])
kets = st.dictionaries(st.sampled_from(POOL), amplitudes, max_size=4).map(Ket)
families = st.lists(kets, max_size=8).flatmap(
    lambda family: st.lists(st.sampled_from(family), max_size=3).map(lambda extra: family + extra)
    if family else st.just(family))


def basis(k):
    return Ket.basis(POOL[k])


@given(families)
@example([])
@example([Ket()])
@example([basis(0)])
@example([basis(0), Ket(), basis(0), Ket()])
# the only label v_0 shares with v_3 is its last one
@example([HALF * basis(1) + HALF * basis(2) + HALF * basis(5), basis(0), basis(3), basis(5)])
# the one failing pair <v_0, v_5> comes after four disjoint pairs
@example([basis(0), basis(1), basis(2), basis(3), basis(4), 2 * basis(0)])
def test_orthonormality_checks_match_all_pairs(family):
    oracle = all_pairs("family", family)
    for cap in (SuiteResult.MAX_FAILURES, 2, len(oracle)):
        assert recorded("family", family, cap) == expected_record(oracle, cap)
    assert len(oracle) == len(family) * (len(family) + 1) // 2


def test_add_describes_only_the_failures_it_keeps():
    described = []

    def describe(k):
        return lambda: described.append(k) or f"check {k}"

    def add(passed, describe=None):
        result.add(passed, describe)
        assert result.passed + result.failed == result.total

    result = SuiteResult("demo")
    for k in range(30):
        add(k % 3 != 0, describe(k))
    add(True)
    assert (result.total, result.passed, result.failed) == (31, 21, 10)
    assert result.failures == [CheckResult(f"check {k}", False) for k in range(0, 30, 3)]
    assert described == list(range(0, 30, 3))
    result.MAX_FAILURES = 12  # this result's own cap; the class keeps its default
    for k in range(30, 36):
        add(False, describe(k))
    assert (result.total, result.passed, result.failed) == (37, 21, 16)
    assert len(result.failures) == 12 and SuiteResult.MAX_FAILURES == 20
    assert described == list(range(0, 30, 3)) + [30, 31]
    assert not result.ok and result.summary() == "suite demo: 21/37 checks passed"
    with pytest.raises(AttributeError):
        result.passed = 37  # read off total and failed, never stored


# --- ccr compares two orderings instead of building their difference -------

# Labels of the representations |1, |2 and |1,2 that ccr samples, sharing prefixes.
CCR_POOL = [EPWord(prefix, cycle) for cycle in ((1,), (2,), (1, 2)) for prefix in ((), (3,), (2, 1))]
ccr_kets = st.dictionaries(st.sampled_from(CCR_POOL), amplitudes, max_size=4).map(Ket)


def concatenated(*kets):
    """The sum of ``kets``, accumulated by the constructor from their terms."""
    return Ket([term for ket in kets for term in ket._amps.items()])


@given(ccr_kets, ccr_kets, ccr_kets, st.one_of(st.none(), ccr_kets))
@example(Ket(), Ket(), Ket(), None)
@example(basis(0), basis(0), Ket(), None)
@example(basis(0), basis(0), basis(0), None)  # the right side adds v to a ket equal to it
@example(basis(0), HALF * basis(1), -HALF * basis(1), basis(0))  # Y + E cancels to zero
def test_ordering_comparison_matches_difference(x, y, e, offset):
    """``X == Y + E`` decides a relation exactly when the difference oracle does."""
    if offset is not None:  # X = Y + E + offset, equal to Y + E only when offset is 0
        x = concatenated(y, e, offset)
    assert (x == y + e) == (not (x - y - e))


# --- seeded samples: drawn in canonical form, drawing for drawing ------------

def oracle_scalar(rng):
    """The same draws as ``random_scalar``, through the general constructor."""
    terms = {1: Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
    if rng.random() < 0.5:
        terms[rng.choice((2, 3, 5))] = Fraction(rng.randint(-2, 2))
    scalar = RadicalScalar(terms)
    return scalar if scalar else ONE


def oracle_label(rng, spec, letter_bound=6, prefix_bound=4):
    top = letter_bound if spec.alphabet is None else min(letter_bound, spec.alphabet)
    prefix = tuple(rng.randint(1, top) for _ in range(rng.randint(0, prefix_bound)))
    vacuum = rng.choice([EPWord((), r) for r in rotations(spec.cycle)])
    return EPWord(prefix, vacuum.cycle)


def oracle_ket(rng, spec, max_labels=8, letter_bound=6, prefix_bound=4):
    entries = [(oracle_label(rng, spec, letter_bound, prefix_bound), oracle_scalar(rng))
               for _ in range(rng.randint(1, max_labels))]
    ket = Ket(entries)
    return ket if ket else spec.gp_vector()


SAMPLE_SPECS = [RepSpec((1,)), RepSpec((2,)), RepSpec((1, 2)), RepSpec((1, 2, 3)),
                RepSpec((1,), alphabet=2), RepSpec((1,), alphabet=3)]


# (max_labels, letter_bound, prefix_bound): the suites' defaults, the one-label
# kets of the ladder-deep benchmark, and the bounds the tests draw with.
@pytest.mark.parametrize("bounds", [(8, 6, 4), (1, 6, 4), (10, 6, 4), (3, 4, 3), (8, 5, 3)])
@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=str)
def test_random_ket_matches_general_constructors(spec, bounds):
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):
            ket = random_ket(fast, spec, *bounds)
            assert ket._amps == oracle_ket(slow, spec, *bounds)._amps
            assert fast.getstate() == slow.getstate()


# (letter_bound, prefix_bound): 3*(N-1) letters for N = 2, 3, 4 is the embedding
# suite's encode/decode roundtrip; (7, 4) and (5, 3) are what tests/test_embed.py draws.
@pytest.mark.parametrize("bounds", [(3, 4), (6, 4), (9, 4), (7, 4), (5, 3)])
@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=str)
def test_random_label_matches_general_constructor(spec, bounds):
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_label(fast, spec, *bounds) == oracle_label(slow, spec, *bounds)
            assert fast.getstate() == slow.getstate()


def test_check_results_are_immutable_values():
    row = CheckResult("a1 vac = 0", True, "result 0")
    assert row.line() == "[ok] a1 vac = 0: result 0"
    assert CheckResult("a1 vac = 0", False).line() == "[FAIL] a1 vac = 0"
    twin = CheckResult("a1 vac = 0", True, "result 0")
    assert row == twin and hash(row) == hash(twin) and len({row, twin, PASS}) == 2
    assert row != CheckResult("a1 vac = 0", False, "result 0") and PASS == CheckResult("passed", True, "")
    assert repr(PASS) == "CheckResult(name='passed', passed=True, detail='')"
    for field in ("name", "passed", "detail"):
        with pytest.raises(AttributeError):
            setattr(row, field, None)
