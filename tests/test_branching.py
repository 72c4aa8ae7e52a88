import itertools
import random

import pytest

from cuntzboson import branching, verify
from cuntzboson.branching import (_normal_ordered, basis_family, basis_lambda_j, basis_monomials,
                                  basis_size, classify_vacuum, cyclicity_witness, enumerate_components,
                                  inequivalence_witness)
from cuntzboson.common import MAX_CHECKS, DomainError
from cuntzboson.cuntz import RepSpec
from cuntzboson.expr import eval_on_ket
from cuntzboson.scalar import ONE, sqrt_nat
from cuntzboson.states import Ket
from cuntzboson.verify import SuiteResult, _labels, _vacuum_orthogonality
from cuntzboson.words import EPWord


# --- oracles: the label enumerators that ``verify._labels`` replaced, kept verbatim ---
# Each builds every label through the validating ``EPWord`` constructor.

def enumerate_labels(spec: RepSpec, prefix_bound: int, letter_bound: int) -> set[EPWord]:
    """The set of canonical labels with prefix length <= prefix_bound, letters <= letter_bound."""
    top = letter_bound if spec.alphabet is None else min(letter_bound, spec.alphabet)
    out = set()
    for rotation in spec.rotation_vacua():
        out.add(rotation)
        for length in range(1, prefix_bound + 1):
            for prefix in itertools.product(range(1, top + 1), repeat=length):
                out.add(EPWord(prefix, rotation.cycle))
    return out


def _typej_expected_labels(j: int, modes: int, exps: int) -> set[EPWord]:
    low = j - min(j - 1, exps)
    ranges = [range(low, j + exps + 1)] * modes
    return {EPWord(combo, (j,)) for combo in itertools.product(*ranges)}


def _onetwov_expected_labels(modes: int, exps: int) -> set[EPWord]:
    ranges = []
    for mode in range(1, modes + 1):
        base = 1 if mode % 2 else 2
        ranges.append(range(1, base + exps + 1))
    tail = (1, 2) if modes % 2 == 0 else (2, 1)
    return {EPWord(combo, tail) for combo in itertools.product(*ranges)}


def _constructed_basis_lambda_j(j: int, bound: int) -> list[EPWord]:
    """The body of ``basis_lambda_j`` before its labels were prepended to the vacuum."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    out = {EPWord((), (j,))}
    for length in range(1, bound + 1):
        for prefix in itertools.product(range(1, bound + 1), repeat=length):
            if prefix[-1] != j:
                out.add(EPWord(prefix, (j,)))
    return sorted(out, key=EPWord.sort_key)


_TAILS = [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]


def test_labels_is_every_range_of_prefixes_prepended_to_its_tail():
    letter_ranges = [range(1, 5), range(2, 4), range(4, 5), range(3, 3)]  # the last one is empty
    for cycle in _TAILS:
        spec, tail = RepSpec(cycle), EPWord((), cycle)
        for length in range(4):
            for ranges in itertools.product(letter_ranges, repeat=length):
                assert _labels(tail, ranges) == {EPWord(p, cycle) for p in itertools.product(*ranges)}
        for prefix_bound in range(4):
            for letters in range(1, 5):
                got = set().union(*(_labels(vacuum, [range(1, letters + 1)] * length)
                                    for vacuum in spec.rotation_vacua() for length in range(prefix_bound + 1)))
                assert got == enumerate_labels(spec, prefix_bound, letters), (cycle, prefix_bound, letters)


def test_labels_builds_the_typej_and_onetwov_spans_of_the_oracles():
    for modes in range(4):
        for exps in range(4):
            for j in range(1, 5):
                ranges = [range(j - min(j - 1, exps), j + exps + 1)] * modes
                assert _labels(EPWord((), (j,)), ranges) == _typej_expected_labels(j, modes, exps)
            tail = (2, 1) if modes % 2 else (1, 2)
            ranges = [range(1, (1 if n % 2 else 2) + exps + 1) for n in range(1, modes + 1)]
            assert _labels(EPWord((), tail), ranges) == _onetwov_expected_labels(modes, exps)


def test_run_bases_expects_the_spans_of_the_oracles(monkeypatch):
    """Each expected span that ``verify bases`` builds is the oracle's: the lambda
    spans are the union of the first 2(cutoff + 1) calls, then typej 1, typej 2, onetwov."""
    for cutoff in range(1, 4):
        for exps in range(1, 4):
            spans = []

            def spy(tail, ranges):
                spans.append(_labels(tail, ranges))
                return spans[-1]
            monkeypatch.setattr(verify, "_labels", spy)
            assert verify.run_bases(cutoff=cutoff, exps=exps).ok
            lam = cutoff + 1
            assert set().union(*spans[:lam]) == enumerate_labels(RepSpec((1,)), cutoff, cutoff)
            assert set().union(*spans[lam:2 * lam]) == enumerate_labels(RepSpec((2,)), cutoff, cutoff)
            assert spans[2 * lam:] == [_typej_expected_labels(1, cutoff, exps),
                                       _typej_expected_labels(2, cutoff, exps),
                                       _onetwov_expected_labels(cutoff, exps)]


def test_basis_lambda_is_the_constructor_built_list():
    for j in range(1, 4):
        for bound in range(5):
            assert basis_lambda_j(j, bound) == _constructed_basis_lambda_j(j, bound), (j, bound)


def test_enumerate_components_examples():
    assert [c.vacuum_label for c in enumerate_components(RepSpec((1,)), modes=6)] == [EPWord((), (1,))]
    comps = enumerate_components(RepSpec((1, 2)), modes=6)
    assert [c.vacuum_label for c in comps] == [EPWord((), (1, 2)), EPWord((), (2, 1))]
    assert [c.classification for c in comps] == ["F_12", "F_21"]
    comps = enumerate_components(RepSpec((3,)), modes=6)
    assert [c.classification for c in comps] == ["F_3"]


def test_classification_rows_are_verified():
    name, checks = classify_vacuum(EPWord((), (2,)), modes=6)
    assert name == "F_2"
    assert sum("a" in c.name and "a*" not in c.name for c in checks) >= 6
    assert all(c.passed for c in checks)
    assert any("= 2 vac" in c.name for c in checks)

    name, checks = classify_vacuum(EPWord((), (1, 2)), modes=6)
    assert name == "F_12"
    assert any(c.name == "a1 vac = 0" for c in checks)
    assert any(c.name == "a2* a2 vac = vac" for c in checks)

    name, checks = classify_vacuum(EPWord((), (1,)), modes=6)
    assert name == "Fock"
    assert any(c.name.startswith("a1 vac = 0") for c in checks)

    name, checks = classify_vacuum(EPWord((), (1, 1, 2)), modes=6)
    assert name == "periodic(1,1,2)"
    assert all(c.passed for c in checks)


def test_general_pattern_number_eigenvalues():
    name, checks = classify_vacuum(EPWord((), (3, 1)), modes=4)
    assert name == "periodic(3,1)"
    assert any("a1* a1 vac = 2 vac" in c.name for c in checks)


def test_cyclicity_witness_examples():
    fock = enumerate_components(RepSpec((1,)), modes=6)[0]
    target = EPWord((2, 3), (1,))
    witness = cyclicity_witness(fock, target)
    assert witness == _normal_ordered([(1, 1), (2, 2)], [])
    image = eval_on_ket(RepSpec((1,)), [witness], Ket.basis(fock.vacuum_label))
    assert image == sqrt_nat(2) * Ket.basis(target)

    comp12 = enumerate_components(RepSpec((1, 2)), modes=6)[0]
    target = EPWord((1, 1), (1, 2))
    witness = cyclicity_witness(comp12, target)
    assert witness == _normal_ordered([], [(2, 1)])
    assert eval_on_ket(RepSpec((1, 2)), [witness], Ket.basis(comp12.vacuum_label)) == Ket.basis(target)

    assert cyclicity_witness(fock, fock.vacuum_label) == _normal_ordered([], [])

    with pytest.raises(DomainError):
        cyclicity_witness(fock, EPWord((), (2,)))


def test_cyclicity_witness_sweep():
    rng = random.Random(47)
    comps = enumerate_components(RepSpec((1, 2)), modes=6)
    for _ in range(50):
        prefix = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4)))
        phase = rng.choice(((1, 2), (2, 1)))
        target = EPWord(prefix, phase)
        hits = [c for c in comps if c.vacuum_label.tail_equivalent(target)]
        assert len(hits) == 1
        comp = hits[0]
        image = eval_on_ket(RepSpec((1, 2)), [cyclicity_witness(comp, target)], Ket.basis(comp.vacuum_label))
        assert [w for w, _ in image.items()] == [target]
        assert dict(image.items())[target]


def brute_labels(j, bound):
    seen = set()
    for length in range(0, bound + 1):
        for prefix in itertools.product(range(1, bound + 1), repeat=length):
            seen.add(EPWord(prefix, (j,)))
    return seen


def test_basis_lambda_examples():
    assert basis_lambda_j(1, 1) == [EPWord((), (1,))]
    got = basis_lambda_j(1, 2)
    assert set(got) == {EPWord((), (1,)), EPWord((2,), (1,)),
                        EPWord((1, 2), (1,)), EPWord((2, 2), (1,))}
    assert set(got) == brute_labels(1, 2)
    got = basis_lambda_j(2, 1)
    assert set(got) == {EPWord((), (2,)), EPWord((1,), (2,))}
    assert set(got) == brute_labels(2, 1)


def test_basis_lambda_matches_enumeration():
    for j, bound in ((1, 3), (2, 3)):
        assert set(basis_lambda_j(j, bound)) == brute_labels(j, bound)
        assert set(basis_lambda_j(j, bound)) == set(
            enumerate_labels(RepSpec((j,)), bound, bound))


def test_typej_normalizers():
    family = dict((str(m), norm) for m, norm in basis_monomials("typej", 1, 2, 2)[1])
    assert family["a1*^2"] == sqrt_nat(2).inverse()
    assert all(factor.star for m, _ in basis_monomials("typej", 1, 2, 2)[1]
               for factor in m.factors)  # j = 1 never lowers
    family = dict((str(m), norm) for m, norm in basis_monomials("typej", 2, 2, 2)[1])
    assert family["a1"] == ONE
    assert family["a1*"] == sqrt_nat(2).inverse()
    # oracle for the last: |a_1* vac|^2 = 2 over the cycle-(2) vacuum
    vac = Ket.basis(EPWord((), (2,)))
    from cuntzboson.boson import apply_create
    raised = apply_create(1, vac)
    assert raised.inner(raised) == ONE + ONE


def test_typej_orthonormal_small():
    for j in (1, 2, 3):
        vac = Ket.basis(EPWord((), (j,)))
        kets = [norm * eval_on_ket(RepSpec((j,)), [m], vac) for m, norm in basis_monomials("typej", j, 3, 2)[1]]
        for i, u in enumerate(kets):
            assert u.inner(u) == ONE
            for v in kets[i + 1:]:
                assert not u.inner(v)


def test_onetwov_normalizers_and_orthonormality():
    family = dict((str(m), norm) for m, norm in basis_monomials("onetwov", 1, 2, 2)[1])
    assert family["a1*^2"] == sqrt_nat(2).inverse()
    assert family["a2*"] == sqrt_nat(2).inverse()
    assert family["a2"] == ONE
    vac = Ket.basis(EPWord((), (1, 2)))
    kets = [norm * eval_on_ket(RepSpec((1, 2)), [m], vac) for m, norm in basis_monomials("onetwov", 1, 3, 2)[1]]
    for i, u in enumerate(kets):
        assert u.inner(u) == ONE
        for v in kets[i + 1:]:
            assert not u.inner(v)


def test_basis_monomials_carry_the_vacuum_onto_each_oracle_label_with_amplitude_one():
    for modes in range(1, 4):
        for exps in range(1, 4):
            cases = [("typej", j, EPWord((), (j,)), _typej_expected_labels(j, modes, exps))
                     for j in range(1, 6)]
            cases.append(("onetwov", 1, EPWord((), (1, 2)), _onetwov_expected_labels(modes, exps)))
            for family, j, vacuum_label, expected in cases:
                vacuum, monomials = basis_monomials(family, j, modes, exps)
                assert vacuum == vacuum_label
                labels = set()
                for monomial, normalizer in monomials:
                    ket = normalizer * eval_on_ket(RepSpec(vacuum.cycle), [monomial], Ket.basis(vacuum))
                    label = [w for w, _ in ket.items()][0]
                    assert ket == Ket.basis(label), (family, j, modes, exps, str(monomial))
                    labels.add(label)
                assert len(monomials) == len(expected) and labels == expected


def test_basis_family_kets_equal_the_normalized_monomials_on_the_unit_vacuum(monkeypatch):
    """``basis_family`` walks the vacuum that carries the normalizer, scaling each amplitude
    once; the oracle applies the monomial to the unit vacuum and then scales by the normalizer.
    A doubled normalizer must double the ket, so a scale the walk dropped would show."""
    cases = [("lambda", 1), ("lambda", 2), ("typej", 1), ("typej", 2), ("typej", 3), ("onetwov", 1)]
    monomials = branching.basis_monomials
    for factor in (1, 2):
        monkeypatch.setattr(branching, "basis_monomials", lambda *args: (
            monomials(*args)[0], [(m, factor * norm) for m, norm in monomials(*args)[1]]))
        for modes in range(1, 4):
            for exps in (1, 2):
                for family, j in cases:
                    elements, kets = basis_family(family, j, modes, exps)
                    if family == "lambda":
                        assert kets == [Ket.basis(label) for label in elements]
                        continue
                    vacuum = monomials(family, j, modes, exps)[0]
                    spec, vac = RepSpec(vacuum.cycle), Ket.basis(vacuum)
                    oracle = [normalizer * eval_on_ket(spec, [monomial], vac)
                              for monomial, normalizer in elements]
                    assert kets == oracle, (family, j, modes, exps)
                    if family == "typej" and j == 1:  # one label each, of amplitude `factor`
                        assert all([amp for _, amp in ket.items()] == [ONE * factor] for ket in kets)


def test_vacuum_orthogonality_relations():
    result = SuiteResult("vacuum orthogonality")
    for j in (2, 3):
        _vacuum_orthogonality(result, j, 3, 3)
    # a_n^k and (a_n*)^k for n, k = 1..3, on each of the two vacua
    assert (result.total, result.passed, result.failures) == (36, 36, [])


def test_partition_into_components():
    spec = RepSpec((1, 2))
    comps = enumerate_components(spec, modes=6)
    for label in enumerate_labels(spec, 3, 4):
        hits = [c for c in comps if c.vacuum_label.tail_equivalent(label)]
        assert len(hits) == 1
    spec = RepSpec((1, 1, 2))
    comps = enumerate_components(spec, modes=6)
    for label in enumerate_labels(spec, 3, 3):
        hits = [c for c in comps if c.vacuum_label.tail_equivalent(label)]
        assert len(hits) == 1


_ORTHOGONALITY = "<x vac1 | vac2> = 0 for every ladder monomial x"


def test_inequivalence_witnesses():
    f12, f21 = enumerate_components(RepSpec((1, 2)), modes=6)
    rows = inequivalence_witness(f12, f21)
    assert [c.line() for c in rows] == [  # one ambient representation
        "[ok] number-operator eigenvalue lists differ: (1, 2, 1, 2) vs (2, 1, 2, 1): "
        "first difference at mode 1",
        f"[ok] {_ORTHOGONALITY}: |{f12.vacuum_label}> and |{f21.vacuum_label}> lie in distinct tail classes"]

    f1 = enumerate_components(RepSpec((1,)), modes=6)[0]
    f2 = enumerate_components(RepSpec((2,)), modes=6)[0]
    rows = inequivalence_witness(f1, f2)
    assert [c.line() for c in rows] == [  # different ambient representations
        "[ok] number-operator eigenvalue lists differ: (1, 1) vs (2, 2): first difference at mode 1"]

    with pytest.raises(DomainError):
        inequivalence_witness(f1, f1)


@pytest.mark.parametrize("cycle, N", [((2,), 2), ((3,), 3)])
def test_a_cycle_of_the_letter_n_restricts_to_nothing(cycle, N):
    # every embedded s_m* kills N^inf, so P_N(N) is no representation of O_inf
    with pytest.raises(DomainError, match=f"P_{N}[(]{N}[)] restricts to no representation"):
        enumerate_components(RepSpec(cycle, alphabet=N), modes=6)


def test_orthogonality_is_decided_for_every_pair_of_rotations():
    for cycle in ((1, 2), (1, 1, 2), (1, 2, 3), (2, 1, 1, 3)):
        for c1, c2 in itertools.permutations(enumerate_components(RepSpec(cycle), modes=6), 2):
            rows = inequivalence_witness(c1, c2)
            assert all(c.passed for c in rows)
            assert [c.name for c in rows][1:] == [_ORTHOGONALITY]


def test_inequivalence_witness_fails_when_the_vacua_share_a_tail_class(monkeypatch):
    f12, f21 = enumerate_components(RepSpec((1, 2)), modes=6)
    monkeypatch.setattr(EPWord, "tail_equivalent", lambda self, other: True)
    rows = inequivalence_witness(f12, f21)
    assert [c.line() for c in rows if not c.passed] == [
        f"[FAIL] {_ORTHOGONALITY}: |{f12.vacuum_label}> and |{f21.vacuum_label}> lie in one tail class"]


def test_normalizers_of_high_powers_factor_no_large_radicand():
    # 1/sqrt(300!) is built from sqrt(2), ..., sqrt(300); 300! itself has 2,041 bits
    from cuntzboson.scalar import sqrt_product
    family = dict((str(m), norm) for m, norm in basis_monomials("typej", 1, 1, 300)[1])
    assert family["a1*^300"] == sqrt_product(1, 300).inverse()
    family = dict((str(m), norm) for m, norm in basis_monomials("onetwov", 1, 2, 200)[1])
    assert family["a2*^200"] == sqrt_product(1, 201).inverse()


def test_basis_size_is_the_length_of_the_family():
    for modes in range(1, 5):
        for j in range(1, 6):  # j > modes included: then no label prefix ends in j
            assert basis_size("lambda", j, modes, 1) == len(basis_lambda_j(j, modes)), (j, modes)
        for exps in range(1, 4):
            for family, j in [("typej", j) for j in range(1, 5)] + [("onetwov", 1)]:
                family_size = len(basis_monomials(family, j, modes, exps)[1])
                assert basis_size(family, j, modes, exps) == family_size, (family, j, modes, exps)


def test_basis_size_stops_above_max_checks():
    assert basis_size("typej", 1, 11, 3) == 4**11  # 4,194,304 <= MAX_CHECKS
    assert basis_size("typej", 1, 12, 3) == MAX_CHECKS + 1
    assert basis_size("lambda", 9, 7, 1) == (7**8 - 1) // 6  # 1 + 7 + ... + 7**7
    assert basis_size("lambda", 9, 8, 1) == MAX_CHECKS + 1  # 1 + 8 + ... + 8**8
    huge = [("lambda", 1, 10**30, 1), ("lambda", 10**40, 10**30, 1), ("lambda", 10**40, 30, 1)]
    huge += [(family, j, modes, exps) for family, j in (("typej", 10**9), ("onetwov", 1))
             for modes, exps in ((10**30, 1), (1, 10**30), (10**30, 10**30))]
    for family, j, modes, exps in huge:
        assert basis_size(family, j, modes, exps) == MAX_CHECKS + 1, (family, j, modes, exps)
    with pytest.raises(ValueError, match="j must be >= 1"):
        basis_size("typej", 0, 10**30, 3)
