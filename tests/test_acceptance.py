"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity is checked with exact scalar arithmetic (zero tolerance);
the only floating-point use anywhere is display.  Run with ``-s`` to see the
per-criterion lines.
"""

import contextlib
import io
import itertools
import random

from cuntzboson.boson import fock_word
from cuntzboson.branching import (_normal_ordered, cyclicity_witness, enumerate_components,
                                  inequivalence_witness)
from cuntzboson.cli import main as cli_main
from cuntzboson.cuntz import RepSpec
from cuntzboson.expr import Term, eval_on_ket
from cuntzboson.states import Ket
from cuntzboson.verify import random_occupations, run_suite
from cuntzboson.words import EPWord, expand

SEED = 7


def report(number: int, passed: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number}: {text}"


def test_criterion_1_ccr_suite():
    result = run_suite("ccr", modes=6, samples=50, seed=SEED)
    report(1, result.ok,
           f"CCR identities on |1, |2, |1,2 for n,m <= 6: {result.passed}/{result.total} exact")


def enumerate_targets(cycle, prefix_bound, letter_bound):
    seen = set()
    for length in range(prefix_bound + 1):
        for prefix in itertools.product(range(1, letter_bound + 1), repeat=length):
            seen.add(EPWord(prefix, cycle))
    return sorted(seen, key=EPWord.sort_key)


def test_criterion_2_fock_and_fj_vacua():
    checked = 0
    for j in (1, 2, 3):
        component = enumerate_components(RepSpec((j,)), modes=6)[0]
        expected_name = "Fock" if j == 1 else f"F_{j}"
        assert component.classification == expected_name
        assert all(c.passed for c in component.verified_conditions)
        number_rows = [c for c in component.verified_conditions
                       if c.name.startswith("a") and f"= {j} vac" in c.name]
        assert len(number_rows) >= 6
        if j == 1:
            assert sum(c.name.endswith("vac = 0") for c in component.verified_conditions) >= 6
        vacuum = Ket.basis(component.vacuum_label)
        for target in enumerate_targets((j,), 4, 5):
            witness = cyclicity_witness(component, target)
            image = eval_on_ket(RepSpec((j,)), [witness], vacuum)
            assert [w for w, _ in image.items()] == [target]
            assert dict(image.items())[target]
            checked += 1
    report(2, True,
           f"number-operator identities for j in 1..3 at n <= 6 and cyclicity onto "
           f"{checked} labels (prefix <= 4, letters <= 5), all exact")


def test_criterion_3_branching_of_the_pair_cycle():
    components = enumerate_components(RepSpec((1, 2)), modes=12)
    vacua = [c.vacuum_label for c in components]
    ok = vacua == [EPWord((), (1, 2)), EPWord((), (2, 1))]
    ok = ok and [c.classification for c in components] == ["F_12", "F_21"]
    ok = ok and all(c.passed for comp in components for c in comp.verified_conditions)
    # the four defining identity families, at least 6 rows each
    for comp in components:
        zero_rows = [c for c in comp.verified_conditions if c.name.endswith("vac = 0")
                     and "^2" not in c.name]
        number_rows = [c for c in comp.verified_conditions if "* a" in c.name]
        ok = ok and len(zero_rows) >= 6 and len(number_rows) >= 6
    labels = enumerate_targets((1, 2), 4, 5) + enumerate_targets((2, 1), 4, 5)
    memberships = []
    for label in set(labels):
        hits = [c for c in components if c.vacuum_label.tail_equivalent(label)]
        memberships.append(len(hits) == 1)
    ok = ok and all(memberships)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code = cli_main(["branch", "--rep", "|1,2"])
    ok = ok and exit_code == 0
    ok = ok and "F_12" in buffer.getvalue() and "F_21" in buffer.getvalue()
    report(3, ok,
           f"|1,2 branches into F_12 + F_21, identities exact for n <= 6, "
           f"{len(memberships)} labels each in exactly one component")


def _random_monomial(rng: random.Random, mode_cutoff: int, exp_cutoff: int) -> Term:
    """A normal-ordered monomial: each mode up to the cutoff skipped, raised or lowered."""
    creators: dict[int, int] = {}
    annihilators: dict[int, int] = {}
    for mode in range(1, mode_cutoff + 1):
        role = rng.choice(("skip", "create", "lower"))
        if role == "create":
            creators[mode] = rng.randint(1, exp_cutoff)
        elif role == "lower":
            annihilators[mode] = rng.randint(1, exp_cutoff)
    return _normal_ordered(creators.items(), annihilators.items())


def test_criterion_4_pairwise_inequivalence():
    components = {
        "F_1": enumerate_components(RepSpec((1,)), modes=6)[0],
        "F_2": enumerate_components(RepSpec((2,)), modes=6)[0],
        "F_3": enumerate_components(RepSpec((3,)), modes=6)[0],
        "F_12": enumerate_components(RepSpec((1, 2)), modes=6)[0],
        "F_21": enumerate_components(RepSpec((1, 2)), modes=6)[1],
    }
    witnesses = {pair: inequivalence_witness(components[pair[0]], components[pair[1]])
                 for pair in itertools.combinations(components, 2)}
    ok = all(row.passed for rows in witnesses.values() for row in rows)
    # F_12 and F_21 share their ambient space: the witness decides their
    # orthogonality exactly, from tail classes; seeded monomials are the oracle
    exact = witnesses["F_12", "F_21"][-1]
    ok = ok and exact.name == "<x vac1 | vac2> = 0 for every ladder monomial x"
    rng = random.Random(SEED)
    vac12 = Ket.basis(components["F_12"].vacuum_label)
    vac21 = Ket.basis(components["F_21"].vacuum_label)
    sampled = 100
    spec = RepSpec((1, 2))
    zeros = sum(not eval_on_ket(spec, [_random_monomial(rng, 4, 3)], vac12).inner(vac21)
                for _ in range(sampled))
    ok = ok and zeros == sampled and exact.passed == (zeros == sampled)
    report(4, ok,
           "all 10 pairs of {F_1,F_2,F_3,F_12,F_21} have distinct eigenvalue lists; "
           "F_12/F_21 lie in distinct tail classes, so <x vac, vac'> = 0 exactly for every "
           f"ladder monomial x, and {zeros}/{sampled} sampled monomials agree")


def test_criterion_5_fock_dictionary():
    rng = random.Random(SEED)
    spec = RepSpec((1,))
    omega = spec.gp_vector()
    for _ in range(100):
        occ = random_occupations(rng, max_modes=5, max_count=5, mode_bound=8)
        coeff, word = fock_word(occ)
        state = eval_on_ket(spec, [_normal_ordered(occ, ())], omega)
        assert state == coeff * Ket.basis(EPWord(word, (1,)))
    report(5, True,
           "100 seeded occupation lists: creator monomials on the vacuum match "
           "the word dictionary with exact sqrt-factorial coefficients")


def test_criterion_6_extension_formulas():
    result = run_suite("fock-ext", modes=5, cutoff=3, exps=4)
    report(6, result.ok,
           f"all four extension formulas for m <= 5, p <= 3, exponents <= 4: "
           f"{result.passed}/{result.total} exact")


def test_criterion_7_embedding():
    totals = []
    for N in (2, 3):
        result = run_suite("embedding", N=N, samples=50, seed=SEED, cutoff=4)
        totals.append(result)
    report(7, all(r.ok for r in totals),
           "embedding into O_2 and O_3: digit words match generator translation and "
           f"reproduce Fock states exactly ({sum(r.passed for r in totals)} checks)")


def test_criterion_8_odometer():
    result = run_suite("odometer", modes=6, cutoff=9, index_bound=512)
    report(8, result.ok,
           f"odometer bijection intertwines s_n, s_n* for n <= 6 on indices <= 512 and "
           f"a_n* e_1 = e_(2^(n-1)+1) for n <= 9: {result.passed}/{result.total}")


def test_criterion_9_appendix_bases():
    result = run_suite("bases", cutoff=4, exps=3)
    report(9, result.ok,
           f"basis families orthonormal and span-complete at modes <= 4, exps <= 3; "
           f"vacuum orthogonality exact: {result.passed}/{result.total}")


def _random_pair(rng):
    prefix = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
    cycle = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    return prefix, cycle


def _obfuscate(rng, prefix, cycle):
    cycle = cycle * rng.randint(1, 3)
    for _ in range(rng.randint(0, 6)):
        prefix = prefix + (cycle[0],)
        cycle = cycle[1:] + (cycle[0],)
    return prefix, cycle


def test_criterion_10_canonicalization_oracle():
    rng = random.Random(SEED)
    agreements = 0
    for trial in range(1000):
        p1, c1 = _random_pair(rng)
        if trial % 2:
            p2, c2 = _random_pair(rng)
        else:
            p2, c2 = _obfuscate(rng, p1, c1)
        same_expansion = expand(p1, c1, 40) == expand(p2, c2, 40)
        same_canonical = EPWord(p1, c1) == EPWord(p2, c2)
        assert same_expansion == same_canonical, (p1, c1, p2, c2)
        agreements += same_expansion
    report(10, True,
           f"1000 seeded pairs: canonical equality iff 40-letter expansions agree "
           f"({agreements} equal, {1000 - agreements} distinct)")
