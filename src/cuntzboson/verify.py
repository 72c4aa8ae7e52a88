"""Named verification suites: seeded, exact, and desk-scale.

Each suite evaluates a family of operator identities with exact scalar
arithmetic and counts per-check pass/fail; suites are deterministic in
(parameters, seed).  Every suite check, the isometry relations, the shift
intertwining and the vacuum orthogonality included, is recorded here and
only here, by one call of ``SuiteResult.add``, which formats a check's name
only when it fails and keeps the failure as a ``common.CheckResult`` row,
the record ``branch`` prints too.  ``ccr`` decides each commutation
relation by comparing its two operator orderings (plus ``v`` for
[a_n, a_n*] = 1) as canonical kets, without building the commutator.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

from . import boson, branching, embed
from .common import MAX_KET_CHECKS, CheckResult, add_term, check_family_sizes, check_ket_checks
from .cuntz import RepSpec, apply_generator, apply_monomial
from .expr import Factor, Term, eval_on_ket
from .scalar import ONE, RadicalScalar, _reduced
from .states import Ket, _canonical, _sum
from .words import EPWord


def random_scalar(rng: random.Random) -> RadicalScalar:
    """``a/d + b*sqrt(r)``, or ``ONE`` when that is zero, built in reduced form.

    The draws and their order are the contract of the three ``random_*``
    samplers: here ``a = rng.randint(-3, 3)``, ``d = rng.randint(1, 3)``,
    ``rng.random()`` and, only when that is below 0.5,
    ``b = rng.randint(-2, 2)`` then ``r = rng.choice((2, 3, 5))``.  Every
    suite sample, the perfbench ladder-deep cases and the planted-failure
    records of the CLI tests are fixed by them.
    """
    a, d = rng.randint(-3, 3), rng.randint(1, 3)
    num = {1: a} if a else {}
    if rng.random() < 0.5:
        b = rng.randint(-2, 2)
        r = rng.choice((2, 3, 5))
        if b:
            num[r] = b * d
    return _reduced(d, num) if num else ONE


def random_label(rng: random.Random, spec: RepSpec, letter_bound: int, prefix_bound: int) -> EPWord:
    """A drawn prefix prepended to a drawn rotation vacuum of ``spec``.

    Draws, in order (see ``random_scalar``): the prefix length
    ``rng.randint(0, prefix_bound)``, each letter ``rng.randint(1, top)``
    with ``top`` the smaller of ``letter_bound`` and the alphabet bound, then
    ``rng.choice(spec.rotation_vacua())``.
    """
    top = letter_bound if spec.alphabet is None else min(letter_bound, spec.alphabet)
    prefix = tuple(rng.randint(1, top) for _ in range(rng.randint(0, prefix_bound)))
    return rng.choice(spec.rotation_vacua()).prepend(prefix)


def random_ket(rng: random.Random, spec: RepSpec, max_labels: int = 8,
               letter_bound: int = 6, prefix_bound: int = 4) -> Ket:
    """The sum of drawn terms, or the GP vector when it is zero.

    Draws, in order (see ``random_scalar``): the term count
    ``rng.randint(1, max_labels)``, then per term ``random_label`` and
    ``random_scalar``.  Terms with one label add up; one that cancels goes.
    """
    amps: dict[EPWord, RadicalScalar] = {}
    for _ in range(rng.randint(1, max_labels)):
        label = random_label(rng, spec, letter_bound, prefix_bound)
        add_term(amps, label, random_scalar(rng))
    return _canonical(amps) if amps else spec.gp_vector()


def random_occupations(rng: random.Random, *, max_modes: int, max_count: int,
                       mode_bound: int) -> dict[int, int]:
    modes = rng.sample(range(1, mode_bound + 1), rng.randint(0, max_modes))
    return {mode: rng.randint(1, max_count) for mode in sorted(modes)}


class SuiteResult:
    """Check counts and the first ``MAX_FAILURES`` failures, each a failed ``CheckResult``
    whose ``line()`` is the row printed for it; an instance may set its own cap."""

    MAX_FAILURES = 20

    def __init__(self, name: str):
        self.name = name
        self.total = self.passed = 0
        self.failures: list[CheckResult] = []

    def add(self, passed: bool, describe: Optional[Callable[[], str]] = None) -> None:
        """Count one check.  A failing check is kept as ``CheckResult(describe(), False)``
        while fewer than ``MAX_FAILURES`` are kept; ``describe`` is called for
        nothing else, so a passing check may omit it."""
        self.total += 1
        if passed:
            self.passed += 1
        elif len(self.failures) < self.MAX_FAILURES:
            self.failures.append(CheckResult(describe(), False))

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.passed == self.total

    def summary(self) -> str:
        return f"suite {self.name}: {self.passed}/{self.total} checks passed"


# The three relations ccr checks for each pair of modes (n, m).
_CCR_RELATIONS = ("[a{n}, a{m}*] = {delta}", "[a{n}, a{m}] = 0", "[a{n}*, a{m}*] = 0")


def run_ccr(*, modes: int, samples: int, seed: int, **_) -> SuiteResult:
    """Exact commutation relations on seeded random kets of three representations.

    Each relation compares its two operator orderings, exactly: [a_n, a_m] = 0
    as a_n a_m v == a_m a_n v, [a_n*, a_m*] = 0 likewise, and
    [a_n, a_m*] = delta_nm as a_n a_m* v == a_m* a_n v + delta_nm v.  Kets
    are canonical (unique labels, nonzero amplitudes), so X == Y + E holds
    exactly when X - Y - E is the zero ket, and no commutator ket is built.

    Each sample, and each of its single-step images, keeps its ladder images
    while the sample is checked (the image slot, described in ``states``), so
    each one- and two-step image of a sample is built once; a mixed image is
    built from a slotless view of its operand and kept nowhere.  Every ladder
    call and every check is made as before; only the repeated label steps go.
    """
    check_ket_checks(9 * samples * modes**2, "verify ccr")
    result = SuiteResult("ccr")
    rng = random.Random(seed)
    create, annihilate = boson.apply_create, boson.apply_annihilate

    def kept(image: Ket) -> Ket:
        if image._images is None:
            image._images = {}
        return image

    for cycle in ((1,), (2,), (1, 2)):
        spec = RepSpec(cycle)
        for idx in range(samples):
            v = kept(random_ket(rng, spec))
            for n in range(1, modes + 1):
                for m in range(1, modes + 1):
                    left = annihilate(n, _canonical(create(m, v)._amps))
                    right = create(m, _canonical(annihilate(n, v)._amps))
                    outcomes = (
                        left == (right + v if n == m else right),
                        annihilate(n, kept(annihilate(m, v))) == annihilate(m, kept(annihilate(n, v))),
                        create(n, kept(create(m, v))) == create(m, kept(create(n, v))),
                    )
                    for passed, relation in zip(outcomes, _CCR_RELATIONS):
                        result.add(passed, lambda: f"{spec} sample {idx}: "
                                   + relation.format(n=n, m=m, delta=int(n == m)))
    return result


def _relations_checks(samples: int, cutoff: int) -> int:
    """The checks of ``run_relations``, from its arguments alone.

    Per sample, with c the cutoff: each of the two infinite specs makes c^2 + 1
    isometry, 18 intertwining and c + 3 adjointness checks; O_N, with k = min(c, N),
    makes k^2 + 1 + [k = N] isometry and k adjointness checks; the Cuntz monomials 2.
    """
    k2, k3 = min(cutoff, 2), min(cutoff, 3)
    per_sample = (2 * (cutoff**2 + cutoff + 22) + (k2**2 + k2 + 1 + (k2 == 2))
                  + (k3**2 + k3 + 1 + (k3 == 3)) + 2)
    return max(2, samples // 10) * per_sample


def run_relations(*, samples: int, seed: int, cutoff: int, **_) -> SuiteResult:
    """Isometry relations, shift intertwining, adjointness, and the action of Cuntz monomials."""
    check_ket_checks(_relations_checks(samples, cutoff), "verify relations")
    result = SuiteResult("relations")
    rng = random.Random(seed)
    sample_count = max(2, samples // 10)
    for spec in (RepSpec((1,)), RepSpec((1, 2)), RepSpec((1,), alphabet=2), RepSpec((1,), alphabet=3)):
        kets = [random_ket(rng, spec) for _ in range(sample_count)]
        _isometry_relations(result, spec, cutoff, kets)
        if spec.alphabet is None:
            _intertwining(result, spec, kets)
        top = cutoff if spec.alphabet is None else min(cutoff, spec.alphabet)
        for idx in range(sample_count):
            u, v = random_ket(rng, spec), random_ket(rng, spec)
            for i in range(1, top + 1):
                lhs = apply_generator(spec, i, u).inner(v)
                rhs = u.inner(apply_generator(spec, i, v, star=True))
                result.add(lhs == rhs, lambda: f"{spec} pair {idx}: <s{i} u, v> = <u, s{i}* v>: "
                           f"{lhs} vs {rhs}")
            if spec.alphabet is None:
                for n in range(1, 4):
                    lhs = boson.apply_annihilate(n, u).inner(v)
                    rhs = u.inner(boson.apply_create(n, v))
                    result.add(lhs == rhs, lambda: f"{spec} pair {idx}: <a{n} u, v> = <u, a{n}* v>: "
                               f"{lhs} vs {rhs}")
    spec = RepSpec((1,))
    for idx in range(sample_count):
        m = _random_cuntz_monomial(rng)
        u, v = random_ket(rng, spec), random_ket(rng, spec)
        mu = eval_on_ket(spec, [m], u)
        v = v + mu  # so that <m u, v> is usually nonzero
        lhs = mu.inner(v)
        rhs = u.inner(eval_on_ket(spec, [m.adjoint()], v))
        result.add(lhs == rhs, lambda: f"{spec} monomial {idx}: <m u, v> = <u, m* v> "
                   f"for m = {m}: {lhs} vs {rhs}")
        by_letters = v
        for factor in reversed(m.factors):
            by_letters = apply_generator(spec, factor.index, by_letters, star=factor.star)
        result.add(eval_on_ket(spec, [m], v) == m.coeff * by_letters,
                   lambda: f"{spec} monomial {idx}: m v = its letters applied in turn "
                   f"for m = {m}")
    return result


def _isometry_relations(result: SuiteResult, spec: RepSpec, k: int, kets: Sequence[Ket]) -> None:
    """s_i* s_j = delta_ij I and the range projections on sample kets.

    The partial sum sum_{i<=k} s_i s_i* must equal, exactly, the projection
    onto the labels whose first letter is at most k (the identity once k
    reaches a finite alphabet bound).
    """
    if spec.alphabet is not None:
        k = min(k, spec.alphabet)
    for idx, v in enumerate(kets):
        moved = [apply_generator(spec, j, v) for j in range(1, k + 1)]
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                got = apply_generator(spec, i, moved[j - 1], star=True)
                result.add(got == (v if i == j else Ket()),
                           lambda: f"{spec} sample {idx}: s{i}* s{j} = {'I' if i == j else '0'}")
        projected = _sum(apply_generator(spec, i, apply_generator(spec, i, v, star=True))
                         for i in range(1, k + 1))
        restricted = _canonical({w: c for w, c in v._amps.items() if w.letter_at(1) <= k})
        result.add(projected == restricted, lambda: f"{spec} sample {idx}: "
                   f"sum(s_i s_i*, i<={k}) = projection on first letter <= {k}")
        if spec.alphabet is not None and k == spec.alphabet:
            result.add(projected == v, lambda: f"{spec} sample {idx}: sum(s_i s_i*, i<={k}) = I")


def _intertwining(result: SuiteResult, spec: RepSpec, kets: Sequence[Ket]) -> None:
    """s_m a_n = a_{n+1} s_m and s_m a_n* = a_{n+1}* s_m for m, n = 1..3 on sample kets.

    A sample's six ladder images and each s_m v are built once; only ccr keeps images (``states.Ket``).
    """
    ladders = ((boson.apply_annihilate, ""), (boson.apply_create, "*"))
    for idx, v in enumerate(kets):
        images = {(n, star): ladder(n, v) for n in range(1, 4) for ladder, star in ladders}
        for m in range(1, 4):
            moved = apply_generator(spec, m, v)
            for n in range(1, 4):
                for ladder, star in ladders:
                    lhs = apply_generator(spec, m, images[n, star])
                    rhs = ladder(n + 1, moved)
                    result.add(lhs == rhs, lambda: f"{spec} sample {idx}: "
                               f"s{m} a{n}{star} = a{n + 1}{star} s{m}")


def _random_cuntz_monomial(rng: random.Random) -> Term:
    """coeff s_J s_K*: the words J and K, then the coefficient, are drawn in that order."""
    left = [Factor("s", rng.randint(1, 3), False) for _ in range(rng.randint(0, 2))]
    right = [Factor("s", rng.randint(1, 3), True) for _ in range(rng.randint(0, 2))]
    return Term(random_scalar(rng), tuple(left + right[::-1]))


def orthonormality_checks(result: SuiteResult, name: str, kets: Sequence[Ket]) -> None:
    """One check per norm and per pair: |v_i|^2 = 1, then <v_i, v_j> = 0 for j > i.

    The labels are orthonormal, so two kets with no label in common have inner
    product exactly 0; only pairs that share a label take ``Ket.inner``, and
    every other pair is one passing ``result.add``.
    """
    sharing: dict[EPWord, list[int]] = {}
    for j, ket in enumerate(kets):
        for word in ket._amps:
            sharing.setdefault(word, []).append(j)
    add = result.add
    for i, u in enumerate(kets):
        norm = u.inner(u)
        add(norm == ONE, lambda: f"{name}: |v_{i}|^2 = 1: norm^2 {norm}")
        after = i + 1
        for j in sorted({j for word in u._amps for j in sharing[word] if j > i}):
            for _ in range(j - after):
                add(True)
            inner = u.inner(kets[j])
            add(not inner, lambda: f"{name}: <v_{i}, v_{j}> = 0: inner {inner}")
            after = j + 1
        for _ in range(len(kets) - after):
            add(True)


def _labels(tail: EPWord, ranges: Sequence[range]) -> set[EPWord]:
    """Every label ``p . tail`` whose prefix letter at position n is in ``ranges[n - 1]``."""
    return {tail.prepend(prefix) for prefix in itertools.product(*ranges)}


def run_bases(*, cutoff: int, exps: int, **_) -> SuiteResult:
    """Orthonormality, span matching, and vacuum orthogonality of the basis families.

    Each span's oracle is ``_labels`` of ranges written out here, sharing no code with ``branching``.
    """
    families = [("lambda", 1), ("lambda", 2), ("typej", 1), ("typej", 2), ("onetwov", 1)]
    check_family_sizes([branching.basis_size(family, j, cutoff, exps) for family, j in families],
                       "verify bases")
    result = SuiteResult("bases")
    for j in (1, 2):
        labels, kets = branching.basis_family("lambda", j, cutoff, exps)
        orthonormality_checks(result, f"lambda_{j} bound {cutoff}", kets)
        expected = set().union(*(_labels(EPWord((), (j,)), [range(1, cutoff + 1)] * length)
                                 for length in range(cutoff + 1)))
        result.add(set(labels) == expected, lambda: f"lambda_{j} bound {cutoff}: "
                   f"span matches label enumeration: {len(labels)} labels")
    for family, j in families[2:]:
        if family == "typej":
            name, tail, ranges = f"typej j={j}", (j,), [range(j - min(j - 1, exps), j + exps + 1)] * cutoff
        else:  # the tail is (1,2)^inf rotated to follow position cutoff
            name, tail = family, (2, 1) if cutoff % 2 else (1, 2)
            ranges = [range(1, (1 if n % 2 else 2) + exps + 1) for n in range(1, cutoff + 1)]
        expected = _labels(EPWord((), tail), ranges)
        _, kets = branching.basis_family(family, j, cutoff, exps)
        orthonormality_checks(result, f"{name} modes {cutoff} exps {exps}", kets)
        got_labels = {w for ket in kets for w in ket._amps}
        result.add(got_labels == expected, lambda: f"{name}: "
                   f"span matches occupation-bounded labels: {len(got_labels)} labels")
    for j in (2, 3):
        _vacuum_orthogonality(result, j, 4, 4)
    return result


def _vacuum_orthogonality(result: SuiteResult, j: int, modes: int, powers: int) -> None:
    """Pure ladder powers move the cycle-(j) vacuum off itself, exactly."""
    vacuum = Ket.basis(EPWord((), (j,)))
    for n in range(1, modes + 1):
        for k in range(1, powers + 1):
            inner = vacuum.inner(boson._walk(vacuum, ((n, -k),)))
            result.add(not inner, lambda: f"<vac | a{n}^{k} vac> = 0 in F_{j}: inner {inner}")
            inner = vacuum.inner(boson._walk(vacuum, ((n, k),)))
            result.add(not inner, lambda: f"<vac | (a{n}*)^{k} vac> = 0 in F_{j}: inner {inner}")


def _embedding_checks(samples: int, cutoff: int) -> int:
    """The checks of ``run_embedding``, from its arguments alone, whatever N is.

    Two per Fock sample, one per codec sample (samples // 5 of them), three per
    pair s_i* s_j with i, j <= c, the cutoff, and one per ordered pair of distinct
    generator images of s_1..s_3c.
    """
    return 2 * samples + samples // 5 + 3 * cutoff**2 + 3 * cutoff * (3 * cutoff - 1)


def run_embedding(*, N: int, samples: int, seed: int, cutoff: int, **_) -> SuiteResult:
    """Digit formula vs generator translation, and the embedded Fock dictionary.

    Each Fock sample walks all its creators at once on the standard vacuum
    and crosses the block code once each way: the walk encoded must be
    coeff |digits.1^inf> in O_N, and that state decoded must be the walk.
    """
    check_ket_checks(_embedding_checks(samples, cutoff), "verify embedding")
    result = SuiteResult("embedding")
    rng = random.Random(seed)
    spec, fock = RepSpec((1,), alphabet=N), RepSpec((1,))
    vacuum = fock.gp_vector()
    for idx in range(samples):
        occ = random_occupations(rng, max_modes=4, max_count=5, mode_bound=6)
        coeff, word = boson.fock_word(occ)
        via_digits = embed.fock_word_in_ON(spec, occ)
        via_translation = embed.translate_word(spec, word)
        result.add(via_digits == via_translation, lambda: f"N={N} occupations {occ}: "
                   f"digit word = translated word: {via_digits} vs {via_translation}")
        label = spec.rotation_vacua()[0].prepend(via_digits)
        walked = boson._walk(vacuum, tuple(occ.items()))
        encoded = _canonical({embed.encode_label(spec, w): c for w, c in walked._amps.items()})
        decoded = _canonical({embed.decode_label(spec, label): coeff})
        result.add(encoded == _canonical({label: coeff}) and decoded == walked,
                   lambda: f"N={N} occupations {occ}: embedded creators reproduce the Fock state")
    images = [embed.embed_generator(spec, m) for m in range(1, 3 * cutoff + 1)]
    for i in range(1, cutoff + 1):
        for j in range(1, cutoff + 1):
            for idx in range(3):
                v = random_ket(rng, spec)
                got = apply_monomial(spec, ONE, (), images[i - 1],
                                     apply_monomial(spec, ONE, images[j - 1], (), v))
                expected = v if i == j else Ket()
                result.add(got == expected, lambda: f"N={N}: "
                           f"embedded s{i}* s{j} = {'I' if i == j else '0'} on sample {idx}")
    for a in range(len(images)):
        for b in range(len(images)):
            if a == b:
                continue
            wa, wb = images[a], images[b]
            result.add(wa != wb[: len(wa)], lambda: f"N={N}: "
                       f"generator images {a + 1},{b + 1} prefix-incomparable: {wa} vs {wb}")
    for idx in range(samples // 5):
        label = random_label(rng, fock, letter_bound=3 * (N - 1), prefix_bound=4)
        result.add(embed.decode_label(spec, embed.encode_label(spec, label)) == label,
                   lambda: f"N={N}: encode/decode roundtrip sample {idx}")
    return result


def _odometer_checks(modes: int, cutoff: int, index_bound: int) -> int:
    """The checks of ``run_odometer``, plus the sum of the modes they name over 10**4.

    With k = min(modes, 5): 1 + 2 modes checks per index, one per a_n* e_1 (n <= cutoff)
    and k for each of the 64 indices of the O_2 ladder model.  A check at mode n works on
    n-bit integers, 2.4-3.8 ns per unit of mode against 15-80 us for a ket check.
    """
    k = min(modes, 5)
    mode_sum = index_bound * modes * (modes + 1) + cutoff * (cutoff + 1) // 2 + 32 * k * (k + 1)
    return index_bound * (1 + 2 * modes) + cutoff + 64 * k + mode_sum // 10**4


def run_odometer(*, modes: int, cutoff: int, index_bound: int, **_) -> SuiteResult:
    """The index model intertwines with the word model under the label bijection."""
    check_ket_checks(_odometer_checks(modes, cutoff, index_bound), "verify odometer")
    result = SuiteResult("odometer")
    spec = RepSpec((1,))
    for index in range(1, index_bound + 1):
        word = embed.odometer_isomorphism(index)
        result.add(embed.odometer_index(word) == index, lambda: f"roundtrip e{index}: word {word}")
        ket = Ket.basis(word)
        for n in range(1, modes + 1):
            forward = embed.odometer_action(n, False, index)
            via_words = apply_generator(spec, n, ket)
            result.add(via_words == Ket.basis(embed.odometer_isomorphism(forward)),
                       lambda: f"s{n} e{index} intertwines")
            backward = embed.odometer_action(n, True, index)
            via_words = apply_generator(spec, n, ket, star=True)
            expected = Ket() if backward is None else Ket.basis(embed.odometer_isomorphism(backward))
            result.add(via_words == expected, lambda: f"s{n}* e{index} intertwines")
    for n in range(1, cutoff + 1):
        image = embed.odometer_boson(n, {1: ONE})
        result.add(image == {2 ** (n - 1) + 1: ONE},
                   lambda: f"a{n}* e1 = e{2 ** (n - 1) + 1}: image {sorted(image)}")
    o2 = RepSpec((1,), alphabet=2)
    for n in range(1, min(modes, 5) + 1):
        word = embed.embed_generator(o2, n)
        for index in range(1, 65):
            via_ladder = index
            for letter in reversed(word):
                via_ladder = embed.ladder_action(2, letter, via_ladder)
            result.add(via_ladder == embed.odometer_action(n, False, index),
                       lambda: f"binary ladder model matches odometer for s{n} e{index}")
    return result


def _fock_ext_checks(modes: int, cutoff: int, exps: int) -> int:
    """The checks of ``run_fock_ext``, 2 modes sum_{p <= cutoff} C(modes, p) exps^p.

    The sum stops at the first partial sum past ``MAX_KET_CHECKS``, so the
    count is exact up to that bound and only a few terms are formed above it.
    """
    states, term = 0, 1  # term = C(modes, p) exps^p
    for p in range(min(cutoff, modes) + 1):
        states += term
        if 2 * modes * states > MAX_KET_CHECKS:
            break
        term = term * (modes - p) * exps // (p + 1)
    return 2 * modes * states


def run_fock_ext(*, modes: int, cutoff: int, exps: int, **_) -> SuiteResult:
    """Both sides of the four isometry-extension formulas, evaluated independently.

    A state holds up to k = min(cutoff, modes) creators of up to ``exps``
    quanta each, and the digits of its coefficients grow with k·exps, so the
    bound charges each check once more per 5·10^4 of (k·exps)^2.
    """
    checks = _fock_ext_checks(modes, cutoff, exps)
    check_ket_checks(checks + checks * (min(cutoff, modes) * exps)**2 // (5 * 10**4), "verify fock-ext")
    result = SuiteResult("fock-ext")
    spec = RepSpec((1,))
    omega = spec.gp_vector()
    states: list[tuple[tuple[int, int], ...]] = []
    for p in range(min(cutoff, modes) + 1):
        for mode_set in itertools.combinations(range(1, modes + 1), p):
            for exp_combo in itertools.product(range(1, exps + 1), repeat=p):
                states.append(tuple(zip(mode_set, exp_combo)))
    for creators in states:
        state_ket = boson._walk(omega, creators)
        for m in range(1, modes + 1):
            for star in (False, True):
                coeff, image = boson.fock_extension_action(m, star, creators)
                lhs = apply_generator(spec, m, state_ket, star=star)
                rhs = coeff * boson._walk(omega, image)
                result.add(lhs == rhs,
                           lambda: f"s{m}{'*' if star else ''} on creators {creators}")
    return result


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "ccr": run_ccr,
    "relations": run_relations,
    "bases": run_bases,
    "embedding": run_embedding,
    "odometer": run_odometer,
    "fock-ext": run_fock_ext,
}


def run_suite(name: str, **kwargs) -> SuiteResult:
    """Run suite ``name`` with the options in ``kwargs``.

    Each suite takes the options it reads as keyword-only parameters without
    defaults and ignores the rest, so a missing option raises ``TypeError``
    naming it.  The defaults live in one place, the ``verify`` subcommand of
    the command line.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
