"""Branching of a restricted permutative representation into boson components.

Restricting a cyclic permutative representation to the ladder algebra splits
the reference basis into tail-equivalence classes, one per rotation of the
cycle.  Each class carries the vacuum label rotation^inf, whose periodic
letter pattern determines the boson representation class: pattern (1) is the
Fock representation, (j) the class with number-of-quanta eigenvalue pattern
j-1 at every mode, (1,2) and (2,1) the two alternating classes, and any other
primitive pattern is reported as general periodic.  Classification is never
inferred from the pattern alone: every defining identity is evaluated exactly
on the vacuum ket and recorded.  Each occupation basis family is a vacuum
plus a range of letters per mode (``_mode_letters``), from which
``basis_monomials`` builds the family and ``basis_size`` counts it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import gcd, lcm, perm, prod
from operator import itemgetter
from typing import NamedTuple

from . import boson
from .boson import apply_annihilate, apply_create
from .common import MAX_CHECKS, CheckResult, DomainError, check_ket_checks
from .cuntz import RepSpec
from .expr import Factor, Term, _walk_steps
from .scalar import ONE, RadicalScalar, _raw, _root_range
from .states import Ket, _canonical
from .words import EPWord, Word, format_word, rotations


class ComponentReport(NamedTuple):
    """One boson component of ``branch``: its vacuum, its class and the checks behind it."""

    vacuum_label: EPWord
    classification: str
    verified_conditions: list[CheckResult]


def classify_vacuum(vacuum: EPWord, *, modes: int) -> tuple[str, list[CheckResult]]:
    """Classify a purely periodic vacuum and verify its defining identities.

    Identities are checked for modes 1..M with M at least twice the period;
    each check row records the exact scalar relation that was evaluated and
    whether it held.  A failed row is returned like any other.
    """
    if vacuum.prefix:
        raise DomainError(f"vacuum labels are purely periodic, got {vacuum}")
    pattern = vacuum.cycle
    M = max(modes, 2 * len(pattern))
    vac = Ket.basis(vacuum)
    checks: list[CheckResult] = []

    def check(label: str, got: Ket, expected: Ket) -> None:
        checks.append(CheckResult(label, got == expected, f"result {_ket_inline(got)}"))

    if len(pattern) == 1:
        j = pattern[0]
        for n in range(1, M + 1):
            check(f"a{n} a{n}* vac = {j} vac",
                  apply_annihilate(n, apply_create(n, vac)), j * vac)
        if j == 1:
            name = "Fock"
            for n in range(1, M + 1):
                check(f"a{n} vac = 0", apply_annihilate(n, vac), Ket())
        else:
            name = f"F_{j}"
            for n in range(1, M + 1):
                for l in range(1, j):
                    expected = perm(j - 1, l)
                    check(f"(a{n}*)^{l} a{n}^{l} vac = {expected} vac",
                          boson._walk(vac, ((n, -l), (n, l))), expected * vac)
    elif pattern in ((1, 2), (2, 1)):
        name = "F_12" if pattern == (1, 2) else "F_21"
        for half in range(1, M // 2 + 1):
            odd, even = 2 * half - 1, 2 * half
            killed, kept = (odd, even) if pattern == (1, 2) else (even, odd)
            check(f"a{killed} vac = 0", apply_annihilate(killed, vac), Ket())
            check(f"a{kept}* a{kept} vac = vac",
                  apply_create(kept, apply_annihilate(kept, vac)), vac)
            check(f"a{kept}^2 vac = 0", boson._walk(vac, ((kept, -2),)), Ket())
    else:
        name = f"periodic({format_word(pattern)})"
        for n in range(1, M + 1):
            c = vacuum.letter_at(n)
            check(f"a{n}* a{n} vac = {c - 1} vac",
                  apply_create(n, apply_annihilate(n, vac)), (c - 1) * vac)
    return name, checks


def _ket_inline(v: Ket) -> str:
    return str(v).replace("\n", "  +  ")


def _row_count(cycle: Word, modes: int) -> int:
    """The rows of ``classify_vacuum`` over every rotation of ``cycle``, from its arguments alone.

    With M = max(modes, 2 * period): a pattern (j) has 2M rows for j = 1 and
    M * j otherwise, (1,2) and (2,1) have 3 * (M // 2) each, and any other pattern M.
    """
    M = max(modes, 2 * len(cycle))
    if len(cycle) == 1:
        return 2 * M if cycle == (1,) else M * cycle[0]
    if cycle in ((1, 2), (2, 1)):
        return 2 * 3 * (M // 2)
    return len(cycle) * M


def enumerate_components(spec: RepSpec, *, modes: int) -> list[ComponentReport]:
    """One component per rotation of the cycle, classified and verified.

    Under an alphabet bound N the cycle must hold a letter below N: every
    embedded s_m = t_N^{k-1} t_i ends in a letter i < N, so s_m* kills N^inf
    and P_N(N) restricts to no representation of O_inf.  A cycle that also
    holds N is refused until the block code decodes it; one without N decodes
    to itself (``embed.decode_label``), so ``act --N`` acts on the same vacua.
    More than ``MAX_KET_CHECKS`` rows, counted first, are refused.
    """
    if spec.cycle == (spec.alphabet,):
        raise DomainError(f"{spec} restricts to no representation of O_inf: every embedded "
                          f"s_m* kills {spec.alphabet}^inf")
    if spec.alphabet in spec.cycle:
        raise DomainError(f"the restriction of {spec} is not computed: a cycle that holds the "
                          f"letter {spec.alphabet} must be decoded by the block code first")
    check_ket_checks(_row_count(spec.cycle, modes), "branch")
    out = []
    for vacuum in spec.rotation_vacua():
        name, checks = classify_vacuum(vacuum, modes=modes)
        out.append(ComponentReport(vacuum, name, checks))
    return out


def cyclicity_witness(component: ComponentReport, target: EPWord) -> Term:
    """A normal-ordered ladder monomial carrying the vacuum onto a target label.

    Raising acts where the target letter exceeds the vacuum letter, lowering
    where it falls below; letters never drop under 1, so the image is a
    nonzero multiple of the target basis ket.
    """
    vacuum = component.vacuum_label
    if not vacuum.tail_equivalent(target):
        raise DomainError(f"target {target} is not tail-equivalent to vacuum {vacuum}")
    # the two labels share their periodic part, so they differ only where one deviates from it
    moves = [(n, target.letter_at(n) - vacuum.letter_at(n))
             for n in sorted(vacuum._diff.keys() | target._diff.keys())]
    return _normal_ordered([(n, d) for n, d in moves if d > 0], [(n, -d) for n, d in moves if d < 0])


def _normal_ordered(creators: Iterable[tuple[int, int]], annihilators: Iterable[tuple[int, int]]
                    ) -> Term:
    """(a_n*)^k for each (n, k) of ``creators``, then a_m^l for each (m, l) of ``annihilators``."""
    return Term(ONE, tuple(Factor("a", n, True, k) for n, k in creators)
                + tuple(Factor("a", m, False, l) for m, l in annihilators))


def basis_lambda_j(j: int, bound: int) -> list[EPWord]:
    """Canonical labels of the standard cycle-(j) representation, truncated.

    All labels with prefix length <= bound and letters <= bound; these are in
    bijection with the finite words whose last letter differs from j, plus the
    vacuum itself.  Each is its word prepended to the vacuum, listed by length,
    then letters: the order of ``EPWord.sort_key``.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    vacuum = EPWord((), (j,))
    return [vacuum] + [vacuum.prepend(prefix) for length in range(1, bound + 1)
                       for prefix in itertools.product(range(1, bound + 1), repeat=length)
                       if prefix[-1] != j]


def _mode_letters(family: str, j: int, exps: int) -> tuple[EPWord, list[range]]:
    """The vacuum label of an occupation family and the letters its modes may take.

    Mode n may carry any letter of ``ranges[(n - 1) % len(ranges)]``.  ``typej``
    is ``j^inf`` with letters j - min(j-1, exps) .. j + exps: raised by up to
    exps, lowered by at most j-1 (never below occupation zero).  ``onetwov``
    is ``(1,2)^inf`` with letters 1 .. 1+exps on odd modes and 1 .. 2+exps on
    even modes (squares of even annihilators kill the vacuum); it ignores j.
    """
    if family == "onetwov":
        return EPWord((), (1, 2)), [range(1, 2 + exps), range(1, 3 + exps)]
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return EPWord((), (j,)), [range(j - min(j - 1, exps), j + exps + 1)]


def basis_monomials(family: str, j: int, modes: int, exps: int
                    ) -> tuple[EPWord, list[tuple[Term, RadicalScalar]]]:
    """The vacuum of the ``typej`` or ``onetwov`` family and its orthonormal-basis
    monomials with their normalizers.

    An element moves each mode n from its vacuum letter c to a letter t of
    ``_mode_letters``: by ``(a_n*)^(t-c)`` when t > c, by ``a_n^(c-t)`` when
    t < c.  Its normalizer is the inverse of the product over moved modes of
    sqrt(min(c,t) * ... * (max(c,t)-1)), the norm of that ladder power on
    the vacuum letter; for ``typej`` with j = 1 it is 1/sqrt(k_1! ... k_p!).
    Each mode's roots are integer pairs, merged per element into the one
    pair its normalizer is built from, so no radicand larger than one factor
    is ever factored.  The elements are sorted by total displacement, then
    by monomial.
    """
    vacuum, ranges = _mode_letters(family, j, exps)
    per_mode = []
    for n in range(1, modes + 1):
        c = vacuum.letter_at(n)
        per_mode.append([(t - c, Factor("a", n, t > c, abs(t - c)), *_root_range(min(c, t), max(c, t) - 1))
                         for t in ranges[(n - 1) % len(ranges)]])
    rows = []
    for combo in itertools.product(*per_mode):
        creators, annihilators = [], []
        displacement, q, r = 0, 1, 1
        for step, factor, qi, ri in combo:
            if step:
                (creators if step > 0 else annihilators).append(factor)
                displacement += factor.power
                g = gcd(r, ri)
                q *= qi * g
                r = (r // g) * (ri // g)
        # 1/(q sqrt(r)) = (1/(q r)) sqrt(r), reduced since the numerator is 1
        rows.append((displacement, tuple(creators), tuple(annihilators), _raw(q * r, {r: 1})))
    rows.sort(key=itemgetter(0, 1, 2))  # the factors of each sort by mode, then power
    return vacuum, [(Term(ONE, creators + annihilators), normalizer)
                    for _, creators, annihilators, normalizer in rows]


def basis_family(family: str, j: int, modes: int, exps: int) -> tuple[list, list[Ket]]:
    """The elements of a ``bases`` family and their kets, in one order: the labels of
    ``basis_lambda_j``, each its own ket, or the (monomial, normalizer) pairs of
    ``basis_monomials``, each the normalized monomial applied to the vacuum.  The
    monomial walks the vacuum that carries its (nonzero) normalizer, so each amplitude
    is scaled once, by the walk's root."""
    if family == "lambda":
        labels = basis_lambda_j(j, modes)
        return labels, [Ket.basis(w) for w in labels]
    vacuum, elements = basis_monomials(family, j, modes, exps)
    return elements, [boson._walk(_canonical({vacuum: normalizer}),
                                  _walk_steps(reversed(monomial.factors)))
                      for monomial, normalizer in elements]


def basis_size(family: str, j: int, modes: int, exps: int) -> int:
    """The number of elements of a ``bases`` family, from its arguments alone.

    ``lambda`` is ``basis_lambda_j(j, modes)``: the vacuum and the words of
    length 1..modes over 1..modes that do not end in j, which is modes**modes
    when j <= modes and 1 + modes + ... + modes**modes when j > modes.
    ``typej`` and ``onetwov`` have the product of the lengths of the letter
    ranges that ``basis_monomials`` reads, one per mode.  Any size above ``MAX_CHECKS``,
    whose orthonormality checks alone exceed that bound, is returned as
    ``MAX_CHECKS + 1``, so that huge arguments cost no big-integer arithmetic.
    """
    if family != "lambda":
        _, ranges = _mode_letters(family, j, exps)
        period = len(ranges)
        # len(range) overflows above sys.maxsize; mode n reads ranges[(n - 1) % period]
        size = prod(_power_at_most(r.stop - r.start, (modes - i + period - 1) // period)
                    for i, r in enumerate(ranges))
    elif j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    elif j <= modes:
        size = _power_at_most(modes, modes)
    else:  # no word ends in j
        size = sum(_power_at_most(modes, length)
                   for length in range(min(modes, MAX_CHECKS.bit_length()) + 1))
    return min(size, MAX_CHECKS + 1)


def _power_at_most(base: int, exp: int) -> int:
    """``base**exp`` for ``base >= 1``, or ``MAX_CHECKS + 1`` when that exceeds ``MAX_CHECKS``."""
    if base > 1 and exp > MAX_CHECKS.bit_length():  # base**exp >= 2**exp > MAX_CHECKS
        return MAX_CHECKS + 1
    return min(base ** exp, MAX_CHECKS + 1)


def inequivalence_witness(c1: ComponentReport, c2: ComponentReport) -> list[CheckResult]:
    """Pairwise inequivalence evidence for two components, as check rows.

    Structural witness: the number-operator eigenvalue sequences of the two
    vacua (the periodic letter patterns) differ at some mode.  When both vacua
    live in one ambient representation (their patterns are rotations of each
    other) the orthogonality <x vac1 | vac2> = 0 over every ladder monomial x
    is decided too: x moves finitely many letters, so x vac1 stays in the tail
    class of vac1, and the labels are orthonormal.  The identity holds exactly
    when the two vacua lie in distinct tail classes.
    """
    v1, v2 = c1.vacuum_label, c2.vacuum_label
    if v1.cycle == v2.cycle:
        raise DomainError("components have identical patterns; nothing to distinguish")
    window = 2 * lcm(len(v1.cycle), len(v2.cycle))
    ev1 = tuple(v1.letter_at(n) for n in range(1, window + 1))
    ev2 = tuple(v2.letter_at(n) for n in range(1, window + 1))
    first_diff = next((n for n in range(1, window + 1) if ev1[n - 1] != ev2[n - 1]), None)
    checks = [CheckResult(f"number-operator eigenvalue lists differ: {ev1} vs {ev2}",
                          first_diff is not None, f"first difference at mode {first_diff}")]
    if v1.cycle in rotations(v2.cycle):
        apart = not v1.tail_equivalent(v2)
        checks.append(CheckResult(
            "<x vac1 | vac2> = 0 for every ladder monomial x", apart,
            f"|{v1}> and |{v2}> lie in {'distinct tail classes' if apart else 'one tail class'}"))
    return checks
