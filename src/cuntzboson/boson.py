"""Bosonic ladder operators realized on word-label kets.

The mode-1 annihilator is the formal series sum_m sqrt(m) s_m s_{m+1}*, and
mode n is its image under n-1 applications of the shift x -> sum_k s_k x s_k*.
On a basis label the series collapses to a single term, giving the closed
label rule used here:

    a_n   |w> = sqrt(c-1) |w with letter c-1 at position n>   (c = letter, 0 if c = 1)
    a_n*  |w> = sqrt(c)   |w with letter c+1 at position n>

so letter c at position n encodes occupation number c-1 of mode n.  A power
moves the letter in one step:

    a_n^k     |w> = sqrt((c-1)(c-2)...(c-k)) |w with letter c-k at position n>   (0 if c <= k)
    (a_n*)^k  |w> = sqrt(c(c+1)...(c+k-1))   |w with letter c+k at position n>

The closed rule takes one step per label, whatever the power.  It is a
weighted injection on labels: distinct labels have distinct images (only the
letter at position n moves, by the same step), and each weight is a single
nonzero radical, so the image of a ket needs no accumulation and drops no
term; a root of 1 passes the amplitude through unchanged.  A product of
ladder powers is one too: ``_walk`` carries each label through every factor,
a power k as the one step (n, +-k), and scales its amplitude once.  A
ladder product as a value is an ``expr.Term``, each run of whose ladder
factors ``expr.eval_on_ket`` walks; ``branching``, ``verify`` and
``embed._embedded`` call ``_walk`` on step tuples.
``apply_create``/``apply_annihilate`` take a single step, by ``_ladder``,
the kernel the walk is checked against.  The two kernels stay apart because
each is the faster one where it runs (in process, 16 alternating rounds, a
2-vCPU machine, Python 3.11): single steps sent through ``_walk`` made
``verify ccr`` 7% slower (15 of 16 rounds) and perfbench's ladder-deep ops
14% (16 of 16), and a walk made of one whole-ket pass per power made
``branching.basis_family`` 14% slower (15 of 16) and ``verify fock-ext`` 9%
(14 of 16), while ``verify bases`` stayed within its noise.
``literal_annihilate``/``literal_create`` instead apply the truncated series
one Cuntz monomial at a time (``cuntz.apply_monomial``) and sum the images;
they exist to cross-validate the closed form against its defining expansion.

A ket may keep its single-step images, and ``_ladder`` then builds each
(n, +-1) image of it once; the image slot and its one user, ``verify``'s
ccr, are described in ``states``.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Sequence

from .common import DomainError
from .cuntz import RepSpec, apply_monomial
from .scalar import ONE, RadicalScalar, ZERO, _root, _root_range, _scale_root, sqrt_nat, sqrt_product
from .states import Ket, _canonical, _sum
from .words import EPWord, Word, _move_letter

Exponents = tuple[tuple[int, int], ...]  # an occupation list: (mode, count), modes increasing, counts >= 1


def _occupations(occupations: Exponents) -> Exponents:
    """``occupations`` itself, once it is seen to be canonical: a tuple of ``(mode, count)``
    pairs whose modes, all at least 1, strictly increase and whose counts are at least 1.

    Anything else raises ``ValueError``, a mapping included: only the text reader
    ``cli._parse_occupations`` sums repeated modes and drops zero counts.
    """
    form = "an occupation list is a tuple of (mode, count) pairs, got"
    if type(occupations) is not tuple:
        raise ValueError(f"{form} a {type(occupations).__name__}")
    last = 0
    for pair in occupations:
        if type(pair) is not tuple or len(pair) != 2:
            raise ValueError(f"{form} the entry {pair!r}")
        mode, count = pair
        if mode < 1:
            raise ValueError(f"modes are 1-based, got {mode}")
        if mode <= last:
            raise ValueError(f"occupation modes must increase, got {mode} after {last}")
        if count < 1:
            raise ValueError(f"exponents must be >= 1, got {count}")
        last = mode
    return occupations


def _ladder(n: int, v: Ket, sign: int) -> Ket:
    """a_n (sign -1) or a_n* (sign 1): a single step by the rule above.

    A ket that keeps its images (``v._images`` a dict, see ``states``) is
    answered from them: the image is built on the first request for the
    signed mode ``sign * n`` and stored there; the image itself keeps none.
    """
    if n < 1:
        raise ValueError(f"modes are 1-based, got {n}")
    images = v._images
    if images is not None:
        image = images.get(sign * n)
        if image is not None:
            return image
    out: dict[EPWord, RadicalScalar] = {}
    for word, coeff in v._amps.items():
        rot, old = word._rot, word._diff.get(n)
        tail = rot[(n - 1) % len(rot)]
        c = tail if old is None else old
        low = c + sign if sign < 0 else c
        if low < 1:
            continue
        q, r = _root(low)
        out[_move_letter(word, n, c + sign, old, tail)] = _scale_root(coeff, q, r)
    image = _canonical(out)
    if images is not None:
        images[sign * n] = image
    return image


def _walk(v: Ket, steps: Sequence[tuple[int, int]]) -> Ket:
    """The product of ladder powers ``steps`` applied to ``v``, one label at a time.

    ``steps`` lists ``(n, k)`` in the order the factors act: (a_n*)^k for
    k > 0 and a_n^-k for k < 0, with n >= 1 (the callers' modes are checked
    already).  Each label walks the whole product: per step it reads its
    letter at n once, moves it with ``_move_letter`` and merges the step's
    root into one pair ``(q, r)``; it stops at the first step that kills it,
    and its amplitude is scaled once, at the end.  A product of weighted
    injections is one, so the images need no accumulation.
    """
    out: dict[EPWord, RadicalScalar] = {}
    for word, coeff in v._amps.items():
        q, r = 1, 1
        for n, step in steps:
            rot, old = word._rot, word._diff.get(n)
            tail = rot[(n - 1) % len(rot)]
            c = tail if old is None else old
            low = c + step if step < 0 else c
            if low < 1:
                break
            if step == 1 or step == -1:
                qi, ri = _root(low)
            else:
                qi, ri = _root_range(low, low + abs(step) - 1)
            g = math.gcd(r, ri)
            q *= qi * g
            r = (r // g) * (ri // g)
            word = _move_letter(word, n, c + step, old, tail)
        else:
            out[word] = _scale_root(coeff, q, r)
    return _canonical(out)


def apply_annihilate(n: int, v: Ket) -> Ket:
    return _ladder(n, v, -1)


def apply_create(n: int, v: Ket) -> Ket:
    return _ladder(n, v, 1)


def fock_word(occupations: Exponents) -> tuple[RadicalScalar, Word]:
    """Occupation list, canonical (``_occupations``) -> (coefficient, word) of the
    corresponding basis label.

    Applying prod (a_n*)^{k_n} to the vacuum of the standard representation
    yields coefficient * |J . 1^inf> with J = (occupation+1 per mode up to the
    largest occupied one) and coefficient = prod sqrt(k_n!).

    A coefficient q sqrt(r) whose q has more digits than the int-to-text
    limit D, and so could not be printed, is refused with ``DomainError``.
    When q surely has that many it is refused before any root is taken: with
    B = floor(log2 k), sum_{i<=k} floor(log2 i) = B(k+1) - 2^(B+1) + 2 is at
    most log2 k!, and the squarefree part of k! is below 4^k, so log2 q >= t
    below, and 1000 t >= 3322 D gives q >= 10^D.  Otherwise the built q is
    compared with 10^D, past a bit-length test that spares small q the power.
    """
    occ = _occupations(occupations)
    digits = sys.get_int_max_str_digits()
    t = sum((b := k.bit_length() - 1) * (k + 1) - (2 << b) + 2 - 2 * k for _, k in occ) // 2
    past = digits and 1000 * t >= 3322 * digits
    if not past:
        coeff = ONE
        for _, count in occ:
            coeff = coeff * sqrt_product(1, count)
        (q,) = coeff._num.values()
        past = digits and q.bit_length() > 3321 * digits // 1000 and q >= 10**digits
    if past:
        raise DomainError(f"the coefficient of these occupations has more than {digits} decimal "
                          "digits, the limit of Python's integer-text conversion")
    word = [1] * (occ[-1][0] if occ else 0)
    for mode, count in occ:
        word[mode - 1] = count + 1
    return coeff, tuple(word)


def fock_extension_action(m: int, star: bool, creators: Exponents) -> tuple[RadicalScalar, Exponents]:
    """Action of s_m / s_m* on a creator monomial over the Fock vacuum.

    Input and output states are creator monomials prod (a_n*)^{k_n} applied to
    the vacuum, each given by its canonical occupation list (``_occupations``);
    the result is (coefficient, creator exponents), with coefficient zero for
    the annihilated cases.  This is the extension of the isometry action to a
    stand-alone Fock representation:

        s_m  (a_{n_1}*)^{k_1}...(a_{n_p}*)^{k_p} vac
            = ((m-1)!)^{-1/2} (a_1*)^{m-1} (a_{n_1+1}*)^{k_1}... vac
        s_m* vac = delta_{m,1} vac
        s_m* (a_{n_1}*)^{k_1}... vac
            = delta_{m,1} (a_{n_1-1}*)^{k_1}... vac              if n_1 >= 2
            = delta_{m,k_1+1} sqrt(k_1!) (a_{n_2-1}*)^{k_2}... vac  if n_1 = 1
    """
    if m < 1:
        raise ValueError(f"generator indices are 1-based, got {m}")
    state = _occupations(creators)  # canonical, so each image below is built canonical
    if not star:
        shifted = tuple((n + 1, k) for n, k in state)
        image = ((1, m - 1),) + shifted if m >= 2 else shifted
        return sqrt_product(1, m - 1).inverse(), image
    if not state:
        return (ONE, ()) if m == 1 else (ZERO, ())
    n1, k1 = state[0]
    if n1 >= 2:
        if m != 1:
            return ZERO, ()
        return ONE, tuple((n - 1, k) for n, k in state)
    if m != k1 + 1:
        return ZERO, ()
    return sqrt_product(1, k1), tuple((n - 1, k) for n, k in state[1:])


def _probe_bound(v: Ket) -> int:
    """The largest letter of any label: its periodic part or a deviation from it."""
    top = 1
    for word in v._amps:
        top = max(top, *word._rot, *word._diff.values())
    return top


def _literal_series(spec: RepSpec, n: int, v: Ket, create: bool) -> Ket:
    """The truncated series of a_n (or a_n*) applied to ``v`` term by term.

    Each term sqrt(m) s_{K.m} s_{K.(m+1)}* (or its adjoint), over shift words
    K of length n-1 and mode indices m, is cut at one more than the largest
    letter in the ket; that bound provably captures every term acting
    nontrivially on the given labels.
    """
    bound = _probe_bound(v) + 1
    images = []
    for K in itertools.product(range(1, bound + 1), repeat=n - 1):
        for m in range(1, bound + 1):
            low, high = K + (m,), K + (m + 1,)
            left, right = (high, low) if create else (low, high)
            images.append(apply_monomial(spec, sqrt_nat(m), left, right, v))
    return _sum(images)


def literal_annihilate(spec: RepSpec, n: int, v: Ket) -> Ket:
    """a_n via the truncated defining series, for cross-validation only."""
    return _literal_series(spec, n, v, create=False)


def literal_create(spec: RepSpec, n: int, v: Ket) -> Ket:
    return _literal_series(spec, n, v, create=True)
