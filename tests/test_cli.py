import argparse
import contextlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuntzboson import boson, branching, cli, common, cuntz, embed, scalar, verify
from cuntzboson.cli import main
from cuntzboson.common import (MAX_CHECKS, MAX_KET_CHECKS, MAX_MODE, DomainError, check_family_sizes,
                               check_ket_checks)
from cuntzboson.words import EPWord, _raw


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_act_examples(capsys):
    code, out, _ = run(capsys, "act", "--rep", "|1", "--expr", "a2*", "--state", "omega")
    assert code == 0 and out == "1 * |1,2|1>\n"
    code, out, _ = run(capsys, "act", "--rep", "|1,2", "--expr", "a1", "--state", "omega")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "act", "--rep", "|1", "--expr", "s1*", "--state", "omega")
    assert code == 0 and out == "1 * ||1>\n"


def test_act_json(capsys):
    code, out, _ = run(capsys, "act", "--rep", "|1", "--expr", "a1*", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"prefix": [2], "cycle": [1],
                             "coeff": [{"radicand": 1, "numerator": 1, "denominator": 1}]}]


def test_act_odometer_model(capsys):
    code, out, _ = run(capsys, "act", "--model", "odometer", "--expr", "s2", "--state", "e1")
    assert code == 0 and out == "1 * e2\n"
    code, out, _ = run(capsys, "act", "--model", "odometer", "--expr", "a4*", "--state", "e1")
    assert code == 0 and out == "1 * e9\n"
    code, out, _ = run(capsys, "act", "--model", "odometer", "--rep", "|1", "--expr", "s1")
    assert code == 0 and out == "1 * e1\n"


@pytest.mark.parametrize("extra", [("--rep", "|2"), ("--N", "5"), ("--rep", "|2", "--N", "5")])
def test_act_odometer_model_refuses_rep_and_alphabet(capsys, extra):
    code, out, err = run(capsys, "act", "--model", "odometer", *extra, "--expr", "s1")
    assert code == 2 and out == ""
    assert "usage:" in err and "odometer" in err


@pytest.mark.parametrize("state", ["e²", "e", "e-1"])
def test_act_odometer_model_refuses_states_that_are_not_e_ascii_digits(capsys, state):
    code, out, err = run(capsys, "act", "--model", "odometer", "--expr", "s1", "--state", state)
    assert code == 2 and out == ""
    assert err == f"error: odometer states are e<n>, got {state!r}\n"


def test_act_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "act", "--rep", "|1", "--expr", "s1 + @")
    assert code == 2 and "position" in err


def test_act_alphabet_violation_exit_3(capsys):
    code, _, err = run(capsys, "act", "--rep", "|1", "--N", "2", "--expr", "s3")
    assert code == 3 and "alphabet" in err.lower() or "exceeds" in err


@pytest.mark.parametrize("state, expr, letter", [
    ("5|1", "s1", 5), ("5|1", "a1*", 5), ("1|3", "s2*", 3), ("2,1|1,4", "s1", 4)])
def test_act_state_letter_above_alphabet_exit_3(capsys, state, expr, letter):
    code, out, err = run(capsys, "act", "--rep", "|1", "--N", "2", "--state", state, "--expr", expr)
    assert code == 3 and out == ""
    assert err == f"domain error: state letter {letter} exceeds alphabet bound 2\n"


def test_branch_text(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "|1,2")
    assert code == 0
    assert "2 component(s)" in out
    assert "F_12" in out and "F_21" in out
    assert "|1,2" in out and "|2,1" in out


def test_branch_json(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "|3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["components"]) == 1
    comp = doc["components"][0]
    assert comp["classification"] == "F_3"
    assert comp["vacuum"] == "|3"
    assert all(chk["passed"] for chk in comp["verified"])


@pytest.mark.parametrize("flag", [(), ("--json",)])
@pytest.mark.parametrize("cycle, N", [("1,2", 2), ("1,1,2", 2), ("1,3", 3), ("2,3", 3)])
def test_branch_refuses_a_cycle_that_holds_the_letter_n(capsys, cycle, N, flag):
    # the O_inf rules applied to undecoded O_N labels gave F_12 + F_21 for |1,2 at N = 2;
    # through the block code the law is a single F_2
    assert run(capsys, "branch", "--rep", f"|{cycle}", "--N", str(N), *flag) == (
        3, "", f"domain error: the restriction of P_{N}({cycle}) is not computed: a cycle that "
        f"holds the letter {N} must be decoded by the block code first\n")


def test_branch_under_an_alphabet_is_plain_branch_on_a_cycle_below_it(capsys):
    """A cycle without the letter N decodes to itself, so ``branch --N`` is plain
    ``branch`` but for the name of the representation."""
    for N in range(2, 5):
        for length in range(1, 4):
            for cycle in itertools.product(range(1, N), repeat=length):
                rep = "|" + ",".join(map(str, cycle))
                for flag in ((), ("--json",)):
                    code, out, err = run(capsys, "branch", "--rep", rep, *flag)
                    expected = (code, out.replace("P_inf(", f"P_{N}("), err)
                    assert run(capsys, "branch", "--rep", rep, "--N", str(N), *flag) == expected


def test_branch_deterministic(capsys):
    _, first, _ = run(capsys, "branch", "--rep", "|1,2", "--json")
    _, second, _ = run(capsys, "branch", "--rep", "|1,2", "--json")
    assert first == second


def test_fock_examples(capsys):
    code, out, _ = run(capsys, "fock", "--occ", "1:1,2:2")
    assert code == 0 and out == "word: 2,3\ncoefficient: sqrt(2)\n"
    code, out, _ = run(capsys, "fock", "--occ", "")
    assert code == 0 and out == "word: \ncoefficient: 1\n"
    code, out, _ = run(capsys, "fock", "--occ", "3:1")
    assert code == 0 and out == "word: 1,1,2\ncoefficient: 1\n"


@pytest.mark.parametrize("argv, entry", [
    (("fock", "--occ", "1"), "'1'"),
    (("fock", "--occ", "1:2:3"), "'1:2:3'"),
    (("fock", "--occ", "1:x"), "'1:x'"),
    (("fock", "--occ", "1:2,"), "''"),
    (("embed", "--N", "2", "--occ", ","), "''"),
])
def test_malformed_occupation_entry_names_the_entry(capsys, argv, entry):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad occupation entry {entry}: expected mode:count\n"


@pytest.mark.parametrize("argv, reason", [
    (("fock", "--occ", "0:1"), "'0:1': mode is below 1"),
    (("fock", "--occ", "1:-1"), "'1:-1': count is negative"),
    (("embed", "--N", "2", "--occ", "2:1,-3:1"), "'-3:1': mode is below 1"),
    (("fock", "--occ", "1:x"), "'1:x': expected mode:count"),
])
def test_occupation_entry_error_names_the_reason(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad occupation entry {reason}\n"


# a repeated mode, a zero count and modes out of order: the output is that of the normal form
MIXED_OCC = "3:1,1:2,3:2,2:0"
COEFF_2_SQRT_3 = """  "coefficient": [
    {
      "denominator": 1,
      "numerator": 2,
      "radicand": 3
    }
  ],
"""


@pytest.mark.parametrize("argv, out", [
    (("fock", "--occ", MIXED_OCC), "word: 3,1,4\ncoefficient: 2*sqrt(3)\n"),
    (("fock", "--occ", MIXED_OCC, "--json"),
     "{\n" + COEFF_2_SQRT_3 + """  "word": [
    3,
    1,
    4
  ]
}
"""),
    (("embed", "--N", "3", "--occ", MIXED_OCC), "word: 3,1,1,3,2\ncoefficient: 2*sqrt(3)\n"),
    (("embed", "--N", "3", "--occ", MIXED_OCC, "--json"),
     "{\n" + COEFF_2_SQRT_3 + """  "occupations": {
    "1": 2,
    "3": 3
  },
  "word": [
    3,
    1,
    1,
    3,
    2
  ]
}
"""),
])
def test_occupations_print_in_normal_form(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_embed_command(capsys):
    code, out, _ = run(capsys, "embed", "--N", "2", "--gen", "3")
    assert code == 0 and out == "s3 -> 2,2,1\n"
    code, out, _ = run(capsys, "embed", "--N", "2", "--word", "2,3")
    assert code == 0 and "2,1,2,2,1" in out
    code, out, _ = run(capsys, "embed", "--N", "3", "--occ", "1:1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [2]


@pytest.mark.parametrize("sources, message", [
    ((), "one of the arguments --gen --word --occ is required"),
    (("--gen", "3", "--word", "1"), "argument --word: not allowed with argument --gen"),
    (("--word", "1", "--occ", "1:1"), "argument --occ: not allowed with argument --word"),
    (("--occ", "", "--gen", "3"), "argument --gen: not allowed with argument --occ"),
    (("--gen", "3", "--word", "1", "--occ", "1:1"), "argument --word: not allowed with argument --gen"),
])
def test_embed_takes_exactly_one_source(capsys, sources, message):
    code, out, err = run(capsys, "embed", "--N", "2", *sources)
    assert code == 2 and out == ""
    assert err.startswith("usage:") and err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "|"),
    ("branch", "--rep", "|", "--json"),
    ("act", "--rep", "|", "--expr", "a1"),
    ("act", "--rep", "|", "--N", "2", "--expr", "s1"),
    ("act", "--state", "|", "--expr", "a1"),
    ("act", "--state", "2|", "--expr", "a1"),
])
def test_empty_cycle_is_a_parse_error(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: cycle must be nonempty\n")


def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "ccr", "--modes", "2", "--samples", "3", "--seed", "7")
    assert code == 0
    assert "checks passed" in out


def test_verify_deterministic(capsys):
    args = ("verify", "fock-ext", "--modes", "3", "--cutoff", "2", "--exps", "2", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.loads(first)["passed"] == json.loads(first)["total"]


def test_verify_unknown_suite_exit_2(capsys):
    assert run(capsys, "verify", "nope")[0] == 2


def test_bases_command(capsys):
    code, out, _ = run(capsys, "bases", "--family", "lambda", "--j", "1", "--modes", "2")
    assert code == 0
    assert "orthonormal: True" in out
    code, out, _ = run(capsys, "bases", "--family", "typej", "--j", "2", "--modes", "2", "--exps", "2")
    assert code == 0
    code, out, _ = run(capsys, "bases", "--family", "onetwov", "--modes", "2", "--exps", "2", "--json")
    assert code == 0
    assert json.loads(out)["orthonormal"] is True


def _planted(monkeypatch, name, plant):
    """Route ``verify bases`` and ``bases``, which both build their kets by
    ``branching.basis_family``, through the family ``name`` changed by ``plant``;
    ``basis_monomials`` is changed in its typej family only."""
    original = getattr(branching, name)

    def family(*args):
        out = original(*args)
        if name == "basis_lambda_j":
            plant(out)
        elif args[0] == "typej":
            plant(out[1])
        return out

    monkeypatch.setattr(branching, name, family)


def _double_normalizer(family):
    monomial, normalizer = family[3]
    family[3] = (monomial, 2 * normalizer)


def _repeat_monomial(family):  # v_4 becomes a multiple of v_5
    family[4] = (family[5][0], family[4][1])


# Expected output captured before verify and bases shared one orthonormality check.
@pytest.mark.parametrize("plant, expected", [
    (_double_normalizer,
     "suite bases: 374580/374582 checks passed\n"
     "  first failures: [FAIL] typej j=1 modes 4 exps 3: |v_3|^2 = 1: norm^2 4\n"
     "  first failures: [FAIL] typej j=2 modes 4 exps 3: |v_3|^2 = 1: norm^2 4\n"),
    (_repeat_monomial,
     "suite bases: 374577/374582 checks passed\n"
     "  first failures: [FAIL] typej j=1 modes 4 exps 3: <v_4, v_5> = 0: inner 1\n"
     "  first failures: [FAIL] typej j=1: span matches occupation-bounded labels: 255 labels\n"
     "  first failures: [FAIL] typej j=2 modes 4 exps 3: |v_4|^2 = 1: norm^2 2\n"
     "  first failures: [FAIL] typej j=2 modes 4 exps 3: <v_4, v_5> = 0: inner sqrt(2)\n"
     "  first failures: [FAIL] typej j=2: span matches occupation-bounded labels: 624 labels\n"),
])
def test_planted_basis_failure_is_reported(capsys, monkeypatch, plant, expected):
    _planted(monkeypatch, "basis_monomials", plant)
    assert run(capsys, "verify", "bases")[:2] == (1, expected)
    argv = ("bases", "--family", "typej", "--j", "2", "--modes", "2", "--exps", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.startswith("family typej: 16 elements, orthonormal: False\n")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1 and json.loads(out)["orthonormal"] is False


def _repeat_last_label(labels):  # v_{n-1} becomes v_{n-2}, after a run of disjoint pairs
    labels[-1] = labels[-2]


# Expected output captured while every pair still took an inner product.
def test_planted_lambda_failure_is_reported(capsys, monkeypatch):
    _planted(monkeypatch, "basis_lambda_j", _repeat_last_label)
    assert run(capsys, "verify", "bases")[:2] == (1, (
        "suite bases: 374578/374582 checks passed\n"
        "  first failures: [FAIL] lambda_1 bound 4: <v_254, v_255> = 0: inner 1\n"
        "  first failures: [FAIL] lambda_1 bound 4: span matches label enumeration: 256 labels\n"
        "  first failures: [FAIL] lambda_2 bound 4: <v_254, v_255> = 0: inner 1\n"
        "  first failures: [FAIL] lambda_2 bound 4: span matches label enumeration: 256 labels\n"))
    argv = ("bases", "--family", "lambda", "--j", "1", "--modes", "2")
    assert run(capsys, *argv)[:2] == (
        1, "family lambda: 4 elements, orthonormal: False\n||1>\n|2|1>\n|1,2|1>\n|1,2|1>\n")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1 and json.loads(out) == {
        "elements": ["||1>", "|2|1>", "|1,2|1>", "|1,2|1>"],
        "family": "lambda", "orthonormal": False, "size": 4}


def _doubled_creator(create, annihilate):
    return lambda n, v: 2 * create(n, v)


def _mode_2_creator_also_lowers_mode_1(create, annihilate):  # a2* + a1 at mode 2
    return lambda n, v: create(n, v) + annihilate(1, v) if n == 2 else create(n, v)


# Expected failure lines captured while every ccr check built its commutator.
@pytest.mark.parametrize("plant, relations", [
    # [a_n, a_m*] = 2 delta_nm: only the diagonal relation fails, whose right side adds v
    (_doubled_creator, ("[a1, a1*] = 1", "[a2, a2*] = 1")),
    # [a_1*, a_2* + a_1] = -1: only the creators of two different modes fail to commute
    (_mode_2_creator_also_lowers_mode_1, ("[a1*, a2*] = 0", "[a2*, a1*] = 0")),
])
def test_planted_ccr_failure_is_reported(capsys, monkeypatch, plant, relations):
    monkeypatch.setattr(boson, "apply_create", plant(boson.apply_create, boson.apply_annihilate))
    failures = [f"[FAIL] P_inf({rep}) sample {idx}: {relation}"
                for rep in ("1", "2", "1,2") for idx in (0, 1) for relation in relations]
    argv = ("verify", "ccr", "--modes", "2", "--samples", "2")
    assert run(capsys, *argv)[:2] == (1, "suite ccr: 60/72 checks passed\n" + "".join(
        f"  first failures: {failure}\n" for failure in failures))
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1 and json.loads(out) == {
        "suite": "ccr", "total": 72, "passed": 60, "failures": failures}


def _s1_star_doubled_in_p3(true):
    return lambda spec, i, v, star=False: (
        2 * true(spec, i, v, star) if star and i == 1 and spec.alphabet == 3 else true(spec, i, v, star))


def _s3_as_s3_s1_in_p12(true):  # still an isometry, but it no longer intertwines the shift
    return lambda spec, i, v, star=False: (
        true(spec, 3, true(spec, 1, v)) if i == 3 and not star and spec.cycle == (1, 2)
        else true(spec, i, v, star))


def _digit_word_too_long(true):
    return lambda spec, occ: true(spec, occ) + (2,) if occ == {2: 2, 6: 1} else true(spec, occ)


def _index_off_at_3_2(true):
    return lambda label: true(label) + (label.letter_at(1) == 3 and label.letter_at(2) == 2)


def _a2_star_image_shifted(true):
    return lambda n, v: {k + 1: c for k, c in true(n, v).items()} if n == 2 else true(n, v)


def _s2_coefficient_doubled_on_one_cubed_creator(true):
    def action(m, star, creators):
        coeff, image = true(m, star, creators)
        wrong = m == 2 and not star and len(creators) == 1 and creators[0][1] == 3
        return (2 * coeff if wrong else coeff), image
    return action


def _left_word_reversed(true):  # s_J applied as the letters of J in reverse order
    return lambda spec, coeff, left, right, v: true(spec, coeff, left[::-1], right, v)


def _top_root_factor_dropped(true):  # sqrt(c (c+1) ... (c+k-1)) loses c+k-1 when k >= 2
    return lambda low, high: true(low, high - 1) if high > low else true(low, high)


def _long_n_run_decoded_one_too_high(true):  # a block N^r b with r >= 2 decodes one letter too high
    def decode(spec, label):
        runs, run = [], 0
        for letter in label.prefix + (1,):  # the tail's 1 closes a trailing run of N's
            if letter == spec.alphabet:
                run += 1
            else:
                runs.append(run)
                run = 0
        word = true(spec, label)
        return EPWord(tuple(d + (r >= 2) for d, r in zip(word.prefix, runs)), (1,))
    return decode


def _last_letter_of_long_words_unread(true):  # s_K* with |K| >= 2 strips K's last letter unread
    def strip(word, label):
        if len(word) < 2:
            return true(word, label)
        head = true(word[:-1], label)
        return None if head is None else head.drop_first(1)
    return strip


def _power_three_steps_vanish(true):  # a walk with a step of |k| >= 3 gives the zero ket
    return lambda v, steps: 0 * true(v, steps) if any(abs(k) >= 3 for _, k in steps) else true(v, steps)


def _tail_letter_kept_as_a_deviation(true):  # a move back to the tail letter keeps it in _diff
    def move(word, n, v, old, tail):
        moved = true(word, n, v, old, tail)
        return _raw(moved._rot, {**moved._diff, n: v}) if v == tail else moved
    return move


RELATIONS = ("verify", "relations", "--samples", "20", "--cutoff", "2")
EMBEDDING = ("verify", "embedding", "--samples", "10")
FOCK_EXT = ("verify", "fock-ext", "--modes", "3", "--cutoff", "2", "--exps", "3")


# Expected records captured while each suite still built one CheckResult per check.
@pytest.mark.parametrize("name, plant, argv, total, passed, failures", [
    ("apply_generator", _s1_star_doubled_in_p3, RELATIONS, 146, 140, [
        "[FAIL] P_3(1) sample 0: s1* s1 = I",
        "[FAIL] P_3(1) sample 0: sum(s_i s_i*, i<=2) = projection on first letter <= 2",
        "[FAIL] P_3(1) sample 1: s1* s1 = I",
        "[FAIL] P_3(1) sample 1: sum(s_i s_i*, i<=2) = projection on first letter <= 2",
        "[FAIL] P_3(1) pair 0: <s1 u, v> = <u, s1* v>: 4/9 - 4/3*sqrt(2) - 2/3*sqrt(5) + 2*sqrt(10)"
        " vs 8/9 - 8/3*sqrt(2) - 4/3*sqrt(5) + 4*sqrt(10)",
        "[FAIL] P_3(1) pair 1: <s1 u, v> = <u, s1* v>: -2 + 3*sqrt(2) vs -4 + 6*sqrt(2)"]),
    ("apply_generator", _s3_as_s3_s1_in_p12, RELATIONS, 146, 135,
     ["[FAIL] P_inf(1,2) sample 0: s3 a1* = a2* s3"]
     + [f"[FAIL] P_inf(1,2) sample 0: s3 a{n}{star} = a{n + 1}{star} s3"
        for n in (2, 3) for star in ("", "*")]
     + [f"[FAIL] P_inf(1,2) sample 1: s3 a{n}{star} = a{n + 1}{star} s3"
        for n in (1, 2, 3) for star in ("", "*")]),
    ("apply_monomial", _left_word_reversed, RELATIONS, 146, 144, [
        "[FAIL] P_inf(1) monomial 1: <m u, v> = <u, m* v> for m = s1 s3: 26 - 12*sqrt(2) vs 0",
        "[FAIL] P_inf(1) monomial 1: m v = its letters applied in turn for m = s1 s3"]),
    ("fock_word_in_ON", _digit_word_too_long, EMBEDDING, 202, 200, [
        "[FAIL] N=2 occupations {2: 2, 6: 1}: digit word = translated word:"
        " (1, 2, 2, 1, 1, 1, 1, 2, 1, 2) vs (1, 2, 2, 1, 1, 1, 1, 2, 1)",
        "[FAIL] N=2 occupations {2: 2, 6: 1}: embedded creators reproduce the Fock state"]),
    ("odometer_index", _index_off_at_3_2,
     ("verify", "odometer", "--modes", "2", "--index-bound", "40", "--cutoff", "3"), 331, 330,
     ["[FAIL] roundtrip e12: word 3,2|1"]),
    ("odometer_boson", _a2_star_image_shifted, ("verify", "odometer"), 6980, 6979,
     ["[FAIL] a2* e1 = e3: image [4]"]),
    ("fock_extension_action", _s2_coefficient_doubled_on_one_cubed_creator, FOCK_EXT, 222, 219,
     [f"[FAIL] s2 on creators (({mode}, 3),)" for mode in (1, 2, 3)]),
    # planted on boson only: the ladder powers of the walk go wrong, the normalizers
    # of branching.basis_monomials and the coefficients of fock_extension_action do not
    ("_root_range", _top_root_factor_dropped, ("verify", "bases", "--cutoff", "1", "--exps", "3"),
     108, 102,
     [f"[FAIL] typej j=1 modes 1 exps 3: |v_{k}|^2 = 1: norm^2 1/{k}" for k in (2, 3)]
     + [f"[FAIL] typej j=2 modes 1 exps 3: |v_{k}|^2 = 1: norm^2 1/{k}" for k in (3, 4)]
     + [f"[FAIL] onetwov modes 1 exps 3: |v_{k}|^2 = 1: norm^2 1/{k}" for k in (2, 3)]),
    ("_root_range", _top_root_factor_dropped, ("verify", "fock-ext", "--modes", "3", "--cutoff", "1",
                                               "--exps", "2"), 42, 34,
     ["[FAIL] s3 on creators ()"]
     + [f"[FAIL] s3{star} on creators ((1, {k}),)" for k, star in ((1, ""), (2, ""), (2, "*"))]
     + [f"[FAIL] s3 on creators (({mode}, {k}),)" for mode in (2, 3) for k in (1, 2)]),
    ("decode_label", _long_n_run_decoded_one_too_high, EMBEDDING, 202, 193,
     [f"[FAIL] N=2 occupations {{{occupations}}}: embedded creators reproduce the Fock state"
      for occupations in ("1: 2, 3: 1, 5: 1, 6: 4", "1: 5, 2: 4, 6: 1", "1: 5, 2: 4, 3: 1, 6: 2",
                          "1: 5, 2: 1, 3: 5, 4: 3", "1: 5, 2: 2, 3: 3, 6: 1", "1: 2, 3: 4, 5: 5, 6: 4",
                          "4: 4, 5: 3", "2: 2, 6: 1")]
     + ["[FAIL] N=2: encode/decode roundtrip sample 1"]),
    # caught by the embedding's s_i* s_j = 0 samples alone: all 146 checks of RELATIONS pass under it
    ("_strip_word", _last_letter_of_long_words_unread, EMBEDDING, 202, 193,
     [f"[FAIL] N=2: embedded s{i}* s{j} = 0 on sample {k}"
      for i, j in ((2, 3), (2, 4), (3, 4)) for k in range(3)]),
    # captured after the span check read every label: before, a zero element raised IndexError
    ("_walk", _power_three_steps_vanish, ("verify", "bases", "--cutoff", "1", "--exps", "3"), 108, 102,
     [line for family, k in (("typej j=1", 3), ("typej j=2", 4), ("onetwov", 3))
      for line in (f"[FAIL] {family} modes 1 exps 3: |v_{k}|^2 = 1: norm^2 0",
                   f"[FAIL] {family}: span matches occupation-bounded labels: {k} labels")]),
    # planted on boson only: a label that comes back to its tail letter is no longer canonical
    ("_move_letter", _tail_letter_kept_as_a_deviation, ("verify", "ccr", "--modes", "2", "--samples", "2"),
     72, 60, [f"[FAIL] P_inf({rep}) sample {idx}: [a{n}, a{n}*] = 1"
              for rep in ("1", "2", "1,2") for idx in (0, 1) for n in (1, 2)]),
])
def test_planted_failure_records(capsys, monkeypatch, name, plant, argv, total, passed, failures):
    """A fault planted in every package module that binds ``name`` names its failing checks,
    on standard output and with exit code 1.  Each kept failure is a failed ``CheckResult``,
    and the rows printed, as JSON and as text, are exactly its ``line()``, in order, up to
    the cap."""
    true = getattr(cuntz, name, None) or getattr(embed, name, None) or getattr(boson, name)
    for module in (cuntz, boson, embed, verify):
        if getattr(module, name, None) is true:
            monkeypatch.setattr(module, name, plant(true))
    results = []

    def kept_run(*args, **kwargs):
        results.append(verify.run_suite(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_suite", kept_run)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "") and json.loads(out) == {
        "suite": argv[1], "total": total, "passed": passed, "failures": failures}
    kept = results[-1].failures
    assert all(isinstance(row, common.CheckResult) and not row.passed for row in kept)
    assert [row.line() for row in kept] == failures and len(kept) <= verify.SuiteResult.MAX_FAILURES
    monkeypatch.setattr(verify.SuiteResult, "MAX_FAILURES", 2)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "") and out.splitlines()[1:] == [
        f"  first failures: {row.line()}" for row in results[-1].failures]
    assert results[-1].failures == kept[:2]


def _counting(monkeypatch, module, name, calls):
    """Record in ``calls`` the last argument of every call of ``module.name``: a label or a radicand."""
    true = getattr(module, name)

    def spy(*args):
        calls.append(args[-1])
        return true(*args)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("state, labels_in, labels_out", [("omega", 1, 0), ("2,1|1", 1, 1)])
def test_act_under_an_alphabet_decodes_once_per_ladder_run(capsys, monkeypatch, state, labels_in,
                                                           labels_out):
    decoded, encoded = [], []
    _counting(monkeypatch, embed, "decode_label", decoded)
    _counting(monkeypatch, embed, "encode_label", encoded)
    code, out, _ = run(capsys, "act", "--N", "2", "--expr", "a1* a2* a1", "--state", state)
    assert code == 0 and len(out.splitlines()) == max(labels_out, 1)
    assert (len(decoded), len(encoded)) == (labels_in, labels_out)


def test_verify_embedding_crosses_the_codec_once_per_fock_sample(capsys, monkeypatch):
    """Each Fock sample decodes one label and encodes one, whatever its occupation
    counts, as does each of the samples // 5 codec samples."""
    decoded, encoded = [], []
    _counting(monkeypatch, embed, "decode_label", decoded)
    _counting(monkeypatch, embed, "encode_label", encoded)
    code, out, _ = run(capsys, *EMBEDDING)
    assert code == 0 and out == "suite embedding: 202/202 checks passed\n"
    assert (len(decoded), len(encoded)) == (10 + 2, 10 + 2)


@pytest.mark.parametrize("j, elements", [(3, 36), (10**12, 49)])
def test_large_cycle_letters_are_factored_once(capsys, monkeypatch, j, elements):
    """Roots of small and large letters alike are kept in the one bounded root memo."""
    radicands = []
    _counting(monkeypatch, scalar, "squarefree_split", radicands)
    scalar._root.cache_clear()
    code, out, _ = run(capsys, "bases", "--family", "typej", "--j", str(j), "--modes", "2")
    assert code == 0 and out.startswith(f"family typej: {elements} elements, orthonormal: True\n")
    assert radicands and len(radicands) == len(set(radicands))


def test_planted_branch_failure_is_reported(capsys, monkeypatch):
    """A failed defining identity is a [FAIL] row and exit code 1, not a traceback."""
    true = branching.apply_create
    monkeypatch.setattr(branching, "apply_create",
                        lambda n, v: 2 * true(n, v) if n == 2 else true(n, v))
    code, out, err = run(capsys, "branch", "--rep", "|1")
    assert (code, err) == (1, "")
    assert "  [FAIL] a2 a2* vac = 1 vac: result 2 * ||1>\n" in out
    assert out.count("[FAIL]") == 1 and out.count("[ok]") == 11
    code, out, err = run(capsys, "branch", "--rep", "|1", "--json")
    assert (code, err) == (1, "")
    rows = json.loads(out)["components"][0]["verified"]
    assert [row["name"] for row in rows if not row["passed"]] == ["a2 a2* vac = 1 vac"]


def test_planted_ladder_power_failure_is_reported(capsys, monkeypatch):
    """A fault only in the walk's steps of power |k| >= 2 fails the F_3 rows of ``branch``,
    each one walk of the two steps ``(n, -2), (n, 2)``, so 2 * 2**2 = 8,
    and ``verify bases``."""
    true = boson._walk
    monkeypatch.setattr(boson, "_walk",
                        lambda v, steps: 2 ** sum(abs(k) >= 2 for _, k in steps) * true(v, steps))
    code, out, err = run(capsys, "branch", "--rep", "|3")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        f"  [FAIL] (a{n}*)^2 a{n}^2 vac = 2 vac: result 8 * ||3>" for n in range(1, 7)]
    code, _, err = run(capsys, "verify", "bases", "--cutoff", "1", "--exps", "3")
    assert (code, err) == (1, "")


def _readme_verify_table():
    """(suite, options it reads, checks at the defaults) for each row of the README's verify table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    head = "| suite | options it reads | checks at the defaults |"
    rows = text[text.index(head):].splitlines()[2:]
    out = []
    for row in itertools.takewhile(lambda line: line.startswith("|"), rows):
        suite, options, checks = (cell.strip() for cell in row.strip("|").split("|"))
        names = {option.lstrip("-").replace("-", "_") for option in re.findall(r"`(--[\w-]+)`", options)}
        out.append((suite.strip("`"), names, int(checks.replace(",", ""))))
    return out


def test_readme_verify_table_matches_the_suites(capsys):
    """Each row names exactly the options its suite reads, none with a default of its
    own, and the number of checks that ``verify <suite>`` makes at the CLI defaults."""
    table = _readme_verify_table()
    assert sorted(suite for suite, _, _ in table) == sorted(verify.SUITES)
    for suite, options, checks in table:
        params = inspect.signature(verify.SUITES[suite]).parameters.values()
        keyword_only = [p for p in params if p.kind is p.KEYWORD_ONLY]
        assert {p.name for p in keyword_only} == options, suite
        assert all(p.default is p.empty for p in keyword_only), suite
        code, out, _ = run(capsys, "verify", suite, "--json")
        assert code == 0 and json.loads(out)["total"] == checks, suite


def _benchmark_corpus():
    """``perfbench/corpus.py``, the benchmark's answer key, loaded as it stands."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CORPUS = _benchmark_corpus()


# The benchmark's own suite calls, plus relations around its sample-count rule
# (the corpus itself calls --samples 20).
SUITE_CALLS = CORPUS.SUITES + [("relations", ["--samples", str(samples)]) for samples in (1, 50, 99)]


@pytest.mark.parametrize("suite, extra", SUITE_CALLS,
                         ids=[" ".join([suite, *extra]) for suite, extra in SUITE_CALLS])
def test_suite_totals_match_the_benchmark_answer_key(capsys, suite, extra):
    code, out, _ = run(capsys, "verify", suite, *extra, "--json")
    assert code == 0 and json.loads(out)["total"] == CORPUS._suite_total(suite, extra)


def test_every_cli_mix_call_passes_the_benchmark_answer_key(capsys):
    """The 1,200 calls of the benchmark's cli-mix corpus at seed 7, through ``main`` in
    this process, each checked as the benchmark checks it."""
    corpus = CORPUS.build(7)
    failed = [entry["argv"] for entry in corpus
              if not CORPUS.check(entry["expect"], *run(capsys, *entry["argv"]))]
    assert len(corpus) == 1200 and failed == []


def _traced_benchmark_unit(workload, params):
    """One traced unit of ``perfbench/worker.py`` at seed 7, run as the benchmark runs it."""
    root = Path(__file__).resolve().parent.parent
    request = {"workload": workload, "seed": 7, "trace": True, "params": params}
    done = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py")],
                          input=json.dumps(request), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_benchmark_worker_traces_the_ladder_calls_it_counts():
    """Every ladder-deep op passes and each of its two creators and two annihilators is one
    traced call."""
    unit = _traced_benchmark_unit("ladder-deep", {"ops": 6, "min_exp": 6, "max_exp": 7})
    assert unit["passed"] == unit["ops"] == 6
    calls = unit["fn_calls"]
    assert calls["boson.apply_create"] == calls["boson.apply_annihilate"] == 2 * 6


def test_benchmark_worker_traces_every_ccr_ladder_call():
    """A ccr sample keeps its ladder images, which saves label steps, not calls: every check
    passes, each is one ``verify.add``, and each makes its six creators and six annihilators
    (3 samples modes^2 6 of each kind)."""
    samples, modes = 2, 2
    unit = _traced_benchmark_unit("ccr", {"modes": modes, "samples": samples})
    assert unit["passed"] == unit["ops"] == 9 * samples * modes**2 == 72
    calls = unit["fn_calls"]
    assert calls["boson.apply_create"] == calls["boson.apply_annihilate"] == 3 * samples * modes**2 * 6
    assert calls["verify.add"] == 72


def test_benchmark_literal_series_agrees_with_act(capsys):
    """The benchmark's answer key for ladder expressions, the defining series, matches ``act``."""
    code, out, _ = run(capsys, "act", "--rep", "|1,2", "--expr", "2 a1* a1* a2 - a2 a3*",
                       "--state", "3,2|1,2", "--json")
    terms = [(2, [(1, True), (1, True), (2, False)]), (-1, [(2, False), (3, True)])]
    expected = CORPUS._Literal().apply((1, 2), terms, ((3, 2), (1, 2)))
    assert code == 0 and expected and CORPUS._equal(CORPUS._parse_ket(out, True), expected)


def test_run_suite_names_the_missing_options():
    with pytest.raises(TypeError, match="'modes', 'cutoff', and 'exps'"):
        verify.run_suite("fock-ext")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        # argparse raises through parse_args when invoked with no subcommand
        main_no_catch()
    assert exc.value.code == 2


def main_no_catch():
    from cuntzboson.cli import build_parser
    build_parser().parse_args([])


def test_parser_is_built_once_per_process_and_not_at_import():
    # A fresh interpreter, so that no earlier test has built the parser yet;
    # it counts every ArgumentParser made, subcommand parsers included.
    script = """if True:
        import argparse, contextlib, io
        made = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import cuntzboson.cli as cli
        at_import = len(made)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (["fock", "--occ", "1:2"], ["act", "--expr", "a1*"], ["verify", "nope"],
                         ["act", "--model", "odometer", "--rep", "|2", "--expr", "s1"],
                         ["embed", "--N", "2", "--gen", "3", "--json"], []):
                cli.main(argv)
        after_main = len(made)
        cli.build_parser.__wrapped__()
        print(at_import, after_main, len(made) - after_main)
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert done.returncode == 0, done.stderr
    at_import, after_main, one_build = map(int, done.stdout.split())
    assert at_import == 0
    assert after_main == one_build > 1  # the top parser and its subcommand parsers


def test_cli_import_loads_no_introspection_modules():
    # `dataclasses` would bring these in and run generated code at import, in
    # every process the command starts; the package's records need neither.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (f"import sys; sys.path.insert(0, {src!r}); import cuntzboson.cli; "
              f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["--help"], ["act", "--help"], ["verify", "--help"], ["bases", "--help"],
    [], ["act"], ["verify", "nope"], ["bases", "--family", "x"],
    # where a command's own parser could answer otherwise than the top parser handing on
    ["fock", "extra"], ["act", "--expr", "s1", "--bogus"], ["verify", "ccr", "3"],
    ["act", "--", "--expr", "s1"], ["fock", "-h"],
])
def test_reused_parser_formats_at_the_current_width(capsys, monkeypatch, argv):
    """``main`` prints what a fresh top-level ``parse_args`` prints, at each width."""
    monkeypatch.setenv("COLUMNS", "120")
    main(["fock"])  # the parser exists before the widths below are set
    capsys.readouterr()
    outputs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        reused = (main(list(argv)), *capsys.readouterr())
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args(list(argv))
        fresh = (int(exc.value.code or 0), *capsys.readouterr())
        assert reused == fresh
        outputs.append(reused)
    assert outputs[0] != outputs[1]  # the text does depend on the width


def test_a_named_command_is_parsed_once_by_its_own_parser(capsys, monkeypatch):
    """An argv that names a command makes one ``parse_known_args`` call, on that command's
    parser; the top parser answers only an empty argv, help and an unknown name."""
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in (["act", "--expr", "a1*"], ["act", "--model", "odometer", "--rep", "|2", "--expr", "s1"],
                 ["branch", "--rep", "|1,2", "--json"], ["verify", "nope"], ["fock", "extra"],
                 ["embed", "--N", "2", "--gen", "3"], ["bases", "--family", "lambda", "--modes", "2"]):
        parsed.clear()
        run(capsys, *argv)
        assert parsed == [f"cuntzboson {argv[0]}"], argv
    for argv, expected, text in (([], 2, "error: the following arguments are required: subcommand"),
                                 (["-h"], 0, "Exact ladder-operator calculus"),
                                 (["bogus"], 2, "error: argument subcommand: invalid choice: 'bogus'")):
        parsed.clear()
        code, out, err = run(capsys, *argv)
        assert parsed == ["cuntzboson"] and code == expected
        assert (out + err).startswith("usage: cuntzboson [-h] {act,") and text in out + err


def test_nonprimitive_rep_is_domain_error(capsys):
    code, _, err = run(capsys, "branch", "--rep", "|1,2,1,2")
    assert code == 3 and "primitive" in err


@pytest.mark.parametrize("argv", [
    ("act", "--expr", "a1"),
    ("branch", "--rep", "|1"),
    ("verify", "embedding"),
    ("embed", "--gen", "3"),
    ("embed", "--word", "1,2"),
    ("embed", "--occ", "1:2"),
])
@pytest.mark.parametrize("N", [1, 0, -1])
def test_alphabet_bound_below_two_has_one_message(capsys, argv, N):
    code, out, err = run(capsys, *argv, "--N", str(N))
    assert (code, out, err) == (2, "", f"error: alphabet bound must be >= 2, got {N}\n")


@pytest.mark.parametrize("option", ["--samples", "--modes", "--cutoff", "--exps", "--index-bound"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_counts_below_one(capsys, option, value):
    code, out, err = run(capsys, "verify", "ccr", option, value)
    assert code == 2 and out == ""
    assert "usage:" in err and option in err


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "|1", "--modes", "-5"),
    ("branch", "--rep", "|1", "--modes", "0"),
    ("bases", "--family", "typej", "--modes", "0"),
    ("bases", "--family", "lambda", "--modes", "-1"),
    ("bases", "--family", "onetwov", "--exps", "0"),
    ("bases", "--family", "typej", "--exps", "-2"),
])
def test_branch_and_bases_reject_counts_below_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "usage:" in err and argv[-2] in err


def test_unfactorable_radicand_is_domain_error_within_deadline():
    # (10**9 + 7) * (10**9 + 9): no factor below the trial-division limit
    argv = [sys.executable, "-m", "cuntzboson.cli", "act", "--expr", "sqrt(1000000016000000063)"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert time.monotonic() - start < 10
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("domain error: cannot factor radicand 1000000016000000063")


@pytest.mark.parametrize("argv, out", [
    # a prime letter above 10**12: its root and its successor's
    (("act", "--state", "1000000000039|1", "--expr", "a1*"), "sqrt(1000000000039) * |1000000000040|1>\n"),
    (("act", "--expr", "sqrt(7000042000063)"), "1000003*sqrt(7) * ||1>\n"),  # 1000003**2 * 7
    (("bases", "--family", "typej", "--j", "1000000000039", "--modes", "1", "--exps", "1"),
     "family typej: 3 elements, orthonormal: True\n1  normalizer 1\n"
     "a1  normalizer 1/1000000000038*sqrt(1000000000038)\n"
     "a1*  normalizer 1/1000000000039*sqrt(1000000000039)\n"),
])
def test_radicands_with_a_cofactor_below_ten_to_the_eighteen_are_answered(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def _run_cli_subprocess(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "cuntzboson.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    return done, time.monotonic() - start


@pytest.mark.parametrize("argv", [
    ("act", "--expr", "a999999999*"),
    ("fock", "--occ", "100000000:1"),
])
def test_mode_above_max_mode_is_domain_error_within_deadline(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("domain error: mode ") and str(MAX_MODE) in done.stderr


@pytest.mark.parametrize("argv", [
    ("bases", "--family", "lambda", "--modes", "6"),  # 46,656 kets, about 10^9 checks
    ("bases", "--family", "onetwov", "--modes", str(10**30), "--json"),
    ("verify", "bases", "--cutoff", "6"),
    ("verify", "bases", "--cutoff", "1", "--exps", "5000"),  # typej j=1: 5,001 kets
])
def test_check_count_above_max_checks_is_domain_error_within_deadline(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("domain error: ") and f"MAX_CHECKS = {MAX_CHECKS}" in done.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "ccr", "--modes", "300"),  # 4,050,000 checks
    ("verify", "ccr", "--modes", "106", "--samples", "1"),  # 101,124 checks
    ("verify", "ccr", "--samples", str(10**30), "--modes", str(10**30), "--json"),
    ("verify", "fock-ext", "--modes", "40"),  # 2 * 40 * 102,091 checks
    ("verify", "fock-ext", "--modes", "1", "--exps", "50000"),  # 100,002 checks
    # under 10^5 checks each, but their coefficients have thousands of digits; served, 3.7-4.9 s
    ("verify", "fock-ext", "--modes", "1", "--cutoff", "1", "--exps", "2000"),  # 4,002 checks
    ("verify", "fock-ext", "--modes", "4", "--cutoff", "1", "--exps", "700"),  # 22,408 checks
    ("verify", "fock-ext", "--modes", "10", "--cutoff", "1", "--exps", "290"),  # 58,020 checks
    ("verify", "fock-ext", "--modes", str(10**30), "--cutoff", str(10**30), "--exps", str(10**30)),
    ("verify", "relations", "--samples", "100000"),  # 1,080,000 checks
    ("verify", "relations", "--cutoff", "3000"),  # 90,030,340 checks
    ("verify", "relations", "--samples", str(10**30)),
    ("verify", "relations", "--cutoff", str(10**30), "--json"),
    ("verify", "embedding", "--samples", "1000000"),  # 2,200,180 checks
    ("verify", "embedding", "--cutoff", "3000"),  # 107,991,110 checks
    ("verify", "embedding", "--samples", "45374"),  # 100,002 checks
    ("verify", "embedding", "--samples", str(10**30)),
    ("verify", "embedding", "--cutoff", str(10**30), "--json"),
])
def test_check_count_above_max_ket_checks_is_domain_error_within_deadline(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith(f"domain error: verify {argv[1]} needs more checks than the largest")
    assert f"MAX_KET_CHECKS = {MAX_KET_CHECKS}" in done.stderr


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "|1", "--modes", "100000"),  # 200,000 rows
    ("branch", "--rep", "|1", "--modes", str(10**30), "--json"),
    ("branch", "--rep", "|1000000000000"),  # 6 * 10^12 rows
    ("branch", "--rep", f"|{10**30}", "--modes", str(10**30)),
])
def test_branch_rows_above_max_ket_checks_are_domain_error_within_deadline(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("domain error: branch needs more checks than the largest supported number, "
                           f"MAX_KET_CHECKS = {MAX_KET_CHECKS}\n")


def test_ket_check_bound_is_inclusive():
    check_ket_checks(MAX_KET_CHECKS, "at the bound")
    with pytest.raises(DomainError, match="past the bound needs more checks"):
        check_ket_checks(MAX_KET_CHECKS + 1, "past the bound")
    # the largest ccr and fock-ext calls of one sample or mode that are served
    assert 9 * 105**2 <= MAX_KET_CHECKS < 9 * 106**2
    # fock-ext charges its c checks once more per 5 * 10^4 of (exps * min(cutoff, modes))^2,
    # and at one mode and cutoff c = 2(1 + exps)
    assert 2690 + 2690 * 1344**2 // (5 * 10**4) <= MAX_KET_CHECKS < 2692 + 2692 * 1345**2 // (5 * 10**4)
    # and the largest relations, embedding and branch calls at the other CLI defaults
    assert verify._relations_checks(9259, 4) <= MAX_KET_CHECKS < verify._relations_checks(9260, 4)
    assert verify._embedding_checks(45373, 4) == MAX_KET_CHECKS  # exactly 10^5 checks
    assert verify._embedding_checks(45374, 4) > MAX_KET_CHECKS
    assert branching._row_count((1,), 50000) <= MAX_KET_CHECKS < branching._row_count((1,), 50001)


@pytest.mark.parametrize("modes, cutoff, exps", itertools.product((1, 2, 5), (1, 2, 6), (1, 3)))
def test_fock_ext_check_count_is_the_suite_total(modes, cutoff, exps):
    total = verify.run_suite("fock-ext", modes=modes, cutoff=cutoff, exps=exps).total
    assert verify._fock_ext_checks(modes, cutoff, exps) == total


@pytest.mark.parametrize("options, count, served", [
    ((), 22973, True),  # the defaults: 22,908 checks
    (("--modes", "1", "--cutoff", "1", "--exps", "300"), 1685, True),  # 602 checks
    (("--modes", "3", "--cutoff", "2", "--exps", "40"), 33305, False),  # 29,526 checks, about 1 s
    (("--modes", "1", "--cutoff", "1", "--exps", "1000"), 42042, False),  # 2,002 checks, about 0.8 s
])
def test_fock_ext_bound_counts_the_size_of_its_exponents(capsys, monkeypatch, options, count, served):
    """The fock-ext count adds checks * (exps * min(cutoff, modes))^2 // (5 * 10^4) to its
    checks: a call whose count is one past the bound is refused, and one at the bound is served."""
    argv = ("verify", "fock-ext", *options)
    if served:
        monkeypatch.setattr(common, "MAX_KET_CHECKS", count)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("suite fock-ext: ")
    monkeypatch.setattr(common, "MAX_KET_CHECKS", count - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err == ("domain error: verify fock-ext needs more checks than the "
                                              f"largest supported number, MAX_KET_CHECKS = {count - 1}\n")


@pytest.mark.parametrize("samples, cutoff", itertools.product((1, 9, 10, 20, 35, 50), (1, 2, 3, 4, 6)))
def test_relations_and_embedding_check_counts_are_the_suite_totals(samples, cutoff):
    total = verify.run_suite("relations", samples=samples, cutoff=cutoff, seed=7).total
    assert verify._relations_checks(samples, cutoff) == total
    for N in (2, 3, 5):  # the embedding count does not depend on N
        total = verify.run_suite("embedding", N=N, samples=samples, cutoff=cutoff, seed=7).total
        assert verify._embedding_checks(samples, cutoff) == total


@pytest.mark.parametrize("cycle", [(1,), (2,), (5,), (1, 2), (1, 2, 3), (1, 1, 2)])
def test_branch_row_count_is_the_number_of_rows(cycle):
    for modes in range(1, 13):
        components = branching.enumerate_components(cuntz.RepSpec(cycle), modes=modes)
        rows = sum(len(c.verified_conditions) for c in components)
        assert branching._row_count(cycle, modes) == rows, modes


@pytest.mark.parametrize("argv, count", [
    (("verify", "relations"), 540),
    (("verify", "embedding"), 290),
    (("branch", "--rep", "|1,2"), 18),
    (("verify", "embedding", "--samples", "100", "--cutoff", "1"), 229),
])
def test_relations_embedding_and_branch_bounds_are_inclusive(capsys, monkeypatch, argv, count):
    """A call of exactly the bound's count is served, and one of one more is refused."""
    monkeypatch.setattr(common, "MAX_KET_CHECKS", count)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    monkeypatch.setattr(common, "MAX_KET_CHECKS", count - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and f"MAX_KET_CHECKS = {count - 1}" in err


@pytest.mark.parametrize("modes, cutoff, index_bound",
                         itertools.product((1, 2, 5, 6, 9), (1, 4, 30), (1, 7, 64)))
def test_odometer_check_count_is_the_suite_total_plus_its_modes(modes, cutoff, index_bound):
    """The count is the suite's checks plus, over 10**4, the modes they name: s_n and s_n*
    for each index and n <= modes, a_n* e1 for n <= cutoff, and the O_2 model's s_n for
    n <= min(modes, 5) on 64 indices."""
    total = verify.run_suite("odometer", modes=modes, cutoff=cutoff, index_bound=index_bound).total
    mode_sum = (index_bound * 2 * sum(range(1, modes + 1)) + sum(range(1, cutoff + 1))
                + 64 * sum(range(1, min(modes, 5) + 1)))
    assert verify._odometer_checks(modes, cutoff, index_bound) == total + mode_sum // 10**4


def test_odometer_bound_counts_the_modes_of_its_checks():
    assert verify._odometer_checks(6, 4, 512) == 6982  # 6,980 checks at the CLI defaults
    # the largest index bound served at the other defaults
    assert verify._odometer_checks(6, 4, 7664) <= MAX_KET_CHECKS < verify._odometer_checks(6, 4, 7665)
    # each under 10^5 checks; served, the first two take 8-17 s
    assert verify._odometer_checks(49800, 4, 1) > MAX_KET_CHECKS
    assert verify._odometer_checks(1, 99000, 1) > MAX_KET_CHECKS
    assert verify._odometer_checks(22000, 1, 1) <= MAX_KET_CHECKS


def test_odometer_bound_is_inclusive(capsys, monkeypatch):
    """A call of exactly the bound's count is served, and one of one more is refused."""
    monkeypatch.setattr(common, "MAX_KET_CHECKS", 6982)
    code, out, _ = run(capsys, "verify", "odometer")
    assert code == 0 and out == "suite odometer: 6980/6980 checks passed\n"
    monkeypatch.setattr(common, "MAX_KET_CHECKS", 6981)
    code, out, err = run(capsys, "verify", "odometer")
    assert (code, out) == (3, "") and err == ("domain error: verify odometer needs more checks than the "
                                              "largest supported number, MAX_KET_CHECKS = 6981\n")


@pytest.mark.parametrize("argv", [
    ("verify", "odometer", "--modes", "49800", "--index-bound", "1"),  # 99,925 checks
    ("verify", "odometer", "--modes", "1", "--cutoff", "99000", "--index-bound", "1"),  # 99,067 checks
    ("verify", "odometer", "--index-bound", "7665", "--json"),
])
def test_odometer_modes_above_max_ket_checks_are_domain_error_within_deadline(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("domain error: verify odometer needs more checks than the largest supported "
                           f"number, MAX_KET_CHECKS = {MAX_KET_CHECKS}\n")


def _count_options(suite):
    """The ``verify`` flags of the counts that ``suite`` reads: each keyword-only
    parameter of its runner but the seed and the alphabet bound."""
    params = inspect.signature(verify.SUITES[suite]).parameters.values()
    return ["--" + p.name.replace("_", "-") for p in params
            if p.kind is p.KEYWORD_ONLY and p.name not in ("seed", "N")]


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_suite_refuses_huge_counts_within_deadline(suite):
    argv = [token for flag in _count_options(suite) for token in (flag, str(10**30))]
    assert argv
    done, elapsed = _run_cli_subprocess("verify", suite, *argv)
    assert elapsed < 2, argv
    assert done.returncode == 3 and done.stdout == "", argv
    assert done.stderr.startswith(f"domain error: verify {suite} needs more "), done.stderr


def test_embedded_word_longer_than_max_mode_is_domain_error_within_deadline():
    # 2,000,000 letters of O_2 from two indices that are each served alone
    done, elapsed = _run_cli_subprocess("embed", "--N", "2", "--word", f"{MAX_MODE},{MAX_MODE}")
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("domain error: the O_2 word would have 2000000 letters")
    assert f"MAX_MODE = {MAX_MODE}" in done.stderr


def test_check_count_bound_is_inclusive():
    assert 4471 * 4472 // 2 <= MAX_CHECKS < 4472 * 4473 // 2
    check_family_sizes([4471], "one family")
    with pytest.raises(DomainError, match="one family needs more"):
        check_family_sizes([4472], "one family")
    with pytest.raises(DomainError):  # families add up
        check_family_sizes([4000, 2000], "two families")


@pytest.mark.parametrize("argv", [
    ("fock", "--occ", "1:30000"),  # the coefficient sqrt(30000!)
    ("fock", "--occ", "1:30000", "--json"),
    ("act", "--model", "odometer", "--expr", "s20000"),  # the index 2**19999
    ("act", "--model", "odometer", "--expr", "a20000*", "--json"),
])
def test_integer_beyond_the_text_limit_is_domain_error_within_deadline(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 10
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("domain error: ") and "4300 decimal digits" in done.stderr


_LONG = "1" * 5000  # past the 4300 digits of Python's integer-text conversion


@pytest.mark.parametrize("argv, code", [
    # a usage error where it is an option value, a cycle or a word
    (("verify", "ccr", "--modes", _LONG), 2),
    (("verify", "ccr", "--seed", _LONG), 2),
    (("verify", "embedding", "--N", _LONG), 2),
    (("bases", "--family", "typej", "--j", _LONG), 2),
    (("embed", "--N", "2", "--gen", _LONG), 2),
    (("act", "--rep", f"|{_LONG}", "--expr", "s1"), 2),
    (("act", "--state", f"{_LONG}|1", "--expr", "s1"), 2),
    (("embed", "--N", "2", "--word", _LONG), 2),
    # a domain error in an expression, an occupation list or an odometer state
    (("act", "--expr", f"sqrt({_LONG})"), 3),
    (("act", "--expr", f"{_LONG} s1"), 3),
    (("act", "--expr", f"a{_LONG}*"), 3),
    (("fock", "--occ", f"1:{_LONG}"), 3),
    (("embed", "--N", "2", "--occ", f"{_LONG}:1"), 3),
    (("act", "--model", "odometer", "--expr", "s1", "--state", f"e{_LONG}"), 3),
])
def test_over_long_integer_exit_code_by_site_within_deadline(monkeypatch, argv, code):
    """The README's sites: exit 2 in an option value, a ``--rep`` cycle or a word, and
    exit 3, with the digit limit named, in ``--expr``, ``--occ`` and ``e<n>``.  A word and
    an option read by ``_positive_int`` name the limit in one short line, without the
    digits; argparse's own ``type=int`` options still echo them."""
    monkeypatch.setenv("COLUMNS", "80")  # the width of the usage text that comes with the error
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert (done.returncode, done.stdout) == (code, "") and "Traceback" not in done.stderr
    site = argv[next(i for i, item in enumerate(argv) if _LONG in item) - 1]
    if code == 2 and site not in ("--seed", "--N", "--j", "--gen"):
        assert len(done.stderr.encode()) < 500 and "4300" in done.stderr
        assert "set_int_max_str_digits" not in done.stderr
    if code == 3:
        assert done.stderr == ("domain error: an integer has more than 4300 decimal digits, "
                               "the limit of Python's integer-text conversion\n")


@pytest.mark.parametrize("argv", [
    ("fock", "--occ", "1:1000000000000"),
    ("fock", "--occ", "1:100000"),
    ("fock", "--occ", "1:3000,2:3000,3:3000"),  # each count is served alone
    ("embed", "--N", "2", "--occ", "1:1000000000000"),  # its O_2 word would have 10^12 letters
])
def test_unprintable_occupation_coefficient_is_refused_before_it_is_built(argv):
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("domain error: the coefficient of these occupations has more "
                                  "than 4300 decimal digits")


@pytest.mark.parametrize("argv", [
    ("fock", "--occ", "1:3112"),  # the first count whose q reaches 10^4300
    ("fock", "--occ", "1:3112", "--json"),
    ("fock", "--occ", "1:3628"),  # the last count the closed-form bound lets through
    ("fock", "--occ", "1:3628", "--json"),
    ("embed", "--N", "2", "--occ", "1:3112"),
])
def test_unprintable_built_occupation_coefficient_is_refused_with_its_message(argv):
    """Past the closed-form bound's reach, the built coefficient's q is compared with 10^4300."""
    done, elapsed = _run_cli_subprocess(*argv)
    assert elapsed < 2
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("domain error: the coefficient of these occupations has more than 4300 "
                           "decimal digits, the limit of Python's integer-text conversion\n")


def test_largest_printable_occupation_coefficient_is_served(capsys):
    """sqrt(3111!) = q sqrt(r), r squarefree, and q has 4,298 digits: under the limit, which
    the q of sqrt(3112!) passes."""
    code, out, _ = run(capsys, "fock", "--occ", "1:3111", "--json")
    assert code == 0
    payload = json.loads(out)
    [term] = payload["coefficient"]
    q, r = term["numerator"], term["radicand"]
    assert payload["word"] == [3112] and term["denominator"] == 1
    assert q * q * r == math.factorial(3111) and len(str(q)) == 4298
    assert all(r % (p * p) for p in range(2, 3112))
    code, out, _ = run(capsys, "fock", "--occ", "1:3111")
    assert code == 0 and out == f"word: 3112\ncoefficient: {q}*sqrt({r})\n"


@pytest.mark.parametrize("argv", [
    ("bases", "--family", "typej", "--modes", "5"),  # 1,025 lines, 43 kB
    ("act", "--expr", "a1* + a200000*"),  # a short line, then one of 400 kB
])
def test_reader_closing_the_pipe_after_one_line_ends_cleanly(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "cuntzboson.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    first = proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    proc.stdout = None
    _, err = proc.communicate(timeout=30)
    assert first.endswith(b"\n")
    assert (proc.returncode, err) == (0, b"")


def test_max_mode_itself_is_served(capsys):
    expected = "1 * |" + "1," * (MAX_MODE - 1) + "2|1>\n"
    for alphabet in ([], ["--N", "2"]):  # O_2 encodes letter 2 as 2,1
        code, out, _ = run(capsys, "act", *alphabet, "--expr", f"a{MAX_MODE}*")
        assert code == 0 and out == expected
    code, _, err = run(capsys, "act", "--expr", f"s{MAX_MODE + 1}")
    assert code == 3 and "generator index" in err
    for argv in (["--gen", str(MAX_MODE + 1)], ["--word", f"1,{MAX_MODE + 1}"]):
        code, _, err = run(capsys, "embed", "--N", "2", *argv)
        assert code == 3 and "generator index" in err
    # the O_N word of embed --word may have MAX_MODE letters in all, and no more
    code, out, _ = run(capsys, "embed", "--N", "2", "--word", f"{MAX_MODE}")
    assert code == 0 and out == f"s_({MAX_MODE}) -> " + "2," * (MAX_MODE - 1) + "1\n"
    code, _, err = run(capsys, "embed", "--N", "3", "--word", f"{MAX_MODE},{MAX_MODE},1")
    assert code == 3 and "the O_3 word would have 1000001 letters" in err


def test_zero_denominator_is_a_parse_error(capsys):
    code, out, err = run(capsys, "act", "--expr", "a1* + 1/0")
    assert code == 2 and out == "" and "zero denominator" in err


@pytest.mark.parametrize("expr, message", [
    ("a1* + 1/0", "zero denominator (at position 6)"),
    ("a1*   +   a0", "generator indices are 1-based (at position 10)"),
    ("  s0", "generator indices are 1-based (at position 2)"),
    ("s1 +", "empty term (at position 3)")])
def test_parse_error_names_the_position_of_the_token(capsys, expr, message):
    code, out, err = run(capsys, "act", "--expr", expr)
    assert code == 2 and out == "" and err == f"parse error: {message}\n"


@pytest.mark.parametrize("expr, position", [("sqrt(0)", 0), ("a1* + sqrt( 00 )", 6)])
def test_sqrt_of_zero_is_a_parse_error(capsys, expr, position):
    code, out, err = run(capsys, "act", "--expr", expr)
    assert code == 2 and out == ""
    assert err == f"parse error: sqrt needs a radicand >= 1 (at position {position})\n"


# --- fuzzing the command line ------------------------------------------------
#
# argv drawn from a grammar of subcommands, flags and tokens, hostile integers
# and malformed words included.  Branch cycle letters stay small: the row
# bound does not see a row's cost, which grows with the letter, so a large one
# runs long by design, which is not a hang.  Hostile counts go wherever a bound
# counts the work first and refuses it: ``bases`` and ``verify bases`` modes,
# cutoffs and exponents (MAX_CHECKS, orthonormality checks), the counts of every
# other suite (MAX_KET_CHECKS, checks; odometer also counts the modes its checks
# name, fock-ext the size of its exponents), ``branch`` modes (MAX_KET_CHECKS,
# rows) and the occupation counts of ``fock`` and ``embed --occ`` (the digits of
# their coefficient against the int-to-text limit, in ``boson.fock_word``).  Large fock-ext exponents at small modes and cutoffs, which make few
# checks of many digits each, have a line of their own.  MAX_MODE, the largest
# index that is served, reaches the longest outputs: a label or O_N word of a
# million letters.  Large letters, as state letters, ``bases --j`` and ``sqrt``
# radicands, reach the exact roots of every radicand below 10^18: a prime, a
# square of a prime above the trial-division limit times 7, 10^18 - 11, and
# 1000000016000000063, whose cofactor above 10^18 is still refused.

_HOSTILE = st.sampled_from([-10**9, -1, 0, 10**5, MAX_MODE, MAX_MODE + 1, 10**9, 10**30])
_index = st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=-2, max_value=12),
                   _HOSTILE)
_LARGE = st.sampled_from([1000000000039, 7000042000063, 10**18 - 11, 1000000016000000063])
_letter = st.one_of(_index, _LARGE)
_small = st.sampled_from([1, 2, 3, 1, 2, 3, 0, -1])
_junk = st.text(alphabet="as*0123456789,|:+-/() e@x", max_size=10)
_word = st.one_of(st.lists(_letter, max_size=4).map(lambda xs: ",".join(map(str, xs))), _junk)
_small_word = st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(
    lambda xs: ",".join(map(str, xs)))
_factor = st.builds("{}{}{}".format, st.sampled_from("sa"), _index, st.sampled_from(["", "*"]))
_literal = st.one_of(st.builds("{}/{}".format, _small, _small), _index.map(str),
                     _letter.map("sqrt({})".format))
_expr = st.lists(st.one_of(_factor, _factor, _factor, _literal, st.sampled_from(["+", "-"]), _junk),
                 min_size=1, max_size=4).map(" ".join)
_occ = st.one_of(st.lists(st.builds("{}:{}".format, _index,
                                    st.one_of(st.integers(min_value=-1, max_value=6), _HOSTILE)),
                          max_size=3).map(",".join), _junk)
_state = st.one_of(st.just("omega"), _index.map("e{}".format),
                   st.builds("{}|{}".format, _word, _word), _junk)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _argv(head, *parts):
    return st.tuples(*parts).map(lambda ps: list(head) + [t for p in ps for t in p])


_flag_json = st.sampled_from([[], ["--json"]])
_commands = st.one_of(
    _argv(["act"], _opt("--rep", _word.map("|{}".format) | _junk), _opt("--N", _index),
          _expr.map(lambda e: ["--expr", e]), _opt("--state", _state),
          _opt("--model", st.sampled_from(["words", "odometer", "x"])), _flag_json),
    _argv(["branch"], _small_word.map(lambda w: ["--rep", "|" + w]), _opt("--N", _index),
          _opt("--modes", st.one_of(_small, _HOSTILE)), _flag_json),
    _argv(["verify"], st.sampled_from(["ccr", "bases", "odometer", "fock-ext", "nope"]).map(lambda s: [s]),
          *[st.one_of(_small, _HOSTILE).map(lambda v, f=f: [f, str(v)]) for f in
            ("--samples", "--modes", "--cutoff", "--exps", "--index-bound")],
          _opt("--seed", _index), _opt("--N", st.integers(min_value=-1, max_value=4)), _flag_json),
    _argv(["verify", "fock-ext"], *[_small.map(lambda v, f=f: [f, str(v)]) for f in ("--modes", "--cutoff")],
          st.one_of(_small, st.sampled_from([1_500, 2_000, 5_000, 49_999])).map(lambda v: ["--exps", str(v)]),
          _flag_json),
    _argv(["verify"], st.sampled_from(["relations", "embedding"]).map(lambda s: [s]),
          *[st.one_of(_small, _HOSTILE).map(lambda v, f=f: [f, str(v)]) for f in ("--samples", "--cutoff")],
          _opt("--seed", _index), _opt("--N", st.integers(min_value=-1, max_value=4)), _flag_json),
    _argv(["fock"], _opt("--occ", _occ), _flag_json),
    _argv(["embed"], _opt("--N", _index),
          st.one_of(st.just([]), _index.map(lambda v: ["--gen", str(v)]),
                    _word.map(lambda w: ["--word", w]), _occ.map(lambda o: ["--occ", o])),
          _flag_json),
    _argv(["bases"], _opt("--family", st.sampled_from(["lambda", "typej", "onetwov", "x"])),
          _opt("--j", st.one_of(_small, st.sampled_from([10**9, 10**12]), _LARGE)),
          *[st.one_of(_small, _HOSTILE).map(lambda v, f=f: [f, str(v)]) for f in ("--modes", "--exps")],
          _flag_json),
    st.lists(st.one_of(_junk, st.sampled_from(["act", "--help", "--expr", "-x"])), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(_commands)
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.monotonic() - start < 10, argv
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
