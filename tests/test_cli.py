import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cuntzboson.cli import main


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


def test_act_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "act", "--rep", "|1", "--expr", "s1 + @")
    assert code == 2 and "position" in err


def test_act_alphabet_violation_exit_3(capsys):
    code, _, err = run(capsys, "act", "--rep", "|1", "--N", "2", "--expr", "s3")
    assert code == 3 and "alphabet" in err.lower() or "exceeds" in err


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


def test_embed_command(capsys):
    code, out, _ = run(capsys, "embed", "--N", "2", "--gen", "3")
    assert code == 0 and out == "s3 -> 2,2,1\n"
    code, out, _ = run(capsys, "embed", "--N", "2", "--word", "2,3")
    assert code == 0 and "2,1,2,2,1" in out
    code, out, _ = run(capsys, "embed", "--N", "3", "--occ", "1:1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [2]


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


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        # argparse raises through parse_args when invoked with no subcommand
        main_no_catch()
    assert exc.value.code == 2


def main_no_catch():
    from cuntzboson.cli import build_parser
    build_parser().parse_args([])


def test_nonprimitive_rep_is_domain_error(capsys):
    code, _, err = run(capsys, "branch", "--rep", "|1,2,1,2")
    assert code == 3 and "primitive" in err


@pytest.mark.parametrize("option", ["--samples", "--modes", "--cutoff", "--exps", "--index-bound"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_counts_below_one(capsys, option, value):
    code, out, err = run(capsys, "verify", "ccr", option, value)
    assert code == 2 and out == ""
    assert "usage:" in err and option in err


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
