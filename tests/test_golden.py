"""CLI output on a fixed command corpus, byte for byte.

``data/golden_cli.json`` holds the exit code and standard output of each
command as produced before the change it guards: the first 30 entries before
the scalar layer moved to integer numerators over a common denominator, the
``bases`` and ``verify bases`` entries before both came to share one
orthonormality check, the last three (an odometer ``act`` with a
parenthesized coefficient and a ``branch --json``) before the coefficient
parentheses and the component pattern each came to have one source, and the
last four (a ``branch`` on cycle letter 5 and a ``typej`` basis with powers
up to 4, each as text and as JSON) before ladder powers came to be applied
in one step, the next one (``verify ccr --modes 3 --samples 4 --json``)
before ccr came to compare the two operator orderings of each relation
instead of building their difference, and the last four (a ``typej`` basis
whose lowering is capped by ``--exps`` and an ``onetwov`` basis on an even
number of modes, each as text and as JSON) before the occupation families
came to be built by one builder from one table of letter ranges, and the
last two (``branch --rep '|2' --N 2``, as text and as JSON) once a cycle of
the letter N came to be refused, with their standard error, and the last
four (an ``act`` on the state letter 1000000000039, a prime, and one of
``sqrt(7000042000063)``, (10^6+3)^2 * 7, each as text and as JSON) once every
radicand below 10^18 came to be factored exactly, and the last six
(``act --N 3`` on ``|2`` and on ``3,3|1,2``, whose trailing run of 3s
closes with the tail letter 1, each as text and as JSON, and the refusal of
``act --N 2`` on ``|1,2``, a tail that holds the letter N, with its
standard error) once the block code came to decode every tail without the
letter N.  Any change to
the text or JSON forms shows up here.  An entry without ``stderr`` expects
an empty standard error.
"""

import json
import random
from pathlib import Path

import pytest

from cuntzboson.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"]) for e in CORPUS])
def test_cli_output_is_unchanged(capsys, entry):
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["code"], entry["stdout"], entry.get("stderr", ""))


def test_reused_parser_keeps_calls_independent(capsys):
    """Every entry twice in one process, in a seeded shuffled order.

    Interleaved are three calls that could leave state on the one parser of
    the process, each followed by the call it would leak into: a usage error
    and a valid ``act``, the post-parse refusal of ``act --model odometer
    --rep '|2'`` and a valid odometer call, a ``--json`` call and the same
    call without ``--json``.
    """
    golden = [(e["argv"], e["code"], e["stdout"], e.get("stderr", "")) for e in CORPUS]
    act, act_json, odometer = golden[0], golden[1], golden[18]
    assert act_json[0] == act[0] + ["--json"] and odometer[0][:3] == ["act", "--model", "odometer"]
    usage_error = (["act", "--rep", "|1", "--state", "omega"], 2, "",
                   "error: the following arguments are required: --expr\n")
    refusal = (["act", "--model", "odometer", "--rep", "|2", "--expr", "s1"], 2, "",
               "error: act --model odometer acts on the representation |1 of O_inf: "
               "it takes no --N and no --rep other than '|1'\n")
    units = [[call] for call in golden] * 2 + [
        [usage_error, act], [refusal, odometer], [act_json, act]]
    random.Random(12).shuffle(units)
    for argv, code, stdout, error in (call for unit in units for call in unit):
        got = main(list(argv))
        captured = capsys.readouterr()
        assert (got, captured.out) == (code, stdout), argv
        if error.startswith("error: "):  # a usage error, printed after the usage text
            assert captured.err.startswith("usage: cuntzboson") and captured.err.endswith(error)
        else:
            assert captured.err == error, argv
