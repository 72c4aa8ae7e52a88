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
in one step, and the last one (``verify ccr --modes 3 --samples 4 --json``)
before ccr came to compare the two operator orderings of each relation
instead of building their difference.  Any change to the text or JSON forms
shows up here.
"""

import json
from pathlib import Path

import pytest

from cuntzboson.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"]) for e in CORPUS])
def test_cli_output_is_unchanged(capsys, entry):
    code = main(list(entry["argv"]))
    assert (code, capsys.readouterr().out) == (entry["code"], entry["stdout"])
