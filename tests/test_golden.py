"""CLI output on a fixed command corpus, byte for byte.

``data/golden_cli.json`` holds the exit code and standard output of each
command as produced before the scalar layer moved to integer numerators over
a common denominator; any change to the text or JSON forms shows up here.
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
