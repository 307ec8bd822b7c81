"""Byte-for-byte golden outputs of the CLI.

``golden_cli.json`` holds, for every command over q and fp:2 in every
output format, the exact stdout and exit code of one cold-cache run.  Any
refactor must leave all of them unchanged.
"""

import json
from pathlib import Path

import pytest

from spectral_knots.cli import main

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["args"] for c in CASES])
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(tmp_path))
    code = main(case["args"].split())
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
