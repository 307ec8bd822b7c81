"""Byte-for-byte golden outputs of the CLI.

``golden_cli.json`` holds, for every command over q and fp:2 in every
output format, the exact stdout and exit code of one cold-cache run.  Any
refactor must leave all of them unchanged.
"""

import hashlib
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


# sha256 of the stdout of `e2 --n 8 --k-max 4` before d1 wrote its rewrite
# chains in closed form: the first page whose faces take chains of two and
# three steps, and whose d1(7, 4) has F_2 torsion
E2_EIGHT_FOUR = {
    "q": "b09ef9df8f5e928831b70ad326c60a20b216047d000836d6542b51c829b6ff6c",
    "fp:2": "ef63f6d6194840e5d34dd31c8cfbaf113094224af8d7a4cf37064e0ca1c03f41",
    "fp:3": "726fce892b22f49acc3ac9bb8f45441170b993eb90d39346d4ee7801bbbc2ac3",
}


@pytest.mark.parametrize("field", sorted(E2_EIGHT_FOUR))
def test_e2_eight_four_matches_its_digest(field, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(tmp_path))
    assert main(["--command", "e2", "--n", "8", "--k-max", "4", "--field", field]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == E2_EIGHT_FOUR[field]
