"""Frontier values pinned to published ones; deselected by default, run
with ``python -m pytest -m slow``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectral_knots.chords import dim_A
from spectral_knots.linalg import Field
from spectral_knots.sinha import e2_diagonal, normalized_dim_formula

SRC = Path(__file__).resolve().parent.parent / "src"

F2 = Field.prime(2)
Q = Field.rationals()


@pytest.mark.slow
def test_degree_six_over_f2_is_bar_natans_nine():
    # dim_A(6) = 9: D. Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995)
    assert dim_A(6, F2) == e2_diagonal(6, F2) == 9


@pytest.mark.slow
def test_degree_six_over_q_is_bar_natans_nine():
    # the rational path at the frontier, where coefficient growth would show
    assert dim_A(6, Q) == e2_diagonal(6, Q) == 9


@pytest.mark.slow
def test_degree_seven_column_basis_fits_in_memory():
    # the n = 7 column next to the diagonal, in a fresh process so that its
    # peak RSS is its own (ru_maxrss is in KiB on Linux)
    script = (
        "import resource\n"
        "from spectral_knots.sinha import normalized_basis\n"
        "print(len(normalized_basis(13, 7)), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    size, peak_kib = map(int, out.stdout.split())
    assert size == normalized_dim_formula(13, 7) == 675675
    assert peak_kib < 450 * 1024
