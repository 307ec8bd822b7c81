"""Frontier values pinned to published ones; deselected by default, run
with ``python -m pytest -m slow``."""

import pytest

from spectral_knots.chords import dim_A
from spectral_knots.linalg import Field
from spectral_knots.sinha import e2_diagonal

F2 = Field.prime(2)


@pytest.mark.slow
def test_degree_six_over_f2_is_bar_natans_nine():
    # dim_A(6) = 9: D. Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995)
    assert dim_A(6, F2) == e2_diagonal(6, F2) == 9
