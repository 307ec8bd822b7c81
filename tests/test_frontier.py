"""Frontier values pinned to published ones; deselected by default, run
with ``python -m pytest -m slow``."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectral_knots.chords import dim_A
from spectral_knots.linalg import Field
from spectral_knots.sinha import (
    _kept_face_matrix,
    d1_matrix,
    e2_diagonal,
    e2_page,
    normalized_basis,
    normalized_dim_formula,
)

SRC = Path(__file__).resolve().parent.parent / "src"

F2 = Field(2)
Q = Field()


@pytest.mark.slow
def test_degree_six_over_f2_is_bar_natans_nine():
    # dim_A(6) = 9: D. Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995)
    assert dim_A(6, F2) == e2_diagonal(6, F2) == 9


@pytest.mark.slow
def test_degree_six_over_q_is_bar_natans_nine():
    # the rational path at the frontier, where coefficient growth would show
    m = _kept_face_matrix(12, Q)
    assert dim_A(6, Q) == e2_diagonal(6, Q) == m.cols - m.rank() == 9
    # the shape that test_f2_lines_run_along_the_shorter_side_within_the_budget
    # pins without building it
    assert (m.rows, m.cols) == (13585, 3655)


@pytest.mark.slow
@pytest.mark.parametrize("field, rank", [(Q, 2800), (F2, 2799), (Field(3), 2800)])
def test_d1_from_column_eight_at_k_five_loses_one_rank_over_f2_alone(field, rank):
    # the next F_2 torsion after d1(7, 4); the rational rank takes about 4 s
    assert d1_matrix(8, 5, field).rank() == rank


@pytest.mark.slow
def test_d1_loses_rank_mod_p_only_at_two_maps_over_f2_for_k_up_to_five():
    # the complete F_p rank-drop map of d1 for k <= 5: every map with a
    # nonempty source and target column, ranked over Q, F_2, F_3 and F_5
    # (about 17 s); only d1(7, 4) and d1(8, 5) drop, by one, over F_2 alone
    maps = [(l, k) for k in range(6) for l in range(1, 2 * k + 2)
            if normalized_basis(l, k) and normalized_basis(l - 1, k)]
    assert len(maps) == 19
    drops = {}
    for l, k in maps:
        rank_q = d1_matrix(l, k, Q).rank()
        for field in (F2, Field(3), Field(5)):
            rank_p = d1_matrix(l, k, field).rank()
            if rank_p != rank_q:
                drops[(l, k, field.spec())] = (rank_q, rank_p)
    assert drops == {(7, 4, "fp:2"): (211, 210), (8, 5, "fp:2"): (2800, 2799)}


@pytest.mark.slow
@pytest.mark.parametrize("field, dim", [(Q, 0), (F2, 1), (Field(3), 0)])
def test_e2_page_row_ten_gains_one_over_f2_beside_d1_from_column_eight(field, dim):
    # the F_2 rank drop of d1(8, 5) adds one to its kernel at (-8, 10) and
    # one to the cokernel at (-7, 10); about 16 s for the three fields
    page = e2_page(9, 5, field)
    assert (page[(-8, 10)], page[(-7, 10)]) == (dim, dim)


# VmHWM, the peak RSS of the process image: a child's ru_maxrss would also
# count the high-water mark its parent had at the exec, which, in a pytest
# process that has run the n = 6 tests above, is larger than the bounds below
_PRINT_PEAK = (
    "import sys\n"
    "with open('/proc/self/status') as f:\n"
    "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')), file=sys.stderr)\n"
)


def _run_for_peak(script, tmp_path):
    """Run ``script`` in a fresh interpreter: (its stdout, its peak RSS in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), SPECTRAL_KNOTS_CACHE=str(tmp_path / "cache"))
    out = subprocess.run([sys.executable, "-c", script + _PRINT_PEAK], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout, int(out.stderr.split()[-1])


@pytest.mark.slow
def test_largest_k_six_column_bases_fit_in_memory(tmp_path):
    # the two largest columns that e2 --n 12 --k-max 6 builds, held together
    # as strand words, as its basis memo holds them (about 0.5 s, peak about
    # 26 MB)
    out, peak_kib = _run_for_peak(
        "from spectral_knots.sinha import _basis_words\n"
        "print(*[len(_basis_words(l, 6)) for l in (9, 10)])\n", tmp_path)
    assert [int(x) for x in out.split()] == [normalized_dim_formula(l, 6) for l in (9, 10)] == [86912, 83475]
    assert max(normalized_dim_formula(l, 6) for l in range(13)) == 86912
    assert peak_kib < 32 * 1024


def test_degree_six_crosscheck_over_f2_fits_in_memory(tmp_path):
    # a cold crosscheck up to n = 6 (about 0.2 s); the F_2 ranks hold no dict
    # rows and no presolve state, the Sinha side enumerates and ranks only its
    # kept sources, along its 3655 columns, and every matrix is held as its
    # columns (peak about 25 MB)
    out, peak_kib = _run_for_peak(
        "from spectral_knots.cli import main\nmain(['--command', 'crosscheck', '--n', '6', '--field', 'fp:2'])\n",
        tmp_path)
    rows = json.loads(out)["crosscheck"]
    assert all(r["equal"] for r in rows)
    assert rows[-1] == {"n_diag": 6, "dim_A": 9, "e2_diag": 9, "equal": True}
    assert peak_kib < 40 * 1024


@pytest.mark.slow
def test_degree_seven_over_f2_is_bar_natans_fourteen_in_bounded_memory(tmp_path):
    # dim_A(7) = 14 (Bar-Natan, as above), ranked over the circular one-term
    # quotient modulo rotation: 3218 orbit columns and 21601 rows, where the
    # linear quotient has 47844 columns of the 135135 diagrams (peak about
    # 42 MB)
    out, peak_kib = _run_for_peak(
        "from spectral_knots.chords import dim_A\nfrom spectral_knots.linalg import Field\n"
        "print(dim_A(7, Field(2)))\n", tmp_path)
    assert int(out) == 14
    assert peak_kib < 120 * 1024


@pytest.mark.slow
def test_degree_seven_over_f3_is_bar_natans_fourteen_in_bounded_memory(tmp_path):
    # the same over F_3, a cross-field check of the value, eliminated along
    # the 3218 columns (about 3.5 s, peak about 112 MB)
    out, peak_kib = _run_for_peak(
        "from spectral_knots.chords import dim_A\nfrom spectral_knots.linalg import Field\n"
        "print(dim_A(7, Field(3)))\n", tmp_path)
    assert int(out) == 14
    assert peak_kib < 160 * 1024


@pytest.mark.slow
def test_degree_seven_sinha_diagonal_over_f2_is_fourteen_in_bounded_memory(tmp_path):
    # e2_diagonal(7) = 14 = dim_A(7) (Bar-Natan, as above), ranked over the
    # 47844 of 135135 matchings with no factor (i, i+1), enumerated alone;
    # neither the (14, 7) nor the (13, 7) column is.  The faces are walked on
    # strand words, off the rewrite memo, and only the 210650 of 240548 face
    # terms with a nonzero sum get a row (about 25 s, peak about 239 MB)
    out, peak_kib = _run_for_peak(
        "from spectral_knots.sinha import e2_diagonal\nfrom spectral_knots.linalg import Field\n"
        "print(e2_diagonal(7, Field(2)))\n", tmp_path)
    assert int(out) == 14
    assert peak_kib <= 253 * 1024


# sha256 of the stdout of `e2 --n 10 --k-max 5` before the clearing ranks
# and the word walk of d1, and the nonzero entries of its page
E2_TEN_FIVE = {
    "q": ("7f86d37ffaae4825ce465ecd888e84c19725da7a014affc561f9ab6a6e60f57b",
          {(-10, 10): 4, (-9, 10): 4, (-8, 8): 3, (-7, 8): 2, (-6, 6): 1, (-5, 6): 1, (-4, 4): 1}),
    "fp:2": ("332b089e0117fdb05ffc737433645ada34c74568522158a4c70081d16bcc539a",
             {(-10, 10): 4, (-9, 10): 4, (-8, 8): 3, (-8, 10): 1, (-7, 8): 3, (-7, 10): 1, (-6, 6): 1,
              (-6, 8): 1, (-5, 6): 1, (-4, 4): 1}),
}


@pytest.mark.slow
@pytest.mark.parametrize("field", sorted(E2_TEN_FIVE))
def test_e2_page_ten_five_is_unchanged_in_bounded_memory(field, tmp_path):
    # a cold e2 up to k = 5: every column complex is ranked with clearing,
    # the faces are walked on strand words, and the d∘d = 0 checks keep no
    # sum that vanishes mod p, and the matrices are held as columns (peak
    # about 34 MB over Q and 30 MB over F_2)
    out, peak_kib = _run_for_peak(
        "from spectral_knots.cli import main\n"
        f"main(['--command', 'e2', '--n', '10', '--k-max', '5', '--field', '{field}'])\n", tmp_path)
    digest, nonzero = E2_TEN_FIVE[field]
    page = json.loads(out)["pages"]["sinha_e2"]
    assert {(e["col"], e["row"]): e["dim"] for e in page if e["dim"]} == nonzero
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert peak_kib <= 40 * 1024


# sha256 of the stdout of `e2 --n 12 --k-max 6`, the largest e2 the capacity
# check admits, taken while the expanded complex of kancheck still had a face
# map of its own beside d1's walk
E2_TWELVE_SIX = {
    "fp:2": "18438f7482430c08d442e0906535f5c96aab623023d77a288d7115a3d9bc011a",
    "fp:3": "82f77d35d7722cb7c83662f55e1473715f6060759d61794f1c0df424a1d0ef7e",
    "q": "7f3f5b12d484b15afae3669f319ddb59ee2990604552ef0aef34f23fb10d9fb3",
}


@pytest.mark.slow
@pytest.mark.parametrize("field", sorted(E2_TWELVE_SIX))
def test_e2_page_twelve_six_is_unchanged(field, tmp_path):
    # a cold e2 through row k = 6, every d1 walked on strand words (about
    # 13-19 s over F_2, 27-42 s over F_3 and 45-70 s over Q, peaks about 365-410 MB)
    out, _ = _run_for_peak(
        "from spectral_knots.cli import main\n"
        f"main(['--command', 'e2', '--n', '12', '--k-max', '6', '--field', '{field}'])\n", tmp_path)
    assert hashlib.sha256(out.encode()).hexdigest() == E2_TWELVE_SIX[field]
