"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.
"""

import json
import random
from contextlib import contextmanager

import pytest

from oracles import (
    degeneracy_quotient_dim,
    inclusion_exclusion_dim,
    word_quotient_dim,
)
from spectral_knots.chords import dim_A, enumerate_diagrams
from spectral_knots.cli import RunConfig, run
from spectral_knots import conf_algebra
from spectral_knots.conf_algebra import _reduce_cached, basis_monomials, dim_Y, is_basic, reduce_squarefree
from spectral_knots.linalg import Field
from spectral_knots.sinha import (
    ConsistencyError,
    d1_matrix,
    e2_diagonal,
    e2_page,
    kan_unit_check,
    normalized_basis,
    vassiliev_e1_view,
)

Q = Field()
F2 = Field(2)
F3 = Field(3)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(tmp_path / "cache"))


def test_criterion_1_cross_pipeline_diagonal_equality():
    with criterion(1, "cross-pipeline diagonal equality, n_diag <= 4, Q/F2/F3"):
        for spec in ("q", "fp:2", "fp:3"):
            cfg = RunConfig(command="crosscheck", n=4, k_max=0, field_spec=spec)
            record = run(cfg)
            for row in record.payload["crosscheck"]:
                assert row["equal"], (spec, row)
                assert row["dim_A"] == row["e2_diag"]


def test_criterion_1_optional_n_diag_5():
    # optional per the exit criteria (budgeted up to an hour); runs in
    # seconds here, so it is exercised unconditionally
    with criterion(1, "optional n_diag = 5"):
        for f in (Q, F2, F3):
            assert dim_A(5, f) == e2_diagonal(5, f), f


def test_criterion_1_diagonal_bases_coincide():
    # k = n factors cover 2n strands only as n disjoint edges: the diagonal
    # column's basis is the set of chord diagrams, in the same order
    with criterion(1, "normalized_basis(2n, n) == enumerate_diagrams(n), n_diag <= 6"):
        for n in range(1, 7):
            assert normalized_basis(2 * n, n) == enumerate_diagrams(n), n


def test_criterion_2_complex_property_suite():
    with criterion(2, "d1*d1 = 0 (l<=8, k<=4), triple agreement (l<=6, k<=4), Poincare (l<=6)"):
        for f in (Q, F2):
            for k in range(0, 5):
                for l in range(2, 9):
                    prod = d1_matrix(l - 1, k, f).compose(d1_matrix(l, k, f))
                    assert prod.is_zero(), (l, k, f)
        for l in range(1, 7):
            for k in range(0, 5):
                combinatorial = len(normalized_basis(l, k))
                assert combinatorial == inclusion_exclusion_dim(l, k), (l, k)
                assert combinatorial == degeneracy_quotient_dim(l, k, Q), (l, k)
        for l in range(0, 7):
            top = 2 * l  # beyond the top degree everything must vanish
            for k in range(0, top + 2):
                assert len(basis_monomials(l, k)) == dim_Y(l, k), (l, k)


def test_criterion_3_rewriting_oracle_equivalence(monkeypatch):
    with criterion(3, "normal-form basis vs word-space quotient (l<=4, k<=3) + confluence x1000"):
        for l in range(1, 5):
            for k in range(0, 4):
                assert word_quotient_dim(l, k, Q) == dim_Y(l, k), (l, k)
        rng = random.Random(1234)
        chosen = []
        for _ in range(1000):
            l = rng.randint(2, 5)
            k = rng.randint(1, min(4, l * (l + 1) // 2))
            pairs = set()
            while len(pairs) < k:
                i, j = rng.randint(1, l), rng.randint(1, l)
                pairs.add((min(i, j), max(i, j)))
            mono = tuple(sorted(pairs))

            def chooser(shared):
                b = rng.choice(sorted(shared))
                chosen.append(b)
                a1, a2 = sorted(rng.sample(sorted(shared[b]), 2))
                return a1, a2, b

            default = dict(reduce_squarefree(mono))
            # the memo is cleared around the patched call, so no random-order
            # result is served to it or stays behind
            _reduce_cached.cache_clear()
            before = len(chosen)
            with monkeypatch.context() as m:
                m.setattr(conf_algebra, "_default_choice", chooser)
                alt = dict(reduce_squarefree(mono))
            _reduce_cached.cache_clear()
            assert default == alt, mono
            # a non-basic monomial is rewritten only through the patched chooser
            assert is_basic(mono) or len(chosen) > before, mono
        assert chosen


def sides_agree(lhs, rhs):
    """Equal {total degree: dim} dicts, a degree missing from one side being 0."""
    return all(lhs.get(t, 0) == rhs.get(t, 0) for t in lhs.keys() | rhs.keys())


def test_criterion_4_kan_extension_check():
    with criterion(4, "total homology of the expanded vs plain complex, n = 1, 2 (+3), Q/F2"):
        for f in (Q, F2):
            for n in (1, 2):
                lhs, rhs = kan_unit_check(n, 3, f)
                assert sides_agree(lhs, rhs), (n, f, lhs, rhs)
        # n = 3 is optional in the exit criteria; cheap enough to include
        assert sides_agree(*kan_unit_check(3, 3, Q))


def test_criterion_5_off_lattice_vanishing():
    with criterion(5, "off-lattice entries vanish; the shifted view enforces it"):
        for f in (Q, F2):
            page = e2_page(5, 3, f)
            for (col, row), dim in page.items():
                on_lattice = row % 2 == 0 and row >= 0 and col <= 0
                if not on_lattice:
                    assert dim == 0, (col, row)
            vassiliev_e1_view(page)  # must not raise on a real page
        # negative control: a doctored table must be rejected
        with pytest.raises(ConsistencyError):
            vassiliev_e1_view({(-2, 3): 1})


def test_criterion_6_determinism(tmp_path, monkeypatch):
    with criterion(6, "byte-identical JSON payloads for identical configs"):
        payloads = []
        for run_dir in ("a", "b"):
            # separate cache dirs force two genuine computations
            monkeypatch.setenv("SPECTRAL_KNOTS_CACHE", str(tmp_path / run_dir))
            cfg = RunConfig(command="e2", n=3, k_max=2, field_spec="q")
            record = run(cfg)
            payloads.append(
                json.dumps(record.payload, sort_keys=True, separators=(",", ":")).encode()
            )
        assert payloads[0] == payloads[1]
        # and a cache-hit replay serves the identical payload
        record = run(RunConfig(command="e2", n=3, k_max=2, field_spec="q"))
        replay = json.dumps(record.payload, sort_keys=True, separators=(",", ":")).encode()
        assert replay == payloads[1]
