"""Exact computation of truncated knot-space spectral sequence pages and
chord-diagram space dimensions over the rationals and prime fields."""

__version__ = "0.1.0"

from .linalg import (
    CapacityError,
    ComplexError,
    ConsistencyError,
    Field,
    ShapeError,
    SparseMatrix,
    homology_dim,
)
from .conf_algebra import (
    AlgebraElement,
    Monomial,
    basis_monomials,
    dim_Y,
    normal_form,
)
from .cache import ResultCache, ResultRecord, fingerprint
from .sinha import (
    KanReport,
    PageTable,
    SINHA_E2,
    VASSILIEV_E1,
    column_homology,
    d1_matrix,
    degeneracy_pullback,
    e2_diagonal,
    e2_page,
    face_pullback,
    kan_unit_check,
    normalized_basis,
    vassiliev_e1_view,
)
from .chords import (
    RelationVector,
    dim_A,
    enumerate_diagrams,
    four_term_relations,
    one_term_relations,
    relation_matrix,
)

__all__ = [
    "__version__",
    "AlgebraElement",
    "CapacityError",
    "ComplexError",
    "ConsistencyError",
    "Field",
    "KanReport",
    "Monomial",
    "PageTable",
    "RelationVector",
    "ResultCache",
    "ResultRecord",
    "SINHA_E2",
    "ShapeError",
    "SparseMatrix",
    "VASSILIEV_E1",
    "basis_monomials",
    "column_homology",
    "fingerprint",
    "d1_matrix",
    "degeneracy_pullback",
    "dim_A",
    "dim_Y",
    "e2_diagonal",
    "e2_page",
    "enumerate_diagrams",
    "face_pullback",
    "four_term_relations",
    "homology_dim",
    "kan_unit_check",
    "normal_form",
    "normalized_basis",
    "one_term_relations",
    "relation_matrix",
    "vassiliev_e1_view",
]
