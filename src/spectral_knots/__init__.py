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
    basis_monomials,
    dim_Y,
)
from .cache import ResultCache, ResultRecord, fingerprint
from .sinha import (
    column_homology,
    d1_matrix,
    e2_diagonal,
    e2_page,
    kan_unit_check,
    normalized_basis,
    vassiliev_e1_view,
)
from .chords import (
    dim_A,
    enumerate_diagrams,
    four_term_relations,
    one_term_relations,
    relation_matrix,
)

__all__ = [
    "__version__",
    "CapacityError",
    "ComplexError",
    "ConsistencyError",
    "Field",
    "ResultCache",
    "ResultRecord",
    "ShapeError",
    "SparseMatrix",
    "basis_monomials",
    "column_homology",
    "fingerprint",
    "d1_matrix",
    "dim_A",
    "dim_Y",
    "e2_diagonal",
    "e2_page",
    "enumerate_diagrams",
    "four_term_relations",
    "homology_dim",
    "kan_unit_check",
    "normalized_basis",
    "one_term_relations",
    "relation_matrix",
    "vassiliev_e1_view",
]
