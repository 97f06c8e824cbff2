"""Exact local-global invariants of diagonal quadratic forms over Q.

Hilbert symbols and square classes at every completion, Hasse-Witt vectors
and their top cup-product obstruction, local and global solvability with
certificates and witness search, and a finite groupoid model identifying a
descent 2-cocycle with a cup product of characters. All arithmetic is exact.
"""

from .cohomology import (
    BaseField,
    CohClass,
    RATIONALS,
    REALS,
    add,
    cohclass_to_json,
    cup,
    h1,
    hilbert_symbol,
    is_zero,
    reciprocity_holds,
    zero_class,
)
from .forms import (
    DegenerateFormError,
    DiagonalForm,
    SymmetricForm,
    diagonalize,
    discriminant,
    form_from_json,
    form_to_json,
    hasse_invariant,
    matrix_from_json,
    matrix_to_json,
)
from .hasse_witt import (
    MAX_RANK,
    HasseWittVector,
    hasse_witt_vector,
    top_obstruction,
)
from .localsolve import (
    InconclusivePrecisionError,
    default_precision,
    min_precision,
    represents_one,
)
from .rationals import (
    FactorizationLimitError,
    Place,
    REAL_PLACE,
    as_rational,
    factor,
    is_prime,
)
from .solvability import (
    DEFAULT_SEARCH_HEIGHT,
    SearchBudgetExceeded,
    SolvabilityCertificate,
    relevant_places,
    search_point,
    solvable_over_Q,
    solvable_over_Qp,
    solvable_over_R,
)

__all__ = [
    "BaseField",
    "CohClass",
    "DEFAULT_SEARCH_HEIGHT",
    "DegenerateFormError",
    "DiagonalForm",
    "FactorizationLimitError",
    "HasseWittVector",
    "InconclusivePrecisionError",
    "MAX_RANK",
    "Place",
    "RATIONALS",
    "REALS",
    "REAL_PLACE",
    "SearchBudgetExceeded",
    "SolvabilityCertificate",
    "SymmetricForm",
    "add",
    "as_rational",
    "cohclass_to_json",
    "cup",
    "default_precision",
    "diagonalize",
    "discriminant",
    "factor",
    "form_from_json",
    "form_to_json",
    "h1",
    "hasse_invariant",
    "hasse_witt_vector",
    "hilbert_symbol",
    "is_prime",
    "is_zero",
    "matrix_from_json",
    "matrix_to_json",
    "min_precision",
    "reciprocity_holds",
    "relevant_places",
    "represents_one",
    "search_point",
    "solvable_over_Q",
    "solvable_over_Qp",
    "solvable_over_R",
    "top_obstruction",
    "zero_class",
]
