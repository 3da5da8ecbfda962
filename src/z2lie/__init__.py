"""Z2-graded algebras, Hu-Liu Leibniz brackets, and the extended CBH series.

Exact structure-constant arithmetic, the catalog of division and
composition Z2-graded algebras, machine verification of the bracket
identities, a symbolic engine for the combined-exponential series, and a
numeric block-matrix model for tangent-space experiments.
"""

from .algebra import (
    AlgebraDef,
    AlgebraError,
    AlgebraFormatError,
    AlgebraMismatch,
    Element,
    NoUnit,
    NonEvenUnit,
    NotInvertible,
    OddOddNonzero,
    ParityViolation,
    ScalarKindMismatch,
    Z2Algebra,
    graded_norm,
    is_alternative,
    is_associative,
    load_algebra,
    save_algebra,
    validate_z2,
)
from .bch import (
    BracketTerm,
    InconsistentSystem,
    Series,
    angle_term,
    bracket_basis_fit,
    bracket_expand,
    classical_bch,
    compare_printed_series,
    extended_bch,
    gen,
    printed_series_terms,
    square_term,
)
from .blockmodel import (
    BlockMatElement,
    BlockShape,
    LogOutOfDomain,
    XiGroupSample,
    bch_residual,
    block_matrix_algebra,
    correspondence_roundtrip,
    mat_exp,
    mat_log,
    tangent_basis,
    xi_closure_check,
)
from .brackets import (
    SubalgebraBasis,
    angle,
    generate_subalgebra,
    square,
    verify_identities,
)
from .catalog import (
    CATALOG_NAMES,
    CatalogName,
    IllegalName,
    NotClosed,
    catalog_algebra,
    composition_check,
    division_check,
    subalgebra_restrict,
)
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"
