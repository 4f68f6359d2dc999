"""Differential invariants and invariant PDE templates for prescribed
low-dimensional Lie symmetry groups, with randomized numeric verification.
"""

from .errors import (
    CatalogError,
    EigenvalueUnsupported,
    JacobiViolation,
    LieInvError,
    NotHomogeneous,
    NotRescaleInvariant,
    OrderOverflow,
    ParseError,
    ResidualDependence,
    SingularEvaluation,
    UnboundSymbol,
    UnknownIdentifier,
    Unsampleable,
    UnsupportedOperation,
    VerificationFailed,
)
from .expr import Expr, Symbol, diff, parse, render, simplify_basic, substitute
from .jet import JetSpace, ProlongedField, VectorField, prolong2, total_derivative
from .liealg import (
    CATALOG_NAMES,
    StructureConstants,
    build_invariant_fields,
    catalog_lookup,
    load_algebra,
    verify_realization,
)
from .numeric import SamplerConfig, equivalence_check, functional_rank, is_zero
from .covariant import (
    CovariantPDE,
    ScalarPDE,
    from_covariant,
    parse_pde,
    to_covariant,
)
from .invariants import (
    InvariantSet,
    PDETemplate,
    instantiate_template,
    type1_pipeline,
    type2_pipeline,
)
from .verify import Report, annihilation_check, run_fixture_suite

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "CatalogError",
    "CovariantPDE",
    "EigenvalueUnsupported",
    "Expr",
    "InvariantSet",
    "JacobiViolation",
    "JetSpace",
    "LieInvError",
    "NotHomogeneous",
    "NotRescaleInvariant",
    "OrderOverflow",
    "PDETemplate",
    "ParseError",
    "ProlongedField",
    "Report",
    "ResidualDependence",
    "SamplerConfig",
    "ScalarPDE",
    "SingularEvaluation",
    "StructureConstants",
    "Symbol",
    "UnboundSymbol",
    "UnknownIdentifier",
    "Unsampleable",
    "UnsupportedOperation",
    "VectorField",
    "VerificationFailed",
    "annihilation_check",
    "build_invariant_fields",
    "catalog_lookup",
    "diff",
    "equivalence_check",
    "from_covariant",
    "functional_rank",
    "instantiate_template",
    "is_zero",
    "load_algebra",
    "parse",
    "parse_pde",
    "prolong2",
    "render",
    "run_fixture_suite",
    "simplify_basic",
    "substitute",
    "to_covariant",
    "total_derivative",
    "type1_pipeline",
    "type2_pipeline",
    "verify_realization",
]
