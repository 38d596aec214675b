"""symlab: exact symmetry analysis for parametrized families of
finite-dimensional algebras and for four-line configurations in the plane."""

from .fields import (
    ExtensionField,
    Field,
    FieldElement,
    FieldError,
    GF,
    PrimeField,
    QQ,
    RationalField,
    parse_field_spec,
    primitive_cube_root,
    rationals_with_cube_root,
)
from .poly import (
    FunctionField,
    MultiPoly,
    Pole,
    RationalFunction,
    UniPoly,
)
from .linalg import Matrix, laplace_det
from .quotient import (
    AlgebraElement,
    AlgebraHom,
    AutDescription,
    MonogenicAlgebra,
    SubstitutionMap,
    aut_description,
    brute_force_automorphisms,
    idempotents,
    vandermonde_adjugate,
    vandermonde_pair,
)
from .chi import Chi, all_chis, no_s3_check, order_class
from .families import (
    InternalInconsistencyError,
    PoleAt,
    RootFamily,
    SurvivalCondition,
    SurvivalReport,
    Survives,
    analyze_at,
    conjugate_through_iso,
    perm_coeff_vector,
    specialize_scaled,
    survival_condition,
    surviving_subgroup,
)
from .structure import (
    AutPair,
    LinearAlgebraMap,
    StructureConstAlgebra,
    algebra_from_json,
    build_T,
    compose_pair,
    limit_map_at_zero,
    transport_aut,
)
from .lines import (
    Config4,
    Isometry,
    Line,
    design_isometries,
    generic_symmetry,
    pair_relation,
    pivot_family,
    sweep,
)
from .parse import ParseError, parse_cycles, parse_ratfunc

__all__ = [name for name in dir() if not name.startswith("_")]
