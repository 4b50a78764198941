"""Exact construction and certification of Anosov automorphisms on
rational nilpotent Lie algebras via Galois-compatible rational forms."""

from .anosov import AnosovCertificate, certify, check_type_constraints, is_integer_like
from .exactmath import (
    Interval,
    Polynomial,
    Rational,
    RationalMatrix,
    charpoly,
    count_roots_inside_unit_disk,
    count_roots_on_unit_circle,
    nullspace,
    poly_gcd,
    sturm_count,
)
from .galoisform import (
    LabeledAlgebra,
    RationalFormBasis,
    Representation,
    build_labeled_algebra,
    extend_representation,
    main2_construct,
    rational_form,
    rational_form_from_vectors,
    right_action,
    structure_constants_on_form,
    transport,
    verify_representation,
)
from .liealg import (
    Grading,
    LieAlgebra,
    check_grading,
    check_jacobi,
    direct_sum,
    is_automorphism,
)
from .numfield import (
    FieldElement,
    GaloisDatum,
    apply_automorphism,
    biquadratic_datum,
    conjugate_modulus_interval,
    is_algebraic_unit,
    minimal_polynomial,
    verify_galois_datum,
)
from .pfaffian import (
    BinaryQuadraticForm,
    PellSolution,
    SkewMap,
    classify_type42,
    dual_automorphism,
    j_map,
    pell_automorphism,
    pfaffian,
    pfaffian_form,
    scheuneman_dual,
    solve_pell,
)
from .pisot import (
    ConeConstraint,
    check_full_rank_condition,
    is_unit_pisot,
    search_unit_pisot,
    search_units,
)
from .recipes import (
    RecipeOutput,
    recipe_count,
    recipe_csig,
    recipe_csig_default,
    recipe_last,
    recipe_laur,
    recipe_z4_example,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
