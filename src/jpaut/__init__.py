"""Exact-arithmetic toolkit for Jordan pairs, triple systems and algebras.

Constructs the classical matrix and bilinear-form families over small
commutative rings, applies their named automorphism and isomorphism families,
and determines full automorphism groups by exhaustive enumeration at small
sizes.  All arithmetic is exact: prime fields, the rationals, finite products
and dual numbers.
"""

from .errors import (
    ToolkitError, ParseError, BadInput, NonEnumerableRing, NotIdempotent,
    NotInvertible, ShapeMismatch, DegenerateForm, DegenerateTrace,
    IncompatibleRings, AxiomFailure, NoSquareRootOfMinusOne, BadDims,
    NotSimilitude, NotIsometry, NonFieldRing, NotFactorable, BudgetExceeded,
    MixedSystems, GradingViolation, UnknownClaim, EngineMismatch,
)
from .ring import (
    Ring, PrimeField, Rationals, ProductRing, DualNumbers, RingElement,
    parse_ring, idempotents, mu_n, component_inverse,
    find_sqrt_minus_one, embedding,
)
from .matrix import (
    Matrix, BilinearForm, standard_form, similitude_multiplier,
    enumerate_matrices, enumerate_GL, enumerate_GO, enumerate_O,
)
from .jordan import (
    JordanPair, JordanTriple, JordanAlgebra, PairMap, check_axioms,
    d_operator, q_operator, is_pair_automorphism, is_triple_automorphism,
    is_algebra_automorphism, is_pair_isomorphism, dual_inverse,
    triple_from_algebra, pair_from_triple, scalar_extend,
)
from .catalog import (
    NamedSystem, make_type_iv_pair, make_type_iv_triple,
    make_bilinear_form_algebra, make_t_iv, make_vti, make_vhi, make_tti,
    make_thi, make_mn_plus, make_bad_pair, extended_form,
    lambda_isomorphism, vti_to_vhi, parse_system,
)
from .autfam import (
    op_left, op_right, op_transpose, map_on_matrix, go_to_pair_aut,
    ortho_to_triple_aut, hat_l, hat_r, tilde_l, tilde_r, hat_generators,
    tilde_generators, transpose_twist, TwistedMap, mu2_plus_map,
    all_twisted_maps, det_similitude_factor, is_det_similitude, phi_n,
    phi_tau_action, phi_n_kernel_check, CentralProductElement,
    factor_triple_aut, tti_map, thi_map, tti_membership,
)
from .gradelie import (
    GradedGL, make_graded_gl, check_graded_lie, pair_from_grading,
)
from .oracle import (
    DEFAULT_BUDGET, AutomorphismSet, CompareReport, compare, gl_order,
    enumerate_automorphisms, generate_closure, family_image,
)
from .claims import run_claim, claim_ids, list_claims, standard_generated

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
