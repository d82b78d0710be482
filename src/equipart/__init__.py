"""Certified constrained hyperplane mass-equipartition.

Decides whether k hyperplanes in R^d can simultaneously equipartition
cascaded families of masses under orthogonality and flat-containment
constraints (exact GF(2) certificates), computes counting bounds and
quality labels, enumerates tight instances, and numerically constructs
witness arrangements for sampled masses.
"""

from .certify import (
    Certificate,
    check,
    find_min_certified_d,
    transfer_by_domination,
    verify_dickson,
    verify_pki_ortho,
    verify_vandermonde,
)
from .exceptions import EquipartError
from .families import (
    FAMILIES,
    FamilyInstance,
    cascade_family,
    full_ortho_family,
    ham_sandwich_cascade,
    last_ortho_family,
    near_full_ortho_family,
)
from .gf2 import RingShape, TruncatedPolynomial, product_of_forms
from .masses import HyperplaneParam, SampledMass, region_masses, sample_gaussian_mixture
from .problems import (
    Classification,
    ConstraintProblem,
    all_pairs,
    classify,
    compile_forms,
    constraint_dimension,
    dominates,
    excluding_first_pair,
    last_orthogonal,
    lower_bound_dim,
    ramos_L,
    upper_U,
)
from .solver import MassArrangementWitness, SolverConfig, residuals, solve

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Classification",
    "ConstraintProblem",
    "EquipartError",
    "FAMILIES",
    "FamilyInstance",
    "HyperplaneParam",
    "MassArrangementWitness",
    "RingShape",
    "SampledMass",
    "SolverConfig",
    "TruncatedPolynomial",
    "all_pairs",
    "cascade_family",
    "check",
    "classify",
    "compile_forms",
    "constraint_dimension",
    "dominates",
    "excluding_first_pair",
    "find_min_certified_d",
    "full_ortho_family",
    "ham_sandwich_cascade",
    "last_ortho_family",
    "last_orthogonal",
    "lower_bound_dim",
    "near_full_ortho_family",
    "product_of_forms",
    "ramos_L",
    "region_masses",
    "residuals",
    "sample_gaussian_mixture",
    "solve",
    "transfer_by_domination",
    "upper_U",
    "verify_dickson",
    "verify_pki_ortho",
    "verify_vandermonde",
]
