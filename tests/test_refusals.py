"""Input refusals that no other test reaches, each with its exact error."""

import numpy as np
import pytest

from equipart.atlas import AtlasQuery
from equipart.certify import check, find_min_certified_d, verify_pki_ortho
from equipart.exceptions import ConfigurationError, FamilyDomainError, RangeError, ShapeError
from equipart.families import cascade_family, full_ortho_family, last_ortho_family
from equipart.masses import HyperplaneParam, SampledMass, load_mass_spec, sample_gaussian_mixture
from equipart.problems import ConstraintProblem, ramos_L
from equipart.solver import residuals

K1 = ConstraintProblem.of(1, m=(1,))
LINE = HyperplaneParam.of([1.0, 0.0], 0.0)


def _mass(label, d=2):
    return SampledMass(np.eye(3, d), np.ones(3), label)


REFUSALS = {
    "check-mode": (
        lambda: check(K1, 1, "loose"),
        ConfigurationError, "mode must be one of ('strict', 'relaxed'), got 'loose'",
    ),
    "min-d-mode": (
        lambda: find_min_certified_d(K1, 3, "loose"),
        ConfigurationError, "mode must be one of ('strict', 'relaxed'), got 'loose'",
    ),
    "pki-ortho-index": (
        lambda: verify_pki_ortho(3, 0, 3),
        RangeError, "need 1 <= i <= k, got i=0, k=3",
    ),
    "family-negative-q": (
        lambda: cascade_family(q=-1, t=1, k=2),
        FamilyDomainError, "q must be >= 0, got -1",
    ),
    "family-a-length": (
        lambda: cascade_family(q=1, t=1, k=3, a=(0, 0)),
        FamilyDomainError, "a must have length k=3, got (0, 0)",
    ),
    "family-a-negative": (
        lambda: cascade_family(q=1, t=1, k=3, a=(0, -1, 0)),
        FamilyDomainError, "a entries must be non-negative, got (0, -1, 0)",
    ),
    "ortho-full-k": (
        lambda: full_ortho_family(q=1, t=2, k=1),
        FamilyDomainError, "orthogonality needs k >= 2, got 1",
    ),
    "ortho-last-k": (
        lambda: last_ortho_family(q=1, t=1, k=2),
        FamilyDomainError, "this family needs k >= 3, got 2",
    ),
    "plane-shape": (
        lambda: HyperplaneParam(np.array([1.0])),
        ShapeError, "hyperplane parameter must be a vector in R^(d+1), d >= 1",
    ),
    "plane-non-finite": (
        lambda: HyperplaneParam(np.array([np.nan, 1.0])),
        RangeError, "hyperplane parameter has non-finite entries: array([nan,  1.])",
    ),
    "mass-no-points": (
        lambda: SampledMass(np.zeros((0, 2)), np.zeros(0), "1.1"),
        ShapeError, "points must be a non-empty (N, d) array",
    ),
    "covariance-shape": (
        lambda: sample_gaussian_mixture([{"mean": [0, 0], "cov": [[1, 0, 0]]}], 5, seed=0),
        ConfigurationError, "covariance must be 2x2, got shape (1, 3)",
    ),
    "means-mixed-dimension": (
        lambda: sample_gaussian_mixture([{"mean": [0, 0]}, {"mean": [0]}], 5, seed=0),
        ConfigurationError, "all component means must share a dimension",
    ),
    "spec-d-mismatch": (
        lambda: load_mass_spec({"d": 3, "masses": [{"mixture": [{"mean": [0, 0]}], "N": 5}]}, 0),
        ConfigurationError, "mass '1.1' lives in R^2, spec says d=3",
    ),
    "duplicate-label": (
        lambda: residuals(K1, [_mass("1.1"), _mass("1.1")], [LINE]),
        ConfigurationError, "duplicate mass label '1.1'",
    ),
    "masses-mixed-dimension": (
        lambda: residuals(ConstraintProblem.of(1, m=(2,)), [_mass("1.1"), _mass("1.2", 3)], [LINE]),
        ShapeError, "masses live in different dimensions: [2, 3]",
    ),
    "containment-hyperplane": (
        lambda: residuals(ConstraintProblem.of(1, m=(1,), a=(1,)), [_mass("1.1")], [LINE],
                          [(2, [0.0, 0.0])]),
        ConfigurationError, "containment point for hyperplane 2 out of range",
    ),
    "containment-point-dimension": (
        lambda: residuals(ConstraintProblem.of(1, m=(1,), a=(1,)), [_mass("1.1")], [LINE],
                          [(1, [0.0, 0.0, 0.0])]),
        ShapeError, "containment point [0. 0. 0.] is not in R^2",
    ),
    "planes-mixed-dimension": (
        lambda: residuals(ConstraintProblem.of(2, m=(1,)), [_mass("1.1")],
                          [LINE, HyperplaneParam.of([1.0, 0.0, 0.0], 0.0)]),
        ShapeError, "hyperplanes live in different dimensions",
    ),
    "unknown-universe": (
        lambda: AtlasQuery(k=2, d_range=(2, 2), ortho_universe="none").universe_pairs(),
        ConfigurationError,
        "unknown ortho universe 'none'; expected one of ['all', 'last', 'not12'] "
        "or an explicit pair set",
    ),
    "ramos-L-k-small": (lambda: ramos_L(1, 0), RangeError, "ramos_L requires k >= 1, got 0"),
    "ramos-L-k-large": (
        lambda: ramos_L(1, 1025), RangeError, "ramos_L requires k <= 1024, got 1025"
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
