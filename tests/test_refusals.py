"""Input refusals that no other test reaches, each with its exact error."""

import numpy as np
import pytest

from equipart.atlas import AtlasQuery
from equipart.certify import check, find_min_certified_d, verify_pki_ortho
from equipart.exceptions import (
    ConfigurationError,
    EquipartError,
    FamilyDomainError,
    RangeError,
    ShapeError,
)
from equipart.families import cascade_family, full_ortho_family, last_ortho_family
from equipart.gf2 import RingShape
from equipart.masses import HyperplaneParam, SampledMass, load_mass_spec, sample_gaussian_mixture
from equipart.problems import ConstraintProblem, classify, ramos_L, upper_U
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
        lambda: AtlasQuery(k=2, d_range=(2, 2), ortho_universe="none"),
        ConfigurationError,
        "unknown ortho universe 'none'; expected one of ['all', 'last', 'not12'] "
        "or an explicit pair set",
    ),
    "ramos-L-k-small": (lambda: ramos_L(1, 0), RangeError, "ramos_L requires k >= 1, got 0"),
    "ramos-L-k-large": (
        lambda: ramos_L(1, 1025), RangeError, "ramos_L requires k <= 1024, got 1025"
    ),
    # the counting functions and the family generators take integers only:
    # a float used to be counted, a bool echoed as true
    "classify-float-d": (
        lambda: classify(ConstraintProblem.of(2, m=(1,)), 2.5),
        RangeError, "d must be an integer, got 2.5",
    ),
    "ramos-L-float-m": (lambda: ramos_L(1.5, 2), RangeError, "m must be an integer, got 1.5"),
    "upper-U-float-m": (lambda: upper_U(2.5, 2), RangeError, "m must be an integer, got 2.5"),
    "upper-U-bool-k": (lambda: upper_U(1, True), RangeError, "k must be an integer, got True"),
    "family-bool-q": (
        lambda: cascade_family(True, 1, 2), FamilyDomainError, "q must be an integer, got True"
    ),
    "family-float-q": (
        lambda: cascade_family(1.5, 1, 2), FamilyDomainError, "q must be an integer, got 1.5"
    ),
    "family-float-t": (
        lambda: full_ortho_family(1, 2.0, 3), FamilyDomainError, "t must be an integer, got 2.0"
    ),
    "family-float-a": (
        lambda: cascade_family(1, 1, 2, a=(0.5, 0)),
        FamilyDomainError, "a[0] must be an integer, got 0.5",
    ),
    "min-d-float-d-max": (
        lambda: find_min_certified_d(K1, 4.5), RangeError, "d_max must be an integer, got 4.5"
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# Each input object checks its own fields when it is built, naming the field:
# a bool or a float is refused there instead of being truncated, counted or
# echoed further on.
CONSTRUCTION_REFUSALS = {
    "problem-k-bool": (
        lambda: ConstraintProblem(k=True, m=(1,), a=(0,)), "k must be an integer, got True"
    ),
    "problem-m-float": (
        lambda: ConstraintProblem(k=2, m=(1.5, 0), a=(0, 0)), "m[0] must be an integer, got 1.5"
    ),
    "problem-m-bool": (
        lambda: ConstraintProblem(k=2, m=(True, 0), a=(0, 0)), "m[0] must be an integer, got True"
    ),
    "problem-a-float": (
        lambda: ConstraintProblem(k=2, m=(1, 0), a=(0, 1.5)), "a[1] must be an integer, got 1.5"
    ),
    "problem-pair-bool": (
        lambda: ConstraintProblem(k=2, m=(1, 0), a=(0, 0), ortho=[(True, 2)]),
        "ortho[0][0] must be an integer, got True",
    ),
    "problem-extra-bool": (
        lambda: ConstraintProblem(k=2, m=(1, 0), a=(0, 0), extra=[(True, False)]),
        "extra[0][0] must be an integer, got True",
    ),
    "of-k-bool": (lambda: ConstraintProblem.of(True, m=(1,)), "k must be an integer, got True"),
    "of-k-float": (lambda: ConstraintProblem.of(1.5, m=(1,)), "k must be an integer, got 1.5"),
    "of-m-float": (lambda: ConstraintProblem.of(2, m=(1.5,)), "m[0] must be an integer, got 1.5"),
    "of-m-text": (lambda: ConstraintProblem.of(2, m=("1",)), "m[0] must be an integer, got '1'"),
    "of-a-bool": (
        lambda: ConstraintProblem.of(2, a=(0, True)), "a[1] must be an integer, got True"
    ),
    "of-pair-float": (
        lambda: ConstraintProblem.of(2, ortho=[(1.9, 2.2)]),
        "ortho[0][0] must be an integer, got 1.9",
    ),
    "of-pair-text": (
        lambda: ConstraintProblem.of(2, ortho=[(1, "2")]), "ortho[0][1] must be an integer, got '2'"
    ),
    "of-extra-float": (
        lambda: ConstraintProblem.of(2, m=(1,), extra=[(1, 1.0)]),
        "extra[0][1] must be an integer, got 1.0",
    ),
    "ring-k-bool": (lambda: RingShape(True, 2), "k must be a positive integer, got True"),
    "ring-d-bool": (lambda: RingShape(2, False), "d must be a non-negative integer, got False"),
    "check-d-bool": (  # d reaches the ring, which is built before any form
        lambda: check(ConstraintProblem.of(2, m=(0, 1)), True, "relaxed"),
        "d must be a non-negative integer, got True",
    ),
}
QUERY = {"k": 2, "d_range": (2, 2)}
WRONG_TYPES = {
    "k": (True, "k must be an integer, got True"),
    "d_range": (5, "d_range must be a JSON array, got 5"),
    "mode": (1, "mode must be a string, got 1"),
    "max_m": (1.5, "max_m must be an integer, got 1.5"),
    "max_a": (True, "max_a must be an integer, got True"),
    "allow_affine": ("no", "allow_affine must be true or false, got 'no'"),
    "ortho_universe": (5, "ortho_universe must be a string, got 5"),
    "require_optimal": ("no", "require_optimal must be true or false, got 'no'"),
    "require_maximal_j": (1.5, "require_maximal_j must be an integer, got 1.5"),
    "require_balanced": (1, "require_balanced must be true or false, got 1"),
    "candidate_limit": (2.0e6, "candidate_limit must be an integer, got 2000000.0"),
}
for name, (value, message) in WRONG_TYPES.items():
    CONSTRUCTION_REFUSALS[f"query-{name}"] = (
        lambda name=name, value=value: AtlasQuery(**{**QUERY, name: value}), message
    )
CONSTRUCTION_REFUSALS.update({
    "query-k-float": (lambda: AtlasQuery(k=2.0, d_range=(2, 2)), "k must be an integer, got 2.0"),
    "query-d-range-float": (
        lambda: AtlasQuery(k=2, d_range=(2.0, 2)), "d_range[0] must be an integer, got 2.0"
    ),
    "query-d-range-bool": (
        lambda: AtlasQuery(k=2, d_range=(True, 2)), "d_range[0] must be an integer, got True"
    ),
    "query-d-range-length": (
        lambda: AtlasQuery(k=2, d_range=(2,)), "d_range must be [lo, hi], got (2,)"
    ),
    "query-pair-float": (
        lambda: AtlasQuery(k=2, d_range=(2, 2), ortho_universe={(1, 2.0)}),
        "ortho_universe[0][1] must be an integer, got 2.0",
    ),
    "query-bad-d-range": (lambda: AtlasQuery(k=2, d_range=(3, 2)), "bad d range (3, 2)"),
    "query-bad-mode": (lambda: AtlasQuery(**QUERY, mode="loose"), "bad mode 'loose'"),
    "query-bad-k": (lambda: AtlasQuery(k=0, d_range=(2, 2)), "k must be >= 1, got 0"),
    "query-affine-unread": (
        lambda: AtlasQuery(**QUERY, max_a=1, allow_affine=False),
        "max_a=1 needs allow_affine; without it every a is 0",
    ),
})


@pytest.mark.parametrize("name", CONSTRUCTION_REFUSALS)
def test_inputs_are_refused_where_they_are_built(name):
    build, message = CONSTRUCTION_REFUSALS[name]
    with pytest.raises(EquipartError) as info:
        build()
    assert str(info.value) == message
    # the problem and the ring refuse a value as out of range, a query as
    # misconfigured, and both name the field
    expected = ConfigurationError if name.startswith("query-") else RangeError
    assert type(info.value) is expected


def test_numpy_integers_are_stored_as_ints():
    p = ConstraintProblem.of(np.int64(2), m=np.array([1, 2]), ortho=np.array([[1, 2]]))
    assert p == ConstraintProblem.of(2, m=(1, 2), ortho=[(1, 2)])
    assert {type(x) for x in (p.k, *p.m, *p.a, *next(iter(p.ortho)))} == {int}
    direct = ConstraintProblem(k=2, m=[np.int32(1), 2], a=(0, 0), extra=[np.array([1, 1])])
    assert direct.m == (1, 2) and direct.extra == ((1, 1),)
    assert type(direct.m[0]) is int and type(direct.extra[0][0]) is int


@pytest.mark.parametrize("universe", [
    "last", [[1, 2], [2, 3]], [(1, 2), (2, 3)], ((1, 2), (2, 3)), {(1, 2), (2, 3)},
    frozenset({(1, 2), (2, 3)}),
])
def test_a_universe_is_a_name_or_any_collection_of_pairs(universe):
    query = AtlasQuery(k=3, d_range=(2, 2), ortho_universe=universe)
    if universe == "last":
        assert query.ortho_universe == "last"
        assert query.universe_pairs() == ((1, 3), (2, 3))
    else:
        assert query.ortho_universe == frozenset({(1, 2), (2, 3)})
        assert query.universe_pairs() == ((1, 2), (2, 3))
    assert AtlasQuery(k=3, d_range=(2, 2), ortho_universe=frozenset()).universe_pairs() == ()
