from equipart import knownvalues
from equipart.certify import check, find_min_certified_d
from equipart.problems import (
    ConstraintProblem,
    all_pairs,
    constraint_dimension,
    last_orthogonal,
    lower_bound_dim,
)


def test_lookup_hits():
    kv = knownvalues.lookup(ConstraintProblem.of(3, m=(1, 1, 2)))
    assert kv is not None and kv.exact and kv.hi == 4

    kv = knownvalues.lookup(ConstraintProblem.of(1, m=(5,)))
    assert kv.hi == 5 and "Ham Sandwich" in kv.provenance

    kv = knownvalues.lookup(ConstraintProblem.of(3, m=(3,), ortho=all_pairs(3)))
    assert (kv.lo, kv.hi) == (8, 9) and not kv.exact

    kv = knownvalues.lookup(
        ConstraintProblem.of(3, m=(2, 2, 2), ortho=last_orthogonal(3))
    )
    assert kv.exact and kv.hi == 8


def test_lookup_miss():
    assert knownvalues.lookup(ConstraintProblem.of(4, m=(1,))) is None


def test_no_problem_is_listed_twice():
    problems = [kv.problem for kv in knownvalues._build()]
    assert len(problems) == len(set(problems)) == len(knownvalues.entries())


def test_lookup_ignores_ortho_listing_order():
    a = ConstraintProblem.of(3, m=(1, 1, 0), ortho=[(2, 3), (1, 3)])
    assert knownvalues.lookup(a) is not None


def test_entries_have_provenance_and_consistent_intervals():
    for kv in knownvalues.entries():
        assert kv.provenance
        assert kv.lo <= kv.hi
        # no entry may claim an upper bound below what counting forces
        forced = -(-constraint_dimension(kv.problem) // kv.problem.k)
        assert kv.hi >= forced


def test_lower_ends_respect_the_counting_bound():
    for kv in knownvalues.entries():
        assert kv.lo >= lower_bound_dim(kv.problem), kv.problem.describe()


def test_table_has_reasonable_coverage():
    assert len(knownvalues.entries()) >= 40


def test_strict_certificate_entries_recertify_at_hi():
    # an entry whose instance is weaker than its tight family instance (a
    # lowered cascade entry) holds by domination, a relaxed certificate
    recertified = 0
    for kv in knownvalues.entries():
        if not kv.provenance.startswith("strict certificate"):
            continue
        tight = constraint_dimension(kv.problem) == kv.problem.k * kv.hi
        cert = check(kv.problem, kv.hi, "strict" if tight else "relaxed")
        assert cert.certified, kv.problem.describe()
        recertified += 1
    assert recertified >= 25


def test_min_certified_d_never_below_lo():
    for kv in knownvalues.entries():
        found = find_min_certified_d(kv.problem, kv.hi, "relaxed")
        assert found is None or found[0] >= kv.lo, kv.problem.describe()
