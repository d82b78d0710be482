import json
from itertools import product

import pytest

from equipart import atlas
from equipart.atlas import AtlasQuery, emit_report, enumerate_rows
from equipart.certify import check
from equipart.exceptions import ConfigurationError, SearchSpaceError
from equipart.problems import ConstraintProblem, all_pairs


def keys(rows):
    return {(r.problem, r.d) for r in rows}


def test_k2_d2_contains_expected_rows():
    q = AtlasQuery(
        k=2, d_range=(2, 2), mode="strict", max_m=3, max_a=2,
        allow_affine=True, ortho_universe="all",
    )
    rows = list(enumerate_rows(q))
    by_key = {r.problem: r for r in rows}
    star = ConstraintProblem.of(2, m=(1, 1))
    assert star in by_key
    label = by_key[star].classification
    assert label.optimal and label.j_maximal == 2 and label.tight
    assert ConstraintProblem.of(2, m=(1, 0), a=(0, 1)) in by_key


def test_k3_d4_reproduces_catalog_rows():
    q = AtlasQuery(k=3, d_range=(4, 4), mode="strict", max_m=2, ortho_universe="all")
    found = {r.problem for r in enumerate_rows(q)}
    assert ConstraintProblem.of(3, m=(1, 1, 2)) in found
    assert ConstraintProblem.of(3, m=(1, 1, 1), ortho=[(2, 3)]) in found
    assert ConstraintProblem.of(3, m=(1, 1, 0), ortho=[(1, 3), (2, 3)]) in found


def test_optimal_filter_limits_first_stage():
    q = AtlasQuery(
        k=3, d_range=(4, 4), mode="strict", max_m=2,
        ortho_universe="all", require_optimal=True,
    )
    rows = list(enumerate_rows(q))
    assert rows and all(r.problem.m[0] == 1 for r in rows)


def test_maximal_and_balanced_filters():
    # each filter drops exactly the rows whose labels fail it: relaxed k=2
    # rows include some with j_maximal 0 and some unbalanced ones
    base = dict(k=2, d_range=(2, 4), mode="relaxed", max_m=3)
    every = list(enumerate_rows(AtlasQuery(**base)))
    for key, keep, count in (
        ({"require_maximal_j": 1}, lambda c: c.j_maximal >= 1, 10),
        ({"require_balanced": True}, lambda c: c.balanced, 37),
    ):
        rows = list(enumerate_rows(AtlasQuery(**base, **key)))
        assert len(every) == 43 and len(rows) == count
        assert emit_report(rows) == emit_report(r for r in every if keep(r.classification))


def test_rows_recheck_and_dedup():
    q = AtlasQuery(k=2, d_range=(2, 3), mode="strict", max_m=2, ortho_universe="all")
    rows = list(enumerate_rows(q))
    assert len(keys(rows)) == len(rows)
    for r in rows:
        again = check(r.problem, r.d, r.certificate.mode)
        assert again.certified and again.h_digest == r.certificate.h_digest
        # certificate field invariants hold on every emitted row
        assert r.certificate.h_is_top and not r.certificate.h_is_zero
        assert r.certificate.tight and r.certificate.form_count == r.certificate.kd


@pytest.mark.parametrize(
    "universe", ["all", frozenset({(1, 3), (2, 3)}), [(1, 2), (1, 2), (2, 3)]]
)
def test_relaxed_rows_are_unique(universe):
    # every candidate is yielded once, so no row repeats without any
    # de-duplication, also for a universe that lists a pair twice
    q = AtlasQuery(k=3, d_range=(2, 4), mode="relaxed", max_m=2, ortho_universe=universe)
    rows = [(r.problem, r.d) for r in enumerate_rows(q)]
    assert len(rows) > 50 and len(set(rows)) == len(rows)


def test_matches_brute_force_small_box():
    q = AtlasQuery(
        k=2, d_range=(2, 3), mode="strict", max_m=4, max_a=2,
        allow_affine=True, ortho_universe="all",
    )
    rows = list(enumerate_rows(q))
    brute = set()
    for d in (2, 3):
        for m in product(range(5), repeat=2):
            for a in product(range(3), repeat=2):
                for o in ((), ((1, 2),)):
                    p = ConstraintProblem.of(2, m=m, a=a, ortho=o)
                    try:
                        cert = check(p, d, "strict")
                    except Exception:
                        continue
                    if cert.certified:
                        brute.add((p, d))
    assert keys(rows) == brute


def test_relaxed_mode_is_superset_of_strict():
    strict = AtlasQuery(k=2, d_range=(3, 3), mode="strict", max_m=3, ortho_universe="all")
    relaxed = AtlasQuery(k=2, d_range=(3, 3), mode="relaxed", max_m=3, ortho_universe="all")
    assert keys(enumerate_rows(strict)) <= keys(enumerate_rows(relaxed))


def test_deterministic_order_and_reports():
    q = AtlasQuery(k=2, d_range=(2, 3), mode="strict", max_m=3, ortho_universe="all")
    rows1 = list(enumerate_rows(q))
    rows2 = list(enumerate_rows(q))
    order = [(r.d, r.problem.m, r.problem.a, r.problem.sorted_ortho()) for r in rows1]
    assert order == sorted(order)
    for fmt in ("json", "csv", "markdown"):
        assert emit_report(rows1, fmt) == emit_report(rows2, fmt)


def test_report_formats():
    q = AtlasQuery(k=2, d_range=(2, 2), mode="strict", max_m=1, ortho_universe="all")
    rows = list(enumerate_rows(q))
    doc = json.loads(emit_report(rows, "json"))
    assert doc["schema_version"] == 1 and len(doc["rows"]) == len(rows)
    csv_doc = emit_report(rows, "csv")
    assert csv_doc.splitlines()[0].startswith("k,d,m,a,ortho,extra,D,kd,mode,verdict")
    md = emit_report(rows, "markdown")
    assert md.startswith("| k | d |")
    assert emit_report([], "csv").count("\n") == 1  # header only
    with pytest.raises(ConfigurationError):
        emit_report(rows, "yaml")


def test_known_reference_attached():
    q = AtlasQuery(k=3, d_range=(4, 4), mode="strict", max_m=2, ortho_universe="all")
    by_key = {r.problem: r for r in enumerate_rows(q)}
    row = by_key[ConstraintProblem.of(3, m=(1, 1, 2))]
    assert row.known is not None and row.known_ref() == "=4"


def test_known_interval_reference():
    # an inexact reference prints as its interval [lo,hi]
    q = AtlasQuery(k=4, d_range=(8, 8), mode="relaxed", max_m=1)
    by_key = {r.problem: r for r in enumerate_rows(q)}
    row = by_key[ConstraintProblem.of(4, m=(1,), ortho=all_pairs(4))]
    assert not row.known.exact and row.known_ref() == "[6,8]"


def test_search_space_refusal():
    q = AtlasQuery(
        k=3, d_range=(2, 40), mode="strict", max_m=9, max_a=9,
        allow_affine=True, ortho_universe="all", candidate_limit=10_000,
    )
    with pytest.raises(SearchSpaceError) as err:
        list(enumerate_rows(q))
    assert err.value.estimate > 10_000
    # past 64 bits the count is named by its size only
    q = AtlasQuery(k=10, d_range=(2, 2), max_m=10**6)
    with pytest.raises(SearchSpaceError, match=r"over 2\^244 candidates") as err:
        list(enumerate_rows(q))
    assert err.value.estimate is None
    with pytest.raises(ConfigurationError):  # a bad k is not a search-space refusal
        list(enumerate_rows(AtlasQuery(k=0, d_range=(2, 2))))


def test_negative_bounds_refused():
    # an empty box would print an empty report that reads as an answer
    for bounds in ({"max_m": -1}, {"max_a": -1}, {"max_a": -1, "allow_affine": True}):
        with pytest.raises(ConfigurationError, match="must be >= 0, got -1"):
            AtlasQuery(k=2, d_range=(2, 3), **bounds)
    with pytest.raises(ConfigurationError, match="max_m must be >= 0"):
        AtlasQuery.from_spec({"k": 2, "d_range": [2, 3], "max_m": -1})
    # a zero bound is a box of one point: only m = 0, which never certifies
    assert list(enumerate_rows(AtlasQuery(k=2, d_range=(2, 3), max_m=0))) == []


def test_parallel_enumeration_matches_sequential():
    q = AtlasQuery(
        k=2, d_range=(2, 3), mode="strict", max_m=4, max_a=2,
        allow_affine=True, ortho_universe="all",
    )
    # rows, their order and their certificates
    assert emit_report(enumerate_rows(q)) == emit_report(enumerate_rows(q, jobs=2))
    for jobs in (0, -1):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            list(enumerate_rows(q, jobs=jobs))


def test_a_wrapper_installed_in_place_of_check_sees_every_check(monkeypatch):
    # the benchmark's trace wraps atlas.check: a query must look it up when
    # it runs, and call it once per candidate
    calls = []
    monkeypatch.setattr(atlas, "check", lambda *args: calls.append(args) or check(*args))
    q = AtlasQuery(k=2, d_range=(2, 3), max_m=2)
    rows = list(enumerate_rows(q))
    assert rows and calls == [(p, d, "strict") for p, d in atlas._candidates(q)]


def test_custom_universe_and_no_ortho():
    q = AtlasQuery(k=3, d_range=(4, 4), mode="strict", max_m=2, ortho_universe=frozenset({(2, 3)}))
    found = keys(enumerate_rows(q))
    assert (ConstraintProblem.of(3, m=(1, 1, 1), ortho=[(2, 3)]), 4) in found
    # no orthogonality is the empty universe
    q2 = AtlasQuery(k=3, d_range=(4, 4), mode="strict", max_m=2, ortho_universe=())
    rows = list(enumerate_rows(q2))
    assert rows and all(not r.problem.ortho for r in rows)
