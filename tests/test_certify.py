import importlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipart import certify
from equipart.certify import (
    MODES,
    check,
    find_min_certified_d,
    transfer_by_domination,
    verify_dickson,
    verify_identities,
    verify_pki_ortho,
    verify_vandermonde,
)
from equipart.exceptions import (
    DimensionMismatchError,
    EquipartError,
    InfeasibleByCountingError,
    RangeError,
)
from equipart.families import cascade_family, last_ortho_family
from equipart.gf2 import RingShape, product_of_forms
from equipart.problems import (
    ConstraintProblem,
    all_pairs,
    compile_forms,
    constraint_dimension,
    lower_bound_dim,
)

PROP_74_STYLE = ConstraintProblem.of(
    4,
    m=(1, 0, 0, 0),
    a=(0, 0, 2, 3),
    ortho=all_pairs(4),
    extra=[
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    ],
)


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
def test_check_strict_cascade():
    cert = check(ConstraintProblem.of(3, m=(1, 1, 2)), 4, "strict")
    assert cert.certified and cert.h_is_top and cert.tight
    assert cert.form_count == 12 == cert.kd


def test_check_strict_fully_constrained_k4():
    cert = check(PROP_74_STYLE, 8, "strict")
    assert cert.certified and cert.tight and cert.form_count == 32


def test_check_strict_cascade_big_ring():
    # k=4, d=70: 280 forms in a ring of 71^4 (25.4M) cells
    inst = cascade_family(q=3, t=2, k=4)
    assert inst.d == 70
    cert = check(inst.problem, 70)
    assert cert.certified and cert.h_is_top and cert.form_count == 280


# h_digest values pinned for these ops in perfbench/expected.json, written
# out so that a change to the canonical JSON the digest hashes shows here
PINNED_DIGESTS = {
    "strict/cascade(q=3,t=2,k=4)": (
        ConstraintProblem.of(4, m=(14, 2, 10, 26)), 70, "strict",
        "10c1641cf078211402bc0ffafc7e34e101793ed7fea818a4a06f2cdf608c022d"),
    "relaxed-1/cascade(q=1,t=2,k=4)": (
        ConstraintProblem.of(4, m=(2, 2, 4, 7)), 16, "relaxed",
        "2df2ae3fd0c6c30e0d677b98e6b693486afd0398762a0b2e05c648187491ad5b"),
    # 54 terms; every relaxed-1 product is a single term
    "min-d/(m=(2, 1, 0, 0), O=all; k=4)/d_max=30": (
        ConstraintProblem.of(4, m=(2, 1), ortho=all_pairs(4)), 16, "relaxed",
        "87eff613066ededa4b51bc0e467fc53fb67ec34a29c3d8a0774ba3a981ca23f7"),
    "control/(m=(7, 2), O={(1,2)}; k=2)/d=12": (
        ConstraintProblem.of(2, m=(7, 2), ortho=[(1, 2)]), 12, "relaxed",
        "aba34c423d9cc66fbc40583a84365741e2413f1a280157030de3999e747a29b3"),
}


@pytest.mark.parametrize("op_id", sorted(PINNED_DIGESTS))
def test_pinned_digests(op_id):
    problem, d, mode, digest = PINNED_DIGESTS[op_id]
    assert check(problem, d, mode).h_digest == digest


def test_bench_tracing_finds_the_names_it_wraps(monkeypatch):
    # the traced bench runs outside this suite and wraps package names;
    # a renamed one would break it silently
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    with tracing.installed(tracing.SpanRecorder("t")) as recorder:
        check(ConstraintProblem.of(3, m=(1, 1, 2)), 4, "strict")
    spans = {s.name: s for s in recorder.spans}
    assert spans["gf2.product_of_forms"].attrs == {"zero": False}
    assert "gf2.digest" in spans
    assert RingShape(4, 70).cells == 71**4  # the pinned gf2.ring_cells reads (d+1)^k


def test_certify_workload_reproduces_every_pinned_output(monkeypatch):
    # every check, search and identity of the bench's certify workload
    # against the fingerprints pinned in perfbench/expected.json
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    expected = json.loads((bench / "expected.json").read_text())["ops"]
    ops = workloads.build_certify(0).ops
    assert len(ops) > 150 and all(op.pinned for op in ops)
    for op in ops:
        assert op.fingerprint(op.call()) == expected[op.id], op.id


def test_check_relaxed_negative_control():
    p = ConstraintProblem.of(3, m=(3,), ortho=all_pairs(3))
    cert = check(p, 9, "relaxed")
    assert not cert.certified and cert.h_is_zero


def test_check_errors():
    p = ConstraintProblem.of(2, m=(1, 1))  # C = 4
    with pytest.raises(DimensionMismatchError) as err:
        check(p, 3, "strict")  # kd = 6 != 4
    assert "D=4" in str(err.value) and "kd=6" in str(err.value)
    with pytest.raises(InfeasibleByCountingError):
        check(p, 1, "strict")  # kd = 2 < 4
    with pytest.raises(InfeasibleByCountingError):
        check(p, 1, "relaxed")
    with pytest.raises(RangeError):
        check(p, 0, "strict")
    # counting violations are also dimension mismatches in strict mode
    assert issubclass(InfeasibleByCountingError, DimensionMismatchError)


def test_certificate_json_shape():
    cert = check(ConstraintProblem.of(2, m=(1, 1)), 2)
    doc = cert.to_dict()
    assert set(doc) == {
        "problem",
        "d",
        "mode",
        "D",
        "kd",
        "verdict",
        "h_is_top",
        "h_is_zero",
        "h_digest",
        "tight",
        "derivation",
    }
    json.dumps(doc)


def test_strict_certified_implies_relaxed_certified():
    for inst in (cascade_family(0, 1, 2), cascade_family(1, 2, 3), last_ortho_family(0, 1, 3)):
        strict = check(inst.problem, inst.d, "strict")
        relaxed = check(inst.problem, inst.d, "relaxed")
        assert strict.certified and relaxed.certified
        assert strict.h_digest == relaxed.h_digest


def _assert_certificate_invariants(cert):
    if cert.h_is_top:
        assert not cert.h_is_zero
    if cert.mode == "strict" and cert.certified:
        assert cert.form_count == cert.kd and cert.h_is_top
    if cert.mode == "relaxed" and cert.certified:
        assert cert.form_count <= cert.kd and not cert.h_is_zero
    assert cert.tight == (cert.form_count == cert.kd)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
    st.integers(1, 8),
)
def test_one_sidedness_on_random_problems(k, m, d):
    p = ConstraintProblem.of(k, m=m[:k])
    c = constraint_dimension(p)
    if c == 0 or c > k * d:
        return
    relaxed = check(p, d, "relaxed")
    _assert_certificate_invariants(relaxed)
    if c == k * d:
        strict = check(p, d, "strict")
        _assert_certificate_invariants(strict)
        if strict.certified:
            assert relaxed.certified


def test_relaxed_monotone_in_d():
    # once certified, raising d only removes truncation
    p = ConstraintProblem.of(3, m=(1, 1, 2))
    assert check(p, 4, "relaxed").certified
    for d in (5, 6, 7):
        assert check(p, d, "relaxed").certified


def test_digest_independent_of_form_order():
    forms = compile_forms(PROP_74_STYLE)
    shape = RingShape(4, 8)
    reference = check(PROP_74_STYLE, 8, "strict").h_digest
    rng = np.random.default_rng(5)
    for _ in range(10):
        perm = rng.permutation(len(forms))
        h = product_of_forms(shape, [forms[i] for i in perm])
        assert h.digest() == reference


# ----------------------------------------------------------------------
# find_min_certified_d
# ----------------------------------------------------------------------
def test_find_min_strict_probes_only_tight_d():
    found = find_min_certified_d(ConstraintProblem.of(2, m=(1, 1)), 5, "strict")
    assert found is not None and found[0] == 2 and found[1].certified

    # C not divisible by k: strict has nothing to probe
    assert find_min_certified_d(ConstraintProblem.of(2, m=(1, 0)), 5, "strict") is None


def test_find_min_ham_sandwich():
    for m in (1, 3, 5):
        found = find_min_certified_d(ConstraintProblem.of(1, m=(m,)), 10, "strict")
        assert found is not None and found[0] == m


def test_find_min_relaxed_scan():
    # the full-orthogonality single-mass instance vanishes at its counting
    # bound d=4 but the product comes back nonzero at d=5
    p = ConstraintProblem.of(3, m=(1,), ortho=all_pairs(3))
    assert not check(p, 4, "relaxed").certified
    assert find_min_certified_d(p, 4, "relaxed") is None
    found = find_min_certified_d(p, 8, "relaxed")
    assert found is not None and found[0] == 5


def test_find_min_respects_d_max():
    assert find_min_certified_d(ConstraintProblem.of(2, m=(1, 1)), 1, "strict") is None


def test_find_min_at_the_ring_cap():
    # the one product is taken at d_max or at the cap's d, whichever is
    # smaller; k=2 allows d <= 8191 and k=5 allows d <= 35
    found = find_min_certified_d(ConstraintProblem.of(2, m=(1, 1)), 10**5000)
    assert found is not None and found[0] == 2
    found = find_min_certified_d(ConstraintProblem.of(5, m=(3,)), 1000)
    assert found is not None and found[0] == 33
    # the counting bound d=38 is already past the cap
    with pytest.raises(RangeError, match=re.escape("ring with k=5, d=38 ")):
        find_min_certified_d(ConstraintProblem.of(5, m=(6,)), 1000)
    with pytest.raises(RangeError) as err:
        check(ConstraintProblem.of(5, m=(3,)), 36, "relaxed")
    assert str(err.value) == "ring with k=5, d=36 has (d+1)^k = 2^26.0 cells, past the cap 2^26"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), max_size=4),
    st.booleans(),
    st.integers(0, 14),
    st.sampled_from(MODES),
)
def test_find_min_is_the_first_d_check_certifies(k, m, a, ortho, d_max, mode):
    # a scan of check from the counting bound up; strict mode refuses
    # every d but the tight one
    p = ConstraintProblem.of(
        k, m=m[:k], a=(a + [0] * k)[:k], ortho=all_pairs(k) if ortho else ()
    )
    first = None
    for d in range(max(lower_bound_dim(p), 1), d_max + 1):
        try:
            cert = check(p, d, mode)
        except DimensionMismatchError:
            continue
        if cert.certified:
            first = (d, cert)
            break
    assert find_min_certified_d(p, d_max, mode) == first


def test_find_min_multiplies_over_windows(monkeypatch):
    rings = []

    def product(shape, forms):
        rings.append(shape.d)
        return product_of_forms(shape, forms)

    monkeypatch.setattr(certify, "product_of_forms", product)
    # the window [4, 8] from the counting bound 4 finds a term at d=5
    p = ConstraintProblem.of(3, m=(1,), ortho=all_pairs(3))
    assert find_min_certified_d(p, 12)[0] == 5 and rings == [8]
    # the window [1, 2], not the 4^13-cell ring at d_max 3
    rings.clear()
    assert find_min_certified_d(ConstraintProblem.of(13, a=(1,) * 13), 3)[0] == 1
    assert rings == [2]


@pytest.mark.parametrize("d_max", [5.0, 4.5, "7", True])
def test_find_min_refuses_a_d_max_that_is_not_an_int(monkeypatch, d_max):
    # 5.0 and 4.5 once returned d = 2, "7" raised a bare TypeError and
    # True returned None; now each is refused before any product is taken
    products = []
    monkeypatch.setattr(certify, "product_of_forms", lambda *args: products.append(args))
    with pytest.raises(RangeError, match=re.escape(f"d_max must be an integer, got {d_max!r}")):
        find_min_certified_d(ConstraintProblem.of(2, m=(1, 1)), d_max)
    assert not products


def test_ring_refusals_come_before_the_forms_are_counted():
    # 2^21 - 1 distinct forms, whose counts would take seconds and hundreds
    # of MB to build: the ring at the counting bound d = 69906 is refused
    # first
    p = ConstraintProblem.of(30, m=[0] * 9 + [1])
    for call in (lambda: check(p, 69906, "relaxed"), lambda: find_min_certified_d(p, 10**6)):
        start = time.perf_counter()
        with pytest.raises(RangeError, match=re.escape("ring with k=30, d=69906 ")):
            call()
        assert time.perf_counter() - start < 0.1


# ----------------------------------------------------------------------
# domination transfer
# ----------------------------------------------------------------------
def test_transfer_by_domination():
    inst = cascade_family(0, 1, 4)  # m = (1,1,2,4) at d = 8
    strong = check(inst.problem, inst.d, "strict")
    weaker = ConstraintProblem.of(4, m=(1, 1, 2, 2))
    derived = transfer_by_domination(weaker, strong)
    assert derived.certified and derived.mode == "relaxed"
    assert derived.problem == weaker and derived.d == 8
    assert not derived.tight
    assert "domination" in derived.derivation
    assert derived.h_digest == strong.h_digest


def test_transfer_rejects_non_dominated():
    inst = cascade_family(0, 1, 2)
    strong = check(inst.problem, inst.d, "strict")
    with pytest.raises(EquipartError):
        transfer_by_domination(ConstraintProblem.of(2, m=(2, 0)), strong)


def test_transfer_rejects_inconclusive():
    p = ConstraintProblem.of(3, m=(3,), ortho=all_pairs(3))
    cert = check(p, 9, "relaxed")
    with pytest.raises(EquipartError):
        transfer_by_domination(ConstraintProblem.of(3, m=(1,)), cert)


# ----------------------------------------------------------------------
# identity verifiers
# ----------------------------------------------------------------------
def test_vandermonde_small():
    assert verify_vandermonde(2, 1, 2)
    assert verify_vandermonde(3, 1, 3)
    assert verify_vandermonde(4, 2, 4)
    with pytest.raises(RangeError):
        verify_vandermonde(3, 3, 5)
    with pytest.raises(RangeError):
        verify_vandermonde(3, 1, 1)


def test_dickson_small():
    assert verify_dickson(1, 1, 1)
    assert verify_dickson(2, 1, 2)
    assert verify_dickson(3, 1, 4)
    assert verify_dickson(3, 2, 2)
    with pytest.raises(RangeError):
        verify_dickson(3, 1, 3)


def test_pair_shift_small():
    assert verify_pki_ortho(2, 1, 2)
    assert verify_pki_ortho(3, 1, 3)
    assert verify_pki_ortho(4, 2, 4)


@pytest.mark.parametrize(
    "k, d, indices",
    [
        # (Vandermonde j, Dickson i, shifted Vandermonde i) whose
        # preconditions d >= k-j, d >= 2^(k-i) and d >= k-1 hold
        (1, 1, ([], [1], [1])),
        (4, 1, ([3], [4], [])),
        (4, 2, ([2, 3], [3, 4], [])),
        (4, 3, ([1, 2, 3], [3, 4], [1, 2, 3, 4])),
        (4, 8, ([1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4])),
    ],
)
def test_verify_identities_runs_each_identity_in_range(k, d, indices):
    results = verify_identities(k, d)
    keys = [[f"j={j}" for j in indices[0]], *[[f"i={i}" for i in ix] for ix in indices[1:]]]
    assert [list(results[name]) for name in ("vandermonde", "dickson", "pair_shift")] == keys
    assert all(v for group in results.values() for v in group.values())


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.data())
def test_identity_verifiers_random_box(k, data):
    j = data.draw(st.integers(1, k - 1))
    i = data.draw(st.integers(1, k))
    assert verify_vandermonde(k, j, k)
    assert verify_dickson(k, i, 2 ** (k - i) + 1)
    assert verify_pki_ortho(k, i, k)
