import json
import os
from collections import Counter
from itertools import groupby
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipart import knownvalues
from equipart.atlas import AtlasQuery, enumerate_rows
from equipart.certify import (
    check,
    transfer_by_domination,
    verify_dickson,
    verify_pki_ortho,
    verify_vandermonde,
)
from equipart.exceptions import (
    ConfigurationError,
    ContradictionError,
    EquipartError,
    FamilyDomainError,
    RangeError,
    SearchSpaceError,
    ShapeError,
    int_text,
)
from equipart.families import cascade_family, full_ortho_family, ham_sandwich_cascade
from equipart.gf2 import RingShape
from equipart.problems import (
    ConstraintProblem,
    all_pairs,
    classify,
    compile_forms,
    constraint_dimension,
    dominates,
    excluding_first_pair,
    form_counts,
    last_orthogonal,
    MAX_K,
    lower_bound_dim,
    ramos_L,
    upper_U,
)
from equipart.solver import SolverConfig


@st.composite
def problems(draw, max_k=5, max_entry=6):
    k = draw(st.integers(1, max_k))
    m = tuple(draw(st.lists(st.integers(0, max_entry), min_size=k, max_size=k)))
    a = tuple(draw(st.lists(st.integers(0, max_entry), min_size=k, max_size=k)))
    pairs = sorted(all_pairs(k))
    ortho = [p for p in pairs if draw(st.booleans())]
    n_extra = draw(st.integers(0, 3))
    extra = []
    for _ in range(n_extra):
        bits = tuple(draw(st.integers(0, 1)) for _ in range(k))
        extra.append(bits if any(bits) else (1,) * k)
    return ConstraintProblem.of(k, m=m, a=a, ortho=ortho, extra=extra)


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------
def test_constraint_dimension_examples():
    assert constraint_dimension(ConstraintProblem.of(3, m=(1, 1, 2))) == 12
    p = ConstraintProblem.of(4, m=(1, 1, 2, 1), ortho=last_orthogonal(4))
    assert constraint_dimension(p) == 32  # 15 + 7 + 6 + 1 + 3
    p = ConstraintProblem.of(2, m=(5, 2), ortho=[(1, 2)])
    assert constraint_dimension(p) == 18


def test_lower_bound_examples():
    assert lower_bound_dim(ConstraintProblem.of(3, m=(1, 1, 2))) == 4
    assert lower_bound_dim(ConstraintProblem.of(2, m=(1, 0))) == 2
    p = ConstraintProblem.of(4, m=(3, 1, 1, 2), ortho=excluding_first_pair(4))
    assert constraint_dimension(p) == 62
    assert lower_bound_dim(p) == 16


def test_ramos_L_values():
    assert ramos_L(1, 1) == 1
    assert ramos_L(4, 3) == 10
    assert ramos_L(2, 4) == 8
    with pytest.raises(RangeError):
        ramos_L(0, 2)


def test_upper_U_values():
    assert upper_U(1, 4) == 8
    assert upper_U(3, 3) == 9
    assert upper_U(1, 2) == 2
    with pytest.raises(RangeError):
        upper_U(0, 3)


def test_upper_U_power_of_two_rewrite():
    # U(2^(q+1) - t; k) = 2^q*(2^(k-1)+1) - t over the whole box
    for q in range(5):
        for t in range(1, 2**q + 1):
            for k in range(1, 6):
                assert upper_U(2 ** (q + 1) - t, k) == 2**q * (2 ** (k - 1) + 1) - t


def test_upper_meets_lower_only_in_known_cases():
    for k in range(1, 7):
        for m in range(1, 65):
            # equality exactly for k=1, or k=2 with m+1 a power of two
            expected = k == 1 or (k == 2 and (m + 1) & m == 0)
            assert (upper_U(m, k) == ramos_L(m, k)) == expected, (m, k)


# ----------------------------------------------------------------------
# construction and serialization
# ----------------------------------------------------------------------
def test_of_pads_and_validates():
    p = ConstraintProblem.of(3, m=(1,), ortho=[(1, 3)])
    assert p.m == (1, 0, 0) and p.a == (0, 0, 0)
    with pytest.raises(RangeError):
        ConstraintProblem.of(2, m=(1, 0), ortho=[(2, 1)])
    with pytest.raises(RangeError):
        ConstraintProblem.of(2, m=(-1, 0))
    with pytest.raises(ShapeError):
        ConstraintProblem(k=2, m=(1,), a=(0, 0))


def test_huge_k_refused_before_padding():
    # a k of 10^9 would pad m and a to 10^9 zeros before any other check
    for k in (0, MAX_K + 1, 10**9):
        with pytest.raises(RangeError, match=f"k={k}"):
            ConstraintProblem.of(k, m=(1,))
        with pytest.raises(RangeError, match=f"k={k}"):
            ConstraintProblem(k=k, m=(), a=())
    p = ConstraintProblem.of(MAX_K, m=(1,), a=(0, 2))
    assert constraint_dimension(p) == 2**MAX_K - 1 + 2


def test_universe_builders():
    assert all_pairs(3) == {(1, 2), (1, 3), (2, 3)}
    assert last_orthogonal(4) == {(1, 4), (2, 4), (3, 4)}
    assert excluding_first_pair(3) == {(1, 3), (2, 3)}


@pytest.mark.parametrize("builder", [all_pairs, last_orthogonal, excluding_first_pair])
def test_universe_builders_refuse_k_out_of_range(builder):
    # a k past MAX_K would list its k(k-1)/2 pairs before any problem
    # refused it
    for k in (0, MAX_K + 1):
        with pytest.raises(RangeError, match=f"got k={k}"):
            builder(k)


def test_json_round_trip():
    p = ConstraintProblem.of(
        3, m=(1, 1, 2), a=(0, 0, 1), ortho=[(1, 3), (2, 3)], extra=[(0, 1, 1)]
    )
    doc = p.to_dict()
    assert doc["ortho"] == [[1, 3], [2, 3]]
    assert ConstraintProblem.from_dict(json.loads(json.dumps(doc))) == p
    # omitted fields default to zero / empty
    q = ConstraintProblem.from_dict({"k": 3, "m": [1, 1, 2]})
    assert q == ConstraintProblem.of(3, m=(1, 1, 2))


def test_listing_order_of_extra_changes_nothing():
    # the known instance with six extra forms, listed in reverse
    listed = [
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)
    ]
    p, q = (
        ConstraintProblem.of(4, m=(1,), a=(0, 0, 2, 3), ortho=all_pairs(4), extra=forms)
        for forms in (listed, listed[::-1])
    )
    assert p == q and hash(p) == hash(q)
    assert p.extra == q.extra == tuple(sorted(listed))
    known = knownvalues.lookup(p)
    assert known is not None and knownvalues.lookup(q) is known
    cert = check(p, 8, "strict")
    assert cert.certified and check(q, 8, "strict") == cert
    assert ConstraintProblem.of(2, m=(1,), extra=[(1, 0), (0, 1)]) == ConstraintProblem.of(
        2, m=(1,), extra=[(0, 1), (1, 0)]
    )


def test_direct_constructor_with_lists_equals_of():
    # lists and a plain set from a direct call are stored as tuples and a
    # frozenset, so the problem hashes and looks up like one from `of`
    direct = ConstraintProblem(k=2, m=[1, 0], a=[0, 0], ortho={(1, 2)}, extra=([0, 1], [1, 0]))
    built = ConstraintProblem.of(2, m=(1,), ortho=[(1, 2)], extra=[(1, 0), (0, 1)])
    assert direct == built and hash(direct) == hash(built)
    assert knownvalues.lookup(direct) == knownvalues.lookup(built)
    hit = knownvalues.lookup(ConstraintProblem(k=2, m=[1, 0], a=[0, 0]))
    assert hit is not None and hit == knownvalues.lookup(ConstraintProblem.of(2, m=(1,)))


@pytest.mark.parametrize("form, error", [
    ((0, 0), RangeError),
    ((0, 2), RangeError),
    ((1, -1), RangeError),
    ((1, 0, 1), ShapeError),
    ((), ShapeError),
])
def test_bad_extra_forms_raise_the_kernel_errors(form, error):
    # one check for a form, whichever way the problem is built
    with pytest.raises(error):
        ConstraintProblem.of(2, m=(1,), extra=[(1, 1), form])
    with pytest.raises(error):
        ConstraintProblem.from_dict({"k": 2, "m": [1], "extra": [[1, 1], list(form)]})
    with pytest.raises(error):
        ConstraintProblem(k=2, m=(1, 0), a=(0, 0), extra=((1, 1), form))


HUGE = 10**5000  # past the 4300 digits Python will print

HUGE_REFUSALS = {
    "check-d": (lambda: check(ConstraintProblem.of(1, [1]), -HUGE), RangeError),
    "vandermonde-j": (lambda: verify_vandermonde(3, HUGE, 4), RangeError),
    "dickson-i": (lambda: verify_dickson(3, -HUGE, 4), RangeError),
    "pki-ortho-d": (lambda: verify_pki_ortho(3, 1, -HUGE), RangeError),
    "ramos-L-m": (lambda: ramos_L(-HUGE, 2), RangeError),
    "upper-U-m": (lambda: upper_U(-HUGE, 2), RangeError),
    "upper-U-k": (lambda: upper_U(1, -HUGE), RangeError),
    "ring-k": (lambda: RingShape(-HUGE, 2), RangeError),
    "ring-d": (lambda: RingShape(2, -HUGE), RangeError),
    "problem-k": (lambda: ConstraintProblem.of(HUGE), RangeError),
    "problem-negative-k": (lambda: ConstraintProblem.of(-HUGE), RangeError),
    "problem-ortho": (lambda: ConstraintProblem.of(2, ortho=[(1, HUGE)]), RangeError),
    "atlas-max-m": (lambda: AtlasQuery(k=2, d_range=(2, 3), max_m=-HUGE), ConfigurationError),
    "atlas-d-range": (
        lambda: list(enumerate_rows(AtlasQuery(k=2, d_range=(-HUGE, 3)))), ConfigurationError
    ),
    "atlas-k": (
        lambda: list(enumerate_rows(AtlasQuery(k=-HUGE, d_range=(2, 3)))), ConfigurationError
    ),
    "atlas-jobs": (
        lambda: list(enumerate_rows(AtlasQuery(k=2, d_range=(2, 3)), jobs=-HUGE)),
        ConfigurationError,
    ),
    "atlas-candidate-limit": (
        lambda: list(enumerate_rows(AtlasQuery(k=2, d_range=(2, 3), candidate_limit=-HUGE))),
        SearchSpaceError,
    ),
    "classify-d": (lambda: classify(ConstraintProblem.of(2, m=(1,)), -HUGE), RangeError),
    "classify-below-count": (  # d and the count it falls below
        lambda: classify(ConstraintProblem.of(2, m=(HUGE,)), HUGE), ContradictionError
    ),
    "cascade-k": (lambda: cascade_family(0, 1, -HUGE), FamilyDomainError),
    "ortho-full-t": (lambda: full_ortho_family(0, -HUGE, 3), FamilyDomainError),
    "hs-cascade-k": (lambda: ham_sandwich_cascade(0, -HUGE), FamilyDomainError),
    "solver-starts": (lambda: SolverConfig(starts=-HUGE), ConfigurationError),
    "upper-U-huge-k": (lambda: upper_U(1, HUGE), RangeError),
    "cascade-a": (lambda: cascade_family(0, 1, 2, a=[HUGE, 0]), FamilyDomainError),
    "problem-m": (lambda: ConstraintProblem(k=2, m=(HUGE,), a=(0, 0)), ShapeError),
    "transfer-describe": (  # the refusal describes the weaker problem
        lambda: transfer_by_domination(
            ConstraintProblem.of(2, m=(HUGE,)), check(ConstraintProblem.of(2, m=(1, 1)), 2)
        ),
        EquipartError,
    ),
}

# Calls that once never returned, because they formed 2^k or looped over
# k indices for the huge k.
# Each runs in its own interpreter with a timeout, so that a relapse fails
# its case instead of stalling the suite.
HUGE_REFUSALS_IN_SUBPROCESS = {
    "dickson-k": ("verify_dickson(HUGE, 1, 4)", RangeError),
    "ramos-L-huge-k": ("ramos_L(1, HUGE)", RangeError),
    "identities-k": ("verify_identities(HUGE, 4)", RangeError),
}
REFUSAL_PROBE = """
from equipart.certify import verify_dickson, verify_identities
from equipart.exceptions import EquipartError
from equipart.problems import ramos_L
HUGE = 10**5000
try:
    {call}
except EquipartError as err:
    print(type(err).__name__, err)
"""
SRC = Path(__file__).resolve().parents[1] / "src"


def _refusal_in_subprocess(call: str) -> tuple[str, str]:
    """(error type name, message) of `call` run in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", REFUSAL_PROBE.format(call=call)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    name, _, message = proc.stdout.strip().partition(" ")
    return name, message


@pytest.mark.parametrize("case", sorted(HUGE_REFUSALS) + sorted(HUGE_REFUSALS_IN_SUBPROCESS))
def test_huge_integers_are_refused_by_bit_length(case):
    # a refusal must never fail to form its own message: the package's
    # error is raised, naming the integer by its bit length
    bits = re.escape(f"<{HUGE.bit_length()}-bit integer>")
    if case in HUGE_REFUSALS_IN_SUBPROCESS:
        call, error = HUGE_REFUSALS_IN_SUBPROCESS[case]
        name, message = _refusal_in_subprocess(call)
        assert name == error.__name__ and re.search(bits, message), (name, message)
        return
    call, error = HUGE_REFUSALS[case]
    with pytest.raises(error, match=bits) as info:
        call()
    assert info.type is error


@pytest.mark.parametrize("vector", [
    (), (1,), (1, 2), [], [3], [1, 2], ((0, 1), (1, 1)), (np.int64(3), 0), ("a",), (1.5, True),
])
def test_int_text_writes_a_normal_vector_as_str_does(vector):
    # a refusal that prints a vector keeps its bytes for every normal value
    assert int_text(vector) == str(vector)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def test_compile_forms_examples():
    # form_counts(p) expanded: each distinct form's copies in one run, the
    # runs in the mapping's order
    assert compile_forms(ConstraintProblem.of(2, m=(1, 0))) == [
        (1, 0),
        (0, 1),
        (1, 1),
    ]
    assert compile_forms(ConstraintProblem.of(2, m=(1, 1))) == [
        (1, 0),
        (0, 1),
        (0, 1),
        (1, 1),
    ]


def test_compile_forms_fully_constrained_k4():
    p = ConstraintProblem.of(
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
    forms = compile_forms(p)
    assert len(forms) == 32 == constraint_dimension(p)
    # the 15 stage-1 forms in mask order, each in one run: e3 gains 2 from
    # a and e4 gains 3, each pair form 1, each extra form 1
    assert [(bits, len(list(run))) for bits, run in groupby(forms)] == [
        ((1, 0, 0, 0), 1), ((0, 1, 0, 0), 2), ((1, 1, 0, 0), 2), ((0, 0, 1, 0), 4),
        ((1, 0, 1, 0), 2), ((0, 1, 1, 0), 3), ((1, 1, 1, 0), 1), ((0, 0, 0, 1), 5),
        ((1, 0, 0, 1), 2), ((0, 1, 0, 1), 3), ((1, 1, 0, 1), 1), ((0, 0, 1, 1), 3),
        ((1, 0, 1, 1), 1), ((0, 1, 1, 1), 1), ((1, 1, 1, 1), 1),
    ]


def test_compiled_lists_are_fresh():
    # the stage forms are cached; a caller that changes its list must
    # not change what the next call returns
    p = ConstraintProblem.of(3, m=(2, 1, 0))
    expect = compile_forms(p)
    assert [(bits, len(list(run))) for bits, run in groupby(expect)] == [
        ((1, 0, 0), 2), ((0, 1, 0), 3), ((1, 1, 0), 2), ((0, 0, 1), 3),
        ((1, 0, 1), 2), ((0, 1, 1), 3), ((1, 1, 1), 2),
    ]
    forms = compile_forms(p)
    forms[0] = (1, 1, 1)
    del forms[1:]
    assert compile_forms(p) == expect
    forms.clear()
    assert compile_forms(p) == expect
    counts = form_counts(p)
    counts.clear()
    assert form_counts(p) == Counter(expect)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_compile_length_matches_constraint_dimension(p):
    assert len(compile_forms(p)) == constraint_dimension(p)


def test_form_counts_examples():
    # a form whose first 1 is at coordinate i gets m_1 + ... + m_i; e_i
    # gets a_i more; a pair and each listing of an extra form add 1
    assert form_counts(ConstraintProblem.of(2, m=(1, 1))) == {(1, 0): 1, (1, 1): 1, (0, 1): 2}
    p = ConstraintProblem.of(
        3, m=(2, 1, 0), a=(0, 1, 3), ortho=[(1, 3)], extra=[(1, 1, 1), (1, 1, 1)]
    )
    assert form_counts(p) == {
        (1, 0, 0): 2, (1, 1, 0): 2, (1, 0, 1): 2 + 1, (1, 1, 1): 2 + 2,
        (0, 1, 0): 3 + 1, (0, 1, 1): 3,
        (0, 0, 1): 3 + 3,
    }
    assert sum(form_counts(p).values()) == constraint_dimension(p) == 24
    assert form_counts(ConstraintProblem.of(3)) == {}


@settings(max_examples=80, deadline=None)
@given(problems())
def test_form_counts_are_the_compiled_multiset(p):
    counts = form_counts(p)
    assert counts == Counter(compile_forms(p))
    assert sum(counts.values()) == constraint_dimension(p)
    assert len(counts) <= 2**p.k - 1


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def test_classify_optimal_maximal_tight():
    c = classify(ConstraintProblem.of(2, m=(1, 1)), 2)
    assert c.optimal and c.j_maximal == 2 and c.balanced and c.tight


def test_classify_maximal_not_optimal():
    c = classify(ConstraintProblem.of(2, m=(5, 2), ortho=[(1, 2)]), 9)
    assert c.maximal_stages == {1, 2}
    assert c.optimal is False
    assert c.tight


def test_classify_balanced_second_stage_maximal():
    c = classify(ConstraintProblem.of(3, m=(2, 2, 2), ortho=last_orthogonal(3)), 8)
    assert c.balanced
    assert 2 in c.maximal_stages and 1 not in c.maximal_stages
    assert c.j_maximal == 0


def test_classify_zero_first_stage_has_no_optimality():
    c = classify(ConstraintProblem.of(2, m=(0, 1), a=(2, 1)), 2)
    assert c.optimal is None


def test_classify_below_lower_bound_raises():
    with pytest.raises(ContradictionError):
        classify(ConstraintProblem.of(3, m=(1, 1, 2)), 3)


@pytest.mark.parametrize("d", [0, -3])
def test_classify_refuses_d_below_one(d):
    # with no conditions the counting bound is 0, so only this check
    # keeps d = 0 from being labelled like a real dimension
    for p in (ConstraintProblem.of(2), ConstraintProblem.of(2, m=(1, 1))):
        with pytest.raises(RangeError, match=f"d must be >= 1, got {d}"):
            classify(p, d)


@settings(max_examples=40, deadline=None)
@given(problems(max_k=4, max_entry=3), st.integers(0, 3))
def test_classify_ignores_listing_order(p, bump):
    d = max(lower_bound_dim(p), 1) + bump
    base = classify(p, d)
    shuffled = ConstraintProblem(
        k=p.k,
        m=p.m,
        a=p.a,
        ortho=frozenset(reversed(sorted(p.ortho))),
        extra=tuple(reversed(p.extra)),
    )
    assert classify(shuffled, d) == base


@settings(max_examples=80, deadline=None)
@given(problems(), st.integers(0, 5))
def test_classify_maximal_stages_match_the_bumped_problems(p, bump):
    # stage i is maximal iff the problem with m_i raised by one and the
    # later stages zeroed has a counting bound above d
    d = max(lower_bound_dim(p), 1) + bump

    def bumped(i):
        m = p.m[: i - 1] + (p.m[i - 1] + 1,) + (0,) * (p.k - i)
        return ConstraintProblem(k=p.k, m=m, a=p.a, ortho=p.ortho, extra=p.extra)

    expect = {i for i in range(1, p.k + 1) if d < lower_bound_dim(bumped(i))}
    assert classify(p, d).maximal_stages == expect


# ----------------------------------------------------------------------
# domination
# ----------------------------------------------------------------------
def test_dominates_examples():
    o2 = [(2, 4), (3, 4)]
    weaker = ConstraintProblem.of(4, m=(1, 1, 2, 2), ortho=o2)
    stronger = ConstraintProblem.of(4, m=(1, 1, 2, 4), ortho=o2)
    assert dominates(weaker, stronger)
    assert dominates(
        ConstraintProblem.of(3, m=(2, 1, 2)), ConstraintProblem.of(3, m=(2, 1, 4))
    )
    assert not dominates(
        ConstraintProblem.of(2, m=(2, 0)), ConstraintProblem.of(2, m=(1, 1))
    )


def test_dominates_checks_all_blocks():
    base = ConstraintProblem.of(2, m=(1, 1), a=(0, 1), ortho=[(1, 2)], extra=[(1, 1)])
    assert dominates(ConstraintProblem.of(2, m=(1, 1)), base)
    assert not dominates(
        ConstraintProblem.of(2, m=(1, 1), extra=[(1, 1), (1, 1)]), base
    )
    # each block alone can make the weaker problem ask for more
    assert not dominates(ConstraintProblem.of(2, m=(1, 1), a=(1, 0)), base)
    assert not dominates(ConstraintProblem.of(2, m=(1, 1), a=(0, 2)), base)
    no_pair = ConstraintProblem.of(2, m=(1, 1), a=(0, 1), extra=[(1, 1)])
    assert not dominates(ConstraintProblem.of(2, m=(1, 1), ortho=[(1, 2)]), no_pair)
    with pytest.raises(ShapeError):
        dominates(ConstraintProblem.of(3, m=(1, 0, 0)), base)


def test_describe_names_every_nonempty_block():
    p = ConstraintProblem.of(3, m=(1,), a=(0, 0, 2), ortho=[(2, 3), (1, 2)],
                             extra=[(1, 1, 0), (0, 1, 1)])
    assert p.describe() == "(m=(1, 0, 0), a=(0, 0, 2), O={(1,2),(2,3)}, extra=011;110; k=3)"
    assert ConstraintProblem.of(2, m=(1, 1)).describe() == "(m=(1, 1); k=2)"
