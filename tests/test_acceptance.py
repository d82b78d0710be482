"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with `pytest -s` to see the lines as they go).
"""

import time

import numpy as np

from equipart.atlas import AtlasQuery, enumerate_rows
from equipart.certify import (
    check,
    verify_dickson,
    verify_pki_ortho,
    verify_vandermonde,
)
from equipart.exceptions import DimensionMismatchError, FamilyDomainError
from equipart.families import (
    cascade_family,
    full_ortho_family,
    ham_sandwich_cascade,
    last_ortho_family,
    near_full_ortho_family,
)
from equipart.gf2 import RingShape, product_of_forms
from equipart.masses import sample_gaussian_mixture
from equipart.problems import (
    ConstraintProblem,
    all_pairs,
    classify,
    compile_forms,
    constraint_dimension,
    excluding_first_pair,
    last_orthogonal,
    lower_bound_dim,
    ramos_L,
    upper_U,
)
from equipart.solver import SolverConfig, solve

FULLY_CONSTRAINED_K4 = ConstraintProblem.of(
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


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {criterion} failed {suffix}"


def _gaussian(n, key, label, mean=(0.0, 0.0), cov="I"):
    return sample_gaussian_mixture(
        [{"mean": list(mean), "cov": cov, "weight": 1}],
        n,
        np.random.SeedSequence(entropy=2026, spawn_key=key),
        label=label,
    )


def test_criterion_1_strict_certification_suite():
    cases = [(ConstraintProblem.of(2, m=(1, 1)), 2)]
    for q in range(4):
        cases.append((ConstraintProblem.of(2, m=(2 ** (q + 1) - 1, 1)), 3 * 2**q - 1))
        cases.append(
            (ConstraintProblem.of(2, m=(2 ** (q + 2) - 2, 2)), 3 * 2 ** (q + 1) - 2)
        )
    cases += [
        (ConstraintProblem.of(2, m=(5, 2), ortho=[(1, 2)]), 9),
        (ConstraintProblem.of(3, m=(1, 1, 2)), 4),
        (ConstraintProblem.of(3, m=(1, 1, 1), ortho=[(2, 3)]), 4),
        (ConstraintProblem.of(3, m=(1, 1, 0), ortho=last_orthogonal(3)), 4),
        (ConstraintProblem.of(3, m=(3, 1, 1), ortho=last_orthogonal(3)), 9),
        (ConstraintProblem.of(3, m=(2, 1, 4), ortho=all_pairs(3)), 8),
        (ConstraintProblem.of(3, m=(2, 2, 2), ortho=last_orthogonal(3)), 8),
        (ConstraintProblem.of(4, m=(1, 1, 2, 1), ortho=last_orthogonal(4)), 8),
        (ConstraintProblem.of(4, m=(1, 1, 2, 2), ortho=[(2, 4), (3, 4)]), 8),
        (FULLY_CONSTRAINED_K4, 8),
    ]
    worst = 0.0
    for problem, d in cases:
        t0 = time.perf_counter()
        cert = check(problem, d, "strict")
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert cert.certified and cert.tight, (problem.describe(), d)
        assert constraint_dimension(problem) == problem.k * d
        assert elapsed < 1.0, (problem.describe(), elapsed)
    _report("1", True, f"{len(cases)} strict certificates, slowest {worst * 1000:.0f} ms")


def test_criterion_2_negative_controls():
    c1 = check(ConstraintProblem.of(3, m=(3,), ortho=all_pairs(3)), 9, "relaxed")
    ok1 = (not c1.certified) and c1.h_is_zero

    pure = ConstraintProblem.of(2, m=(1, 0), ortho=[(1, 2)])
    cert_pure = check(pure, 2, "strict")
    padded = ConstraintProblem.of(2, m=(1, 0), a=(0, 1))
    cert_padded = check(padded, 2, "strict")
    ok2 = (
        cert_pure.form_count == 4 == cert_pure.kd
        and not cert_pure.h_is_top
        and cert_padded.certified
    )

    c3 = check(ConstraintProblem.of(3, m=(1,), ortho=all_pairs(3)), 4, "relaxed")
    ok3 = (not c3.certified) and c3.h_is_zero

    _report(
        "2",
        ok1 and ok2 and ok3,
        f"orthogonal controls vanish; pure 2-line form {cert_pure.verdict}, "
        f"padded variant {cert_padded.verdict}",
    )


def test_criterion_3_classification_suite():
    c = classify(ConstraintProblem.of(2, m=(1, 1)), 2)
    ok = bool(c.optimal) and c.j_maximal == 2 and c.tight

    c = classify(ConstraintProblem.of(2, m=(5, 2), ortho=[(1, 2)]), 9)
    ok &= c.maximal_stages == {1, 2} and c.optimal is False and c.tight

    c = classify(ConstraintProblem.of(3, m=(2, 2, 2), ortho=last_orthogonal(3)), 8)
    ok &= c.balanced and 2 in c.maximal_stages

    p = ConstraintProblem.of(4, m=(3, 1, 1, 2), ortho=excluding_first_pair(4))
    ok &= lower_bound_dim(p) == 16

    _report("3", ok)


def test_criterion_4_identity_suite():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 6):
        for j in range(1, k):
            ok &= verify_vandermonde(k, j, k)
    for k in range(1, 5):
        for i in range(1, k + 1):
            ok &= verify_dickson(k, i, 2 ** (k - i) + 1)
    for k in range(1, 5):
        for i in range(1, k + 1):
            ok &= verify_pki_ortho(k, i, max(k, 1))
    elapsed = time.perf_counter() - t0
    _report("4", ok and elapsed < 10.0, f"{elapsed:.2f} s")


def test_criterion_5_family_consistency():
    t0 = time.perf_counter()
    count = 0
    for q in range(3):
        for t in range(1, 2**q + 1):
            for k in range(1, 5):
                instances = [cascade_family(q, t, k)]
                if k >= 2 and t >= 2:
                    try:
                        instances.append(full_ortho_family(q, t, k))
                    except FamilyDomainError:
                        pass
                if k >= 3 and 2**q >= t + k - 3:
                    instances.append(near_full_ortho_family(q, t, k))
                if k >= 3:
                    for j in range(1, k):
                        try:
                            instances.append(
                                last_ortho_family(
                                    q, t, k, ortho=sorted(last_orthogonal(k))[:j]
                                )
                            )
                        except FamilyDomainError:
                            pass
                for inst in instances:
                    assert constraint_dimension(inst.problem) == inst.problem.k * inst.d
                    assert check(inst.problem, inst.d, "strict").certified, inst
                    count += 1
        hs = ham_sandwich_cascade(q, min(4, q + 2))
        assert check(hs.problem, hs.d, "strict").certified
        count += 1
    _report("5", True, f"{count} instances in {time.perf_counter() - t0:.1f} s")


def test_criterion_6_counting_cross_checks():
    ok = True
    for k in range(1, 7):
        for m in range(1, 65):
            q = m.bit_length() - 1
            t = 2 ** (q + 1) - m
            ok &= 1 <= t <= 2**q
            ok &= upper_U(m, k) == 2**q * (2 ** (k - 1) + 1) - t
            equality = upper_U(m, k) == ramos_L(m, k)
            ok &= equality == (k == 1 or (k == 2 and (m + 1) & m == 0))
    _report("6", ok, "m <= 64, k <= 6")


def test_criterion_7_atlas_completeness():
    from itertools import product as iproduct

    t0 = time.perf_counter()
    query = AtlasQuery(
        k=2,
        d_range=(2, 4),
        mode="strict",
        max_m=7,
        max_a=4,
        allow_affine=True,
        ortho_universe="all",
    )
    atlas_keys = {(r.problem, r.d) for r in enumerate_rows(query)}

    brute = set()
    for d in (2, 3, 4):
        for m in iproduct(range(8), repeat=2):
            for a in iproduct(range(5), repeat=2):
                for o in ((), ((1, 2),)):
                    p = ConstraintProblem.of(2, m=m, a=a, ortho=o)
                    try:
                        cert = check(p, d, "strict")
                    except DimensionMismatchError:
                        continue
                    if cert.certified:
                        brute.add((p, d))
    elapsed = time.perf_counter() - t0
    _report(
        "7",
        atlas_keys == brute and elapsed < 60.0,
        f"{len(atlas_keys)} rows match brute force, {elapsed:.1f} s",
    )


def test_criterion_8a_bisection():
    m1 = _gaussian(100_000, (0, 1), "1.1")
    m2 = _gaussian(100_000, (0, 2), "1.2", mean=(2.0, 1.0), cov=0.5)
    w = solve(ConstraintProblem.of(1, m=(2,)), [m1, m2], config=SolverConfig(seed=0, starts=8))
    worst = w.max_equipartition_residual()
    _report("8a", w.success and worst < 5e-3, f"max bisection residual {worst:.1e}")


def test_criterion_8b_two_hyperplane_cascade():
    t0 = time.perf_counter()
    m1 = _gaussian(20_000, (1, 1), "1.1")
    m2 = _gaussian(20_000, (1, 2), "2.1", mean=(1.5, -0.5), cov=0.6)
    w = solve(
        ConstraintProblem.of(2, m=(1, 1)),
        [m1, m2],
        config=SolverConfig(seed=0, starts=32, tol=1e-4),
    )
    elapsed = time.perf_counter() - t0
    _report(
        "8b",
        w.success and w.objective < 1e-4 and elapsed < 60.0,
        f"objective {w.objective:.1e}, {w.diagnostics['starts_run']} starts, {elapsed:.1f} s",
    )


def test_criterion_8c_orthogonal_pair_through_point():
    m1 = _gaussian(50_000, (2, 1), "1.1")
    point = m1.points.mean(axis=0)
    w = solve(
        ConstraintProblem.of(2, m=(1, 0), a=(0, 1), ortho=[(1, 2)]),
        [m1],
        points=[(2, point)],
        config=SolverConfig(seed=0, starts=32),
    )
    ortho = w.max_orthogonality_residual()
    cont = w.max_containment_residual()
    _report(
        "8c",
        w.success and ortho < 1e-6 and cont < 1e-9,
        f"orthogonality {ortho:.1e}, containment {cont:.1e}",
    )


def test_criterion_8d_witness_determinism():
    m1 = _gaussian(4_000, (3, 1), "1.1")
    m2 = _gaussian(4_000, (3, 2), "2.1", mean=(1.5, -0.5), cov=0.6)
    cfg = SolverConfig(seed=11, starts=4)
    problem = ConstraintProblem.of(2, m=(1, 1))
    j1 = solve(problem, [m1, m2], config=cfg).to_json()
    j2 = solve(problem, [m1, m2], config=cfg).to_json()
    _report("8d", j1 == j2, "bit-identical witness JSON")


def test_criterion_9_digest_determinism():
    reference = check(FULLY_CONSTRAINED_K4, 8, "strict").h_digest
    forms = compile_forms(FULLY_CONSTRAINED_K4)
    shape = RingShape(4, 8)
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(10):
        perm = rng.permutation(len(forms))
        h = product_of_forms(shape, [forms[i] for i in perm])
        ok &= h.digest() == reference
    _report("9", ok, f"digest {reference[:12]}... stable over 10 orderings")
