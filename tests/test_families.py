import pytest

from equipart.certify import check
from equipart.exceptions import FamilyDomainError, RangeError
from equipart.families import (
    FAMILIES,
    cascade_family,
    full_ortho_family,
    ham_sandwich_cascade,
    last_ortho_family,
    near_full_ortho_family,
)
from equipart.gf2 import MAX_RING_CELLS
from equipart.problems import all_pairs, constraint_dimension, last_orthogonal


def test_cascade_examples():
    inst = cascade_family(0, 1, 3)
    assert inst.problem.m == (1, 1, 2) and inst.d == 4
    inst = cascade_family(0, 1, 2)
    assert inst.problem.m == (1, 1) and inst.d == 2
    inst = cascade_family(0, 1, 4)
    assert inst.problem.m == (1, 1, 2, 4) and inst.d == 8
    assert constraint_dimension(inst.problem) == 32


def test_cascade_with_containment():
    inst = cascade_family(0, 1, 2, a=(0, 1))
    assert inst.problem.m == (1, 0) and inst.problem.a == (0, 1) and inst.d == 2


def test_cascade_preconditions():
    with pytest.raises(FamilyDomainError):
        cascade_family(0, 2, 3)  # t > 2^q
    with pytest.raises(FamilyDomainError):
        cascade_family(1, 1, 3, a=(2, 1, 1))  # not nondecreasing
    with pytest.raises(FamilyDomainError):
        cascade_family(0, 1, 3, a=(0, 2, 2))  # a2 > 2*a1 + t
    with pytest.raises(FamilyDomainError):
        cascade_family(1, 2, 3, a=(1, 1, 1))  # a_(k-1) > 2^q - t


def test_full_ortho_examples():
    inst = full_ortho_family(1, 2, 3)
    assert inst.problem.m == (2, 1, 4) and inst.d == 8
    assert inst.problem.ortho == all_pairs(3)
    inst = full_ortho_family(2, 3, 2)
    assert inst.problem.m == (5, 2) and inst.d == 9
    inst = full_ortho_family(1, 2, 2)
    assert inst.problem.m == (2, 1) and inst.d == 4
    assert constraint_dimension(inst.problem) == 8


def test_full_ortho_needs_t_at_least_two():
    with pytest.raises(FamilyDomainError):
        full_ortho_family(1, 1, 3)


def test_near_full_ortho_examples():
    inst = near_full_ortho_family(1, 1, 4)
    assert inst.problem.m == (3, 1, 1, 8) and inst.d == 17
    assert (1, 2) not in inst.problem.ortho and len(inst.problem.ortho) == 5
    with pytest.raises(FamilyDomainError):
        near_full_ortho_family(0, 1, 4)  # 2^q < t + k - 3
    with pytest.raises(FamilyDomainError):
        near_full_ortho_family(1, 1, 2)


def test_last_ortho_examples():
    inst = last_ortho_family(0, 1, 4)
    assert inst.problem.m == (1, 1, 2, 1) and inst.d == 8
    assert inst.problem.ortho == last_orthogonal(4)
    inst = last_ortho_family(1, 1, 3)
    assert inst.problem.m == (3, 1, 1) and inst.d == 9
    inst = last_ortho_family(1, 1, 3, ortho=[(2, 3)])
    assert inst.problem.m == (3, 1, 2)
    with pytest.raises(FamilyDomainError):
        last_ortho_family(0, 1, 3, ortho=[(1, 2)])
    with pytest.raises(FamilyDomainError):
        last_ortho_family(0, 1, 3, ortho=[])


def test_ham_sandwich_cascade():
    inst = ham_sandwich_cascade(0, 2)
    assert inst.problem.m == (1, 1) and inst.d == 2
    inst = ham_sandwich_cascade(0, 3)
    assert inst.problem.m == (1, 1, 2) and inst.d == 4
    inst = ham_sandwich_cascade(1, 2)
    assert inst.problem.m == (2, 2) and inst.d == 4
    inst = ham_sandwich_cascade(2, 4)
    assert inst.problem.m == (4, 4, 8, 16) and inst.d == 32


def stated_box():
    """Every family instance of the stated box: q <= 3, k <= 5, a = 0 (and
    small a for the affine-capable families), the hs-cascade included."""
    for q in range(4):
        for k in range(1, 6):
            yield ham_sandwich_cascade(q, k)
        for t in range(1, 2**q + 1):
            for k in range(1, 6):
                yield cascade_family(q, t, k)
                for a1 in range(3):
                    try:
                        yield cascade_family(q, t, k, a=(a1,) * k)
                    except FamilyDomainError:
                        continue
                if k >= 2 and t >= 2:
                    try:
                        yield full_ortho_family(q, t, k)
                    except FamilyDomainError:
                        pass
                if k >= 3:
                    if 2**q >= t + k - 3:
                        yield near_full_ortho_family(q, t, k)
                    for j in range(1, k):
                        pairs = sorted(last_orthogonal(k))[:j]
                        try:
                            yield last_ortho_family(q, t, k, ortho=pairs)
                        except FamilyDomainError:
                            continue


def test_all_generators_tight_on_stated_box():
    # every generated instance satisfies C = k*d
    checked = 0
    for inst in stated_box():
        assert constraint_dimension(inst.problem) == inst.problem.k * inst.d
        checked += 1
    assert checked > 200


def closed_form(inst):
    """(m, d) from the docstring of the generator that built `inst`, each
    family's formula written out on its own."""
    p = dict(inst.params)
    q, k = p["q"], p["k"]
    t = p.get("t")
    if inst.family == "ham-sandwich-cascade":
        m = [2**q] + [2 ** (q + i - 2) for i in range(2, k + 1)]
        return m, 2 ** (q + k - 1)
    d = 2**q * (2 ** (k - 1) + 1) - t
    if inst.family in ("cascade", "full-orthogonality"):
        a = p["a"]
        ortho = inst.family == "full-orthogonality"
        m = [2 ** (q + 1) - t - a[0]] + [
            2**q * (2 ** (i - 2) - 1) + t + (i - 3 if ortho else 0) + 2 * a[i - 2] - a[i - 1]
            for i in range(2, k + 1)
        ]
    elif inst.family == "near-full-orthogonality":
        m = [2 ** (q + 1) - t, t, 2**q + t - 2]
        m += [2**q * (2 ** (i - 2) - 1) + t + i - 3 for i in range(4, k + 1)]
    else:
        assert inst.family == "last-orthogonality"
        m = [2 ** (q + 1) - t, t] + [(2 ** (i - 2) - 1) * 2**q + t for i in range(3, k + 1)]
        m[-1] -= p["j"]
    return m, d


def test_families_match_their_closed_forms():
    # tightness and certification would both pass a wrong but tight m
    families = set()
    for inst in stated_box():
        m, d = closed_form(inst)
        assert (inst.problem.m, inst.d) == (tuple(m), d), inst.provenance()
        families.add(inst.family)
    assert len(families) == len(FAMILIES)


def test_every_instance_of_the_stated_box_certifies_strict():
    # the paper's claim: each instance is tight and certified.  The ones
    # whose ring (d+1)^k passes MAX_RING_CELLS, all at k = 5, are refused
    # loudly rather than left unchecked.
    box = {(inst.problem, inst.d): inst for inst in stated_box()}
    certified, refused = 0, []
    for inst in box.values():
        problem, d = inst
        if (d + 1) ** problem.k > MAX_RING_CELLS:
            with pytest.raises(RangeError, match="past the cap"):
                check(problem, d, "strict")
            refused.append((problem.k, d))
            continue
        cert = check(problem, d, "strict")
        assert cert.certified and cert.h_is_top, inst.provenance()
        certified += 1
    assert (len(box), certified, len(refused)) == (370, 278, 92)
    assert {k for k, _ in refused} == {5}
    assert {d for _, d in refused} <= {*range(64, 68), *range(128, 136)}


def test_family_registry_and_provenance():
    assert set(FAMILIES) == {
        "cascade",
        "ortho-full",
        "ortho-not12",
        "ortho-last",
        "hs-cascade",
    }
    inst = cascade_family(0, 1, 3)
    assert "cascade family" in inst.provenance()
    problem, d = inst  # tuple-style unpacking
    assert problem is inst.problem and d == inst.d
