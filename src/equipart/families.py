"""Parametric families of tight certified instances.

Each generator returns an instance together with the dimension d at which
it is certifiable.  Parameters follow the convention m1 = 2^(q+1) - t with
1 <= t <= 2^q, for which the dimension is d = 2^q * (2^(k-1) + 1) - t.

Every family is one cascade, built by `_cascade`:

    m1 = 2^(q+1) - t - a1,
    m_i = 2^q*(2^(i-2) - 1) + t + shift(i) + 2*a_{i-1} - a_i   (i >= 2),

which refuses a negative entry and validates that the instance is tight
(C = k*d).  A generator checks its own preconditions and names its shift,
the masses a stage gives up to pay for the orthogonal pairs:

    cascade, hs-cascade   0
    ortho-full            i - 3
    ortho-not12           i - 3, except 0 at i = 2 and -2 at i = 3
    ortho-last            -j at i = k, for j = |ortho|; 0 elsewhere

Note on `last_ortho_family`: the source derivation lists the first cascade
entry as 2^q - t, but only 2^(q+1) - t makes the family tight and matches
the concrete instances it is meant to produce; we generate the latter and
verify tightness on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .exceptions import FamilyDomainError, InternalConsistencyError, int_text
from .gf2 import MAX_RING_CELLS
from .problems import (
    MAX_K,
    ConstraintProblem,
    all_pairs,
    constraint_dimension,
    excluding_first_pair,
    last_orthogonal,
)


@dataclass(frozen=True)
class FamilyInstance:
    problem: ConstraintProblem
    d: int
    family: str
    params: tuple[tuple[str, object], ...]

    def __iter__(self):
        return iter((self.problem, self.d))

    def provenance(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family} family ({args})"

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "problem": self.problem.to_dict(),
            "d": self.d,
        }


def _check_sizes(q: int, k: int) -> None:
    """Refuse a negative q, and a q or k no instance could have, before
    2^q or the k cascade entries are built (for a huge q or k, gigabytes):
    every family's d is at least 2^q, which puts the ring (d+1)^k past
    `gf2.MAX_RING_CELLS` from q = 27 on, and a problem has at most
    `problems.MAX_K` hyperplanes."""
    if q < 0:
        raise FamilyDomainError(f"q must be >= 0, got {int_text(q)}")
    if q >= MAX_RING_CELLS.bit_length():
        raise FamilyDomainError(
            f"q must be < {MAX_RING_CELLS.bit_length()}, got {int_text(q)}: d >= 2^q "
            f"puts the instance's ring past the cap 2^{MAX_RING_CELLS.bit_length() - 1} cells"
        )
    if k > MAX_K:
        raise FamilyDomainError(f"k must be <= {MAX_K}, got {int_text(k)}")


def _check_qt(q: int, t: int, k: int) -> None:
    _check_sizes(q, k)
    if not 1 <= t <= 2**q:
        raise FamilyDomainError(f"t must satisfy 1 <= t <= 2^q = {2 ** q}, got {int_text(t)}")


def _check_a(
    a: Sequence[int] | None, k: int, t: int, slack: int, bound: int, bound_text: str
) -> tuple[int, ...]:
    """The containment vector, zero by default: k non-negative entries,
    nondecreasing, with a2 <= 2*a1 + t - slack and a_(k-1) <= bound."""
    aa = (0,) * k if a is None else tuple(int(x) for x in a)
    if len(aa) != k:
        raise FamilyDomainError(f"a must have length k={k}, got {int_text(aa)}")
    if any(x < 0 for x in aa):
        raise FamilyDomainError(f"a entries must be non-negative, got {int_text(aa)}")
    if any(aa[i] > aa[i + 1] for i in range(k - 1)):
        raise FamilyDomainError(f"a must be nondecreasing, got {int_text(aa)}")
    if k >= 2 and aa[1] > 2 * aa[0] + t - slack:
        need = "2*a1 + t" + (f" - {slack}" if slack else "")
        raise FamilyDomainError(f"need a2 <= {need}, got a={int_text(aa)}, t={t}")
    if k >= 2 and aa[k - 2] > bound:
        raise FamilyDomainError(f"need a_(k-1) <= {bound_text} = {bound}, got a={int_text(aa)}")
    return aa


def _cascade(
    family: str,
    params: dict,
    q: int,
    t: int,
    k: int,
    a: tuple[int, ...],
    ortho: Iterable[Sequence[int]],
    shift: Callable[[int], int],
) -> FamilyInstance:
    """The cascade m1 = 2^(q+1) - t - a1 and, for i >= 2,
    m_i = 2^q*(2^(i-2) - 1) + t + shift(i) + 2*a_{i-1} - a_i at
    d = 2^q*(2^(k-1) + 1) - t, checked tight."""
    m = [2 ** (q + 1) - t - a[0]]
    for i in range(2, k + 1):
        m.append(2**q * (2 ** (i - 2) - 1) + t + shift(i) + 2 * a[i - 2] - a[i - 1])
    if any(x < 0 for x in m):
        raise FamilyDomainError(f"{family}: generated cascade vector {m} has a negative entry")
    d = 2**q * (2 ** (k - 1) + 1) - t
    problem = ConstraintProblem.of(k, m=m, a=a, ortho=ortho)
    c = constraint_dimension(problem)
    if c != k * d:
        raise InternalConsistencyError(
            f"{family}: instance {problem.describe()} is not tight at d={d}: C={c} != {k * d}"
        )
    return FamilyInstance(
        problem=problem, d=d, family=family, params=tuple(params.items())
    )


def cascade_family(
    q: int, t: int, k: int, a: Sequence[int] | None = None
) -> FamilyInstance:
    """Pure cascade with optional flat containment, no orthogonality.

    Requires 1 <= t <= 2^q, a nondecreasing, a2 <= 2*a1 + t and
    a_{k-1} <= 2^q - t.  Produces m1 = 2^(q+1) - t - a1 and
    m_i = 2^q*(2^(i-2) - 1) + t + 2*a_{i-1} - a_i for i >= 2.
    """
    _check_qt(q, t, k)
    if k < 1:
        raise FamilyDomainError(f"k must be >= 1, got {int_text(k)}")
    aa = _check_a(a, k, t, 0, 2**q - t, "2^q - t")
    params = {"q": q, "t": t, "k": k, "a": aa}
    return _cascade("cascade", params, q, t, k, aa, (), lambda i: 0)


def full_ortho_family(
    q: int, t: int, k: int, a: Sequence[int] | None = None
) -> FamilyInstance:
    """Cascade with all hyperplane pairs orthogonal.

    Requires t >= 2, 1 <= t <= 2^q, a nondecreasing, a2 <= 2*a1 + t - 1
    and a_{k-1} <= 2^q - t - k + 3.  Produces m1 = 2^(q+1) - t - a1 and
    m_i = 2^q*(2^(i-2) - 1) + t + i - 3 + 2*a_{i-1} - a_i for i >= 2.
    """
    if t < 2:
        raise FamilyDomainError(f"full orthogonality needs t >= 2, got {int_text(t)}")
    _check_qt(q, t, k)
    if k < 2:
        raise FamilyDomainError(f"orthogonality needs k >= 2, got {int_text(k)}")
    aa = _check_a(a, k, t, 1, 2**q - t - k + 3, "2^q - t - k + 3")
    params = {"q": q, "t": t, "k": k, "a": aa}
    return _cascade("full-orthogonality", params, q, t, k, aa, all_pairs(k), lambda i: i - 3)


def near_full_ortho_family(q: int, t: int, k: int) -> FamilyInstance:
    """Cascade with every pair orthogonal except (1,2).

    Requires k >= 3, 1 <= t <= 2^q and 2^q >= t + k - 3.  Produces
    m = (2^(q+1)-t, t, 2^q+t-2, ...) with m_i = 2^q*(2^(i-2)-1)+t+i-3
    for i >= 4.
    """
    _check_qt(q, t, k)
    if k < 3:
        raise FamilyDomainError(f"this family needs k >= 3, got {int_text(k)}")
    if 2**q < t + k - 3:
        raise FamilyDomainError(f"need 2^q >= t + k - 3, got q={q}, t={t}, k={k}")
    params = {"q": q, "t": t, "k": k}
    return _cascade(
        "near-full-orthogonality", params, q, t, k, (0,) * k, excluding_first_pair(k),
        lambda i: {2: 0, 3: -2}.get(i, i - 3),
    )


def last_ortho_family(
    q: int, t: int, k: int, ortho: Iterable[Sequence[int]] | None = None
) -> FamilyInstance:
    """Cascade with 1 <= j <= k-1 of the earlier hyperplanes orthogonal to
    the last one; the last stage bisects j fewer masses in exchange.

    Requires k >= 3, 1 <= t <= 2^q, and ortho a nonempty subset of the
    pairs (r,k).  Produces m = (2^(q+1)-t, t, 2^q+t, 3*2^q+t, ...) with
    the last entry lowered by j = |ortho|.
    """
    _check_qt(q, t, k)
    if k < 3:
        raise FamilyDomainError(f"this family needs k >= 3, got {int_text(k)}")
    universe = last_orthogonal(k)
    oo = universe if ortho is None else frozenset((int(r), int(s)) for r, s in ortho)
    if not oo <= universe:
        raise FamilyDomainError(
            f"ortho must be a subset of the last-hyperplane pairs {sorted(universe)}"
        )
    j = len(oo)
    if not 1 <= j <= k - 1:
        raise FamilyDomainError(f"need 1 <= |ortho| <= k-1, got {j}")
    params = {"q": q, "t": t, "k": k, "j": j}
    return _cascade(
        "last-orthogonality", params, q, t, k, (0,) * k, oo, lambda i: -j if i == k else 0
    )


def ham_sandwich_cascade(q: int, k: int) -> FamilyInstance:
    """The t = 2^q cascade: in dimension 2^(q+k-1), hyperplanes i..k
    equipartition 2^(q+i-1) masses at every stage; the last hyperplane
    alone bisects 2^(q+k-2) of them."""
    _check_sizes(q, k)
    if k < 1:
        raise FamilyDomainError(f"k must be >= 1, got {int_text(k)}")
    params = {"q": q, "k": k}
    return _cascade("ham-sandwich-cascade", params, q, 2**q, k, (0,) * k, (), lambda i: 0)


FAMILIES = {
    "cascade": cascade_family,
    "ortho-full": full_ortho_family,
    "ortho-not12": near_full_ortho_family,
    "ortho-last": last_ortho_family,
    "hs-cascade": ham_sandwich_cascade,
}
