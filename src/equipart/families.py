"""Parametric families of tight certified instances.

Each generator returns an instance together with the dimension d at which
it is certifiable, and validates at construction time that the instance is
tight (C = k*d).  Parameters follow the convention m1 = 2^(q+1) - t with
1 <= t <= 2^q, for which the dimension is d = 2^q * (2^(k-1) + 1) - t.

Note on `last_ortho_family`: the source derivation lists the first cascade
entry as 2^q - t, but only 2^(q+1) - t makes the family tight and matches
the concrete instances it is meant to produce; we generate the latter and
verify tightness on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
        raise FamilyDomainError(f"q must be >= 0, got {q}")
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


def _normalize_a(a: Sequence[int] | None, k: int) -> tuple[int, ...]:
    if a is None:
        return (0,) * k
    aa = tuple(int(x) for x in a)
    if len(aa) != k:
        raise FamilyDomainError(f"a must have length k={k}, got {aa}")
    if any(x < 0 for x in aa):
        raise FamilyDomainError(f"a entries must be non-negative, got {aa}")
    return aa


def _dimension(q: int, t: int, k: int) -> int:
    return 2**q * (2 ** (k - 1) + 1) - t


def _finish(
    family: str,
    params: dict,
    m: list[int],
    a: tuple[int, ...],
    ortho,
    k: int,
    d: int,
) -> FamilyInstance:
    if any(x < 0 for x in m):
        raise FamilyDomainError(f"{family}: generated cascade vector {m} has a negative entry")
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
        raise FamilyDomainError(f"k must be >= 1, got {k}")
    aa = _normalize_a(a, k)
    if any(aa[i] > aa[i + 1] for i in range(k - 1)):
        raise FamilyDomainError(f"a must be nondecreasing, got {aa}")
    if k >= 2 and aa[1] > 2 * aa[0] + t:
        raise FamilyDomainError(f"need a2 <= 2*a1 + t, got a={aa}, t={t}")
    if k >= 2 and aa[k - 2] > 2**q - t:
        raise FamilyDomainError(f"need a_(k-1) <= 2^q - t = {2 ** q - t}, got a={aa}")
    m = [2 ** (q + 1) - t - aa[0]]
    for i in range(2, k + 1):
        m.append(2**q * (2 ** (i - 2) - 1) + t + 2 * aa[i - 2] - aa[i - 1])
    d = _dimension(q, t, k)
    return _finish("cascade", {"q": q, "t": t, "k": k, "a": aa}, m, aa, (), k, d)


def full_ortho_family(
    q: int, t: int, k: int, a: Sequence[int] | None = None
) -> FamilyInstance:
    """Cascade with all hyperplane pairs orthogonal.

    Requires t >= 2, 1 <= t <= 2^q, a nondecreasing, a2 <= 2*a1 + t - 1
    and a_{k-1} <= 2^q - t - k + 3.  Produces m1 = 2^(q+1) - t - a1 and
    m_i = 2^q*(2^(i-2) - 1) + t + i - 3 + 2*a_{i-1} - a_i for i >= 2.
    """
    if t < 2:
        raise FamilyDomainError(f"full orthogonality needs t >= 2, got {t}")
    _check_qt(q, t, k)
    if k < 2:
        raise FamilyDomainError(f"orthogonality needs k >= 2, got {k}")
    aa = _normalize_a(a, k)
    if any(aa[i] > aa[i + 1] for i in range(k - 1)):
        raise FamilyDomainError(f"a must be nondecreasing, got {aa}")
    if aa[1] > 2 * aa[0] + t - 1:
        raise FamilyDomainError(f"need a2 <= 2*a1 + t - 1, got a={aa}, t={t}")
    bound = 2**q - t - k + 3
    if aa[k - 2] > bound:
        raise FamilyDomainError(
            f"need a_(k-1) <= 2^q - t - k + 3 = {bound}, got a={aa}"
        )
    m = [2 ** (q + 1) - t - aa[0]]
    for i in range(2, k + 1):
        m.append(2**q * (2 ** (i - 2) - 1) + t + i - 3 + 2 * aa[i - 2] - aa[i - 1])
    d = _dimension(q, t, k)
    return _finish(
        "full-orthogonality",
        {"q": q, "t": t, "k": k, "a": aa},
        m,
        aa,
        all_pairs(k),
        k,
        d,
    )


def near_full_ortho_family(q: int, t: int, k: int) -> FamilyInstance:
    """Cascade with every pair orthogonal except (1,2).

    Requires k >= 3, 1 <= t <= 2^q and 2^q >= t + k - 3.  Produces
    m = (2^(q+1)-t, t, 2^q+t-2, ...) with m_i = 2^q*(2^(i-2)-1)+t+i-3
    for i >= 4.
    """
    _check_qt(q, t, k)
    if k < 3:
        raise FamilyDomainError(f"this family needs k >= 3, got {k}")
    if 2**q < t + k - 3:
        raise FamilyDomainError(f"need 2^q >= t + k - 3, got q={q}, t={t}, k={k}")
    m = [2 ** (q + 1) - t, t, 2**q + t - 2]
    for i in range(4, k + 1):
        m.append(2**q * (2 ** (i - 2) - 1) + t + i - 3)
    d = _dimension(q, t, k)
    return _finish(
        "near-full-orthogonality",
        {"q": q, "t": t, "k": k},
        m,
        (0,) * k,
        excluding_first_pair(k),
        k,
        d,
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
        raise FamilyDomainError(f"this family needs k >= 3, got {k}")
    universe = last_orthogonal(k)
    oo = universe if ortho is None else frozenset((int(r), int(s)) for r, s in ortho)
    if not oo <= universe:
        raise FamilyDomainError(
            f"ortho must be a subset of the last-hyperplane pairs {sorted(universe)}"
        )
    j = len(oo)
    if not 1 <= j <= k - 1:
        raise FamilyDomainError(f"need 1 <= |ortho| <= k-1, got {j}")
    m = [2 ** (q + 1) - t]
    for i in range(2, k + 1):
        m.append(2**q * (2 ** (i - 2) - 1) + t)
    m[k - 1] -= j
    d = _dimension(q, t, k)
    return _finish(
        "last-orthogonality",
        {"q": q, "t": t, "k": k, "j": j},
        m,
        (0,) * k,
        oo,
        k,
        d,
    )


def ham_sandwich_cascade(q: int, k: int) -> FamilyInstance:
    """The t = 2^q cascade: in dimension 2^(q+k-1), hyperplanes i..k
    equipartition 2^(q+i-1) masses at every stage; the last hyperplane
    alone bisects 2^(q+k-2) of them."""
    _check_sizes(q, k)
    if k < 1:
        raise FamilyDomainError(f"k must be >= 1, got {k}")
    inner = cascade_family(q, 2**q, k)
    return FamilyInstance(
        problem=inner.problem,
        d=inner.d,
        family="ham-sandwich-cascade",
        params=(("q", q), ("k", k)),
    )


FAMILIES = {
    "cascade": cascade_family,
    "ortho-full": full_ortho_family,
    "ortho-not12": near_full_ortho_family,
    "ortho-last": last_ortho_family,
    "hs-cascade": ham_sandwich_cascade,
}
