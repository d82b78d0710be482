"""Constrained equipartition instances and their counting invariants.

An instance asks for k hyperplanes in R^d such that, for each stage i,
hyperplanes i..k equipartition m_i given masses (a "cascade"), hyperplane i
contains a prescribed (a_i - 1)-dimensional flat, and the pairs listed in
`ortho` are orthogonal.  `extra` holds any further characters imposed
directly as linear forms: 0/1 tuples of length k, checked by the kernel's
`check_form` and kept sorted, so that neither `ortho` nor `extra` depends
on listing order.  `form_counts` turns an instance into what the product
kernel multiplies: a mapping from each distinct form, a plain 0/1 tuple,
to its multiplicity, at most 2^k - 1 entries however large C is.
`compile_forms` expands the mapping into a list, form by form.

Every scalar condition consumes one of the k*d degrees of freedom of the
arrangement, which gives the counting bound  k * Delta >= C  with

    C = sum_i [ m_i * (2^(k-i+1) - 1) + a_i ] + |ortho| + |extra|.

Instances with C = k*d are called tight.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Sequence

from . import jsontypes
from .exceptions import ContradictionError, RangeError, ShapeError, int_text
from .gf2 import check_form


# Largest number of hyperplanes a problem may have.  Each unit of
# first-stage mass imposes 2^k - 1 conditions, which at k = 1024 already
# passes the largest float, so a larger k can only be a mistake.  Refusing
# it up front keeps a huge k from being padded, counted or printed, and
# the universe builders below from listing its k(k-1)/2 pairs.
MAX_K = 1024


def _integer(value: Any, what: str, error: type = RangeError) -> int:
    """value as an int: anything with `__index__` (numpy's too) but a bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{what} must be an integer, got {value!r}")
    return value.__index__()


def _integers(values: Sequence, what: str, error: type = RangeError) -> tuple[int, ...]:
    return tuple(_integer(x, f"{what}[{i}]", error) for i, x in enumerate(values))


def _check_k(k: int) -> int:
    k = _integer(k, "k")
    if not 1 <= k <= MAX_K:
        raise RangeError(f"k must be in 1..{MAX_K}, got k={int_text(k)}")
    return k


def all_pairs(k: int) -> frozenset[tuple[int, int]]:
    """Full orthogonality: every pair (r,s), 1 <= r < s <= k."""
    k = _check_k(k)
    return frozenset((r, s) for r in range(1, k + 1) for s in range(r + 1, k + 1))


def last_orthogonal(k: int) -> frozenset[tuple[int, int]]:
    """Pairs (r,k) for r < k: every earlier hyperplane orthogonal to the last."""
    k = _check_k(k)
    return frozenset((r, k) for r in range(1, k))


def excluding_first_pair(k: int) -> frozenset[tuple[int, int]]:
    """All pairs except (1,2)."""
    return all_pairs(k) - {(1, 2)}


ORTHO_UNIVERSES = {
    "all": all_pairs,
    "last": last_orthogonal,
    "not12": excluding_first_pair,
}


@dataclass(frozen=True)
class ConstraintProblem:
    k: int
    m: tuple[int, ...]
    a: tuple[int, ...]
    ortho: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    extra: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        # the one check of every field: ints only (a numpy integer is stored as an int)
        k = _check_k(self.k)
        m, a = tuple(self.m), tuple(self.a)
        ortho, extra = tuple(map(tuple, self.ortho)), tuple(map(tuple, self.extra))
        if not {int}.issuperset(map(type, chain(m, a, *ortho, *extra))):
            m, a = _integers(m, "m"), _integers(a, "a")
            ortho = [_integers(p, f"ortho[{i}]") for i, p in enumerate(ortho)]
            extra = [_integers(b, f"extra[{i}]") for i, b in enumerate(extra)]
        if len(m) != k or len(a) != k:
            raise ShapeError(f"m and a must have length k={k}: m={int_text(m)}, a={int_text(a)}")
        if any(x < 0 for x in m) or any(x < 0 for x in a):
            raise RangeError("m and a entries must be non-negative")
        for r, s in ortho:
            if not (1 <= r < s <= k):
                raise RangeError(
                    f"orthogonality pair ({int_text(r)}, {int_text(s)}) must satisfy 1<=r<s<=k"
                )
        # stored sorted, so listing order changes neither equality nor hash
        extra = tuple(sorted(extra))
        for bits in extra:
            check_form(bits, k)
        for name, value in dict(k=k, m=m, a=a, ortho=frozenset(ortho), extra=extra).items():
            object.__setattr__(self, name, value)

    @classmethod
    def of(
        cls,
        k: int,
        m: Sequence[int] = (),
        a: Sequence[int] = (),
        ortho: Iterable[Sequence[int]] = (),
        extra: Iterable[Sequence[int]] = (),
    ) -> "ConstraintProblem":
        """Build a problem, zero-padding m and a to length k.

        `ortho` takes (r,s) pairs with 1-based indices; `extra` takes
        linear forms as 0/1 sequences of length k.
        """
        k, m, a = _check_k(k), tuple(m), tuple(a)
        return cls(k, m + (0,) * (k - len(m)), a + (0,) * (k - len(a)), ortho, extra)

    # ------------------------------------------------------------------
    def sorted_ortho(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.ortho))

    def describe(self) -> str:
        parts = [f"m={int_text(self.m)}"]
        if any(self.a):
            parts.append(f"a={int_text(self.a)}")
        if self.ortho:
            parts.append("O={" + ",".join(f"({r},{s})" for r, s in self.sorted_ortho()) + "}")
        if self.extra:
            parts.append("extra=" + ";".join("".join(map(str, b)) for b in self.extra))
        return f"({', '.join(parts)}; k={self.k})"

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "m": list(self.m),
            "a": list(self.a),
            "ortho": [list(p) for p in self.sorted_ortho()],
            "extra": [list(b) for b in self.extra],
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "ConstraintProblem":
        """Build a problem from a parsed problem document: {"k": int} plus
        any of "m" and "a" (integer arrays, zero-padded to length k),
        "ortho" ([r, s] integer pairs) and "extra" (0/1 integer arrays).
        Raises ConfigurationError when a field is unknown or has the wrong
        JSON type."""
        doc = jsontypes.obj(doc, "problem", ("k", "m", "a", "ortho", "extra"))
        extra = jsontypes.field(doc, "extra", jsontypes.items, default=[])
        return cls.of(
            jsontypes.field(doc, "k", jsontypes.integer),
            m=jsontypes.field(doc, "m", jsontypes.integers, default=()),
            a=jsontypes.field(doc, "a", jsontypes.integers, default=()),
            ortho=jsontypes.field(doc, "ortho", jsontypes.pairs, default=()),
            extra=[jsontypes.integers(v, f"extra[{i}]") for i, v in enumerate(extra)],
        )


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------
def constraint_dimension(p: ConstraintProblem) -> int:
    """Total number of scalar conditions the instance imposes."""
    # stage i imposes m_i (2^(k-i+1) - 1) conditions; skipping empty
    # stages keeps a large k from forming k powers of two
    masses = sum(m * (2 ** (p.k - i) - 1) for i, m in enumerate(p.m) if m)
    return masses + sum(p.a) + len(p.ortho) + len(p.extra)


def lower_bound_dim(p: ConstraintProblem) -> int:
    """Smallest d compatible with the degree-of-freedom count, ceil(C/k)."""
    c = constraint_dimension(p)
    return -(-c // p.k)


def _bound_args(bound: str, m: int, k: int) -> tuple[int, int]:
    m, k = _integer(m, "m"), _integer(k, "k")
    if m < 1:
        raise RangeError(f"{bound} requires m >= 1, got {int_text(m)}")
    if k < 1:
        raise RangeError(f"{bound} requires k >= 1, got {int_text(k)}")
    if k > MAX_K:
        raise RangeError(f"{bound} requires k <= {MAX_K}, got {int_text(k)}")
    return m, k


def ramos_L(m: int, k: int) -> int:
    """Degree-of-freedom lower bound ceil(m*(2^k - 1)/k) for the
    unconstrained m-mass, k-hyperplane problem."""
    m, k = _bound_args("ramos_L", m, k)
    return -(-(m * (2**k - 1)) // k)


def upper_U(m: int, k: int) -> int:
    """Best known general upper bound: with m = 2^q + r, 0 <= r < 2^q,
    returns 2^(q+k-1) + r."""
    m, k = _bound_args("upper_U", m, k)
    q = m.bit_length() - 1
    return (1 << (q + k - 1)) + m - (1 << q)


# ----------------------------------------------------------------------
# compilation into linear forms
# ----------------------------------------------------------------------
def form_counts(p: ConstraintProblem) -> dict[tuple[int, ...], int]:
    """The instance's multiset of GF(2) linear forms as a mapping from each
    distinct form, a 0/1 tuple of length k, to its multiplicity: the input
    of `product_of_forms`.

    Stage i contributes m_i copies of every nonzero vector supported on
    coordinates i..k, so a form whose first 1 is at coordinate i gets
    m_1 + ... + m_i; e_i gets a_i more; each orthogonal pair adds 1 to
    e_r + e_s; each listing of an extra form adds 1.  The mapping holds at
    most 2^k - 1 forms, however large C is, and is built in O(2^k) steps
    plus one per pair and per extra form; its multiplicities sum to
    constraint_dimension(p).  It is a fresh dict.
    """
    counts: dict[tuple[int, ...], int] = {}
    for i, m in enumerate(p.m, 1):
        if m:
            for bits in _stage_forms(p.k, i):
                counts[bits] = counts.get(bits, 0) + m
    for i, a in enumerate(p.a, 1):
        if a:
            bits = _indicator(p.k, i)
            counts[bits] = counts.get(bits, 0) + a
    for r, s in p.ortho:
        bits = _indicator(p.k, r, s)
        counts[bits] = counts.get(bits, 0) + 1
    for bits in p.extra:
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def compile_forms(p: ConstraintProblem) -> list[tuple[int, ...]]:
    """`form_counts(p)` listed form by form: each distinct form as many
    times as it counts, grouped, in the mapping's order.  The output is a
    fresh list whose length always equals constraint_dimension(p); the
    kernel takes the mapping instead, which does not grow with C.
    """
    return [bits for bits, n in form_counts(p).items() for _ in range(n)]


def _indicator(k: int, *coords: int) -> tuple[int, ...]:
    """The 0/1 tuple of length k that is 1 at the 1-based coords."""
    bits = [0] * k
    for c in coords:
        bits[c - 1] = 1
    return tuple(bits)


@functools.cache
def _stage_forms(k: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The forms of one unit of stage-i mass, every nonzero vector on
    coordinates i..k in mask order (bit j of the mask is coordinate i+j),
    built once per (k, i)."""
    n = k - i + 1
    return tuple(
        (0,) * (i - 1) + tuple(mask >> j & 1 for j in range(n))
        for mask in range(1, 1 << n)
    )


# ----------------------------------------------------------------------
# optimality / maximality / balance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Classification:
    """Quality labels for an established dimension d of an instance.

    lower_dim      ceil(C/k), the counting lower bound on the dimension.
    optimal        L(m1;k) <= d < L(m1+1;k); None when m1 = 0 (the notion
                   needs a first-stage mass).
    maximal_stages stages i where bumping m_i (and zeroing later stages)
                   already forces a higher dimension.
    j_maximal      largest j with stages 1..j all maximal (0 if none).
    balanced       m_{i+1} <= 2 for all 1 <= i <= k-1.
    tight          C = k*d exactly.
    """

    lower_dim: int
    optimal: bool | None
    maximal_stages: frozenset[int]
    j_maximal: int
    balanced: bool
    tight: bool

    def to_dict(self) -> dict:
        return {
            "lower_dim": self.lower_dim,
            "optimal": self.optimal,
            "maximal_stages": sorted(self.maximal_stages),
            "j_maximal": self.j_maximal,
            "balanced": self.balanced,
            "tight": self.tight,
        }


def classify(p: ConstraintProblem, d: int) -> Classification:
    """Label an instance known (or claimed) to hold at dimension d."""
    d = _integer(d, "d")
    if d < 1:
        raise RangeError(f"d must be >= 1, got {int_text(d)}")
    c = constraint_dimension(p)
    lower = lower_bound_dim(p)
    if d < lower:
        raise ContradictionError(
            f"d={int_text(d)} is below the counting lower bound "
            f"ceil({int_text(c)}/{int_text(p.k)})={int_text(lower)}"
        )
    if p.m[0] >= 1:
        optimal = ramos_L(p.m[0], p.k) <= d < ramos_L(p.m[0] + 1, p.k)
    else:
        optimal = None
    # Stage i is maximal iff bumping m_i and zeroing the later stages
    # already forces a dimension above d: the bumped count is C less the
    # later stages' conditions plus one unit of stage-i mass, w_i.
    maximal = set()
    rest, w = c, 1  # C without the stages after i; w_i = 2^(k-i+1) - 1
    for i in range(p.k, 0, -1):
        if d < -(-(rest + w) // p.k):
            maximal.add(i)
        rest -= p.m[i - 1] * w
        w = 2 * w + 1
    j_max = 0
    while j_max + 1 in maximal:
        j_max += 1
    balanced = all(x <= 2 for x in p.m[1:])
    return Classification(
        lower_dim=lower,
        optimal=optimal,
        maximal_stages=frozenset(maximal),
        j_maximal=j_max,
        balanced=balanced,
        tight=(c == p.k * d),
    )


def dominates(weaker: ConstraintProblem, stronger: ConstraintProblem) -> bool:
    """True iff every condition of `weaker` is also imposed by `stronger`,
    so a certificate for `stronger` at dimension d transfers to `weaker`."""
    if weaker.k != stronger.k:
        raise ShapeError(f"k mismatch: {weaker.k} vs {stronger.k}")
    if any(w > s for w, s in zip(weaker.m, stronger.m)):
        return False
    if any(w > s for w, s in zip(weaker.a, stronger.a)):
        return False
    if not weaker.ortho <= stronger.ortho:
        return False
    weak_extra = Counter(weaker.extra)
    strong_extra = Counter(stronger.extra)
    return all(strong_extra[bits] >= n for bits, n in weak_extra.items())
