"""The core decision procedure.

An instance compiles to a multiset of D GF(2) linear forms.  Working in
Z2[u1..uk]/(u1^{d+1},...,uk^{d+1}), let h be the product of those forms.

strict mode (D = k*d):  if h equals the top monomial u1^d*...*uk^d, the
instance holds in dimension d, with every degree of freedom consumed.
relaxed mode (D <= k*d):  if h is nonzero the instance still holds in
dimension d.  The relaxed reading extends the strict one: the product is
the top characteristic class of the D-dimensional bundle assembled from
the form characters, and a nonzero class already rules out a nonvanishing
section.  Certificates record which mode produced them.

Either way the criterion is one-sided: an inconclusive result never shows
the instance fails at d.  A nonzero h stays nonzero as d grows (see `gf2`),
so `find_min_certified_d` reads the smallest certified d off h's terms.

The verify_* functions independently cross-check the closed-form
expansions this machinery relies on (Vandermonde products, Dickson
invariants, and their shifted product).  Each identity's left side is the
product of the compiled forms of the instance it describes, so it runs
through the same compile step and kernel as `check`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations

from .exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    EquipartError,
    InfeasibleByCountingError,
    RangeError,
    int_text,
)
from .gf2 import RingShape, TruncatedPolynomial, _largest_d, product_of_forms
from .problems import (
    ConstraintProblem,
    all_pairs,
    compile_forms,
    constraint_dimension,
    dominates,
    lower_bound_dim,
)

MODES = ("strict", "relaxed")


@dataclass(frozen=True)
class Certificate:
    """Outcome of the criterion for one (instance, d, mode) triple."""

    problem: ConstraintProblem
    d: int
    mode: str
    form_count: int
    kd: int
    verdict: str
    h_is_top: bool
    h_is_zero: bool
    h_digest: str
    tight: bool
    derivation: str | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "d": self.d,
            "mode": self.mode,
            "D": self.form_count,
            "kd": self.kd,
            "verdict": self.verdict,
            "h_is_top": self.h_is_top,
            "h_is_zero": self.h_is_zero,
            "h_digest": self.h_digest,
            "tight": self.tight,
            "derivation": self.derivation,
        }


def check(p: ConstraintProblem, d: int, mode: str = "strict") -> Certificate:
    """Run the criterion for instance p at dimension d.  Certified means
    the instance holds in R^d (for arbitrary masses and flats);
    inconclusive asserts nothing."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    if d < 1:
        raise RangeError(f"d must be >= 1, got {int_text(d)}")
    form_count = constraint_dimension(p)
    kd = p.k * d
    if form_count > kd:
        raise InfeasibleByCountingError(
            f"{int_text(form_count)} conditions exceed the k*d = {int_text(kd)} "
            f"degrees of freedom; the instance cannot hold at d={int_text(d)}"
        )
    if mode == "strict" and form_count != kd:
        raise DimensionMismatchError(
            f"strict mode needs exactly k*d forms: D={int_text(form_count)}, "
            f"kd={int_text(kd)}"
        )
    return _certificate(p, mode, product_of_forms(RingShape(p.k, d), compile_forms(p)))


def _certificate(p: ConstraintProblem, mode: str, h: TruncatedPolynomial) -> Certificate:
    """p's certificate at h's d, h being the product of p's forms there: a
    tight product is zero or the top monomial, so nonzero certifies."""
    form_count, kd, is_zero = constraint_dimension(p), p.k * h.shape.d, h.is_zero()
    return Certificate(
        problem=p, d=h.shape.d, mode=mode, form_count=form_count, kd=kd,
        verdict="inconclusive" if is_zero else "certified",
        h_is_top=h.is_top(), h_is_zero=is_zero, h_digest=h.digest(),
        tight=(form_count == kd),
    )


def find_min_certified_d(
    p: ConstraintProblem, d_max: int, mode: str = "relaxed"
) -> tuple[int, Certificate] | None:
    """Smallest d in [counting lower bound, d_max] where check certifies;
    strict mode looks at the tight d = C/k alone.  A nonzero product stays
    nonzero as d grows, so the answer is read off the largest exponents of
    the first product with terms, taken over windows [d, 2d] capped by
    d_max and the ring cap, where `RingShape` refuses a d past it."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    lower = max(lower_bound_dim(p), 1)
    if mode == "strict":
        count = constraint_dimension(p)
        if count % p.k or not lower <= count // p.k <= d_max:
            return None
        lower = d_max = count // p.k
    d = lower
    while d <= d_max:
        shape = RingShape(p.k, max(d, min(d_max, 2 * d, _largest_d(p.k))))
        h = product_of_forms(shape, compile_forms(p))
        if h.terms:
            found = max(lower, min(max(t) for t in h.terms))
            return found, _certificate(p, mode, h.truncate(found))
        d = shape.d + 1
    return None


def transfer_by_domination(
    weaker: ConstraintProblem, certificate: Certificate
) -> Certificate:
    """Derive a certificate for a weaker instance from a certified stronger
    one at the same d.  The derived certificate is always relaxed-mode and
    makes no tightness claim; its h fields describe the stronger instance's
    witnessing product."""
    if not certificate.certified:
        raise EquipartError("cannot transfer from an inconclusive certificate")
    if not dominates(weaker, certificate.problem):
        raise EquipartError(
            f"{weaker.describe()} is not dominated by {certificate.problem.describe()}"
        )
    return replace(
        certificate,
        problem=weaker,
        mode="relaxed",
        form_count=constraint_dimension(weaker),
        kd=weaker.k * certificate.d,
        tight=False,
        derivation=(
            f"implied by domination from {certificate.problem.describe()} "
            f"at d={certificate.d}"
        ),
    )


# ----------------------------------------------------------------------
# closed-form identity verifiers
# ----------------------------------------------------------------------
def _permutation_sum(
    k: int, variables: list[int], exponents: list[int]
) -> tuple[tuple[int, ...], ...]:
    """Sorted support of the XOR of monomials u_{sigma(v_1)}^{e_1} * ...
    over all permutations sigma of `variables` (1-based)."""
    support: set[tuple[int, ...]] = set()
    for perm in permutations(variables):
        exps = [0] * k
        for var, e in zip(perm, exponents):
            exps[var - 1] = e
        support ^= {tuple(exps)}
    return tuple(sorted(support))


def _matches_permutation_sum(
    shape: RingShape, p: ConstraintProblem, exponents: list[int]
) -> bool:
    """The product of compile_forms(p) in the ring equals the permutation
    sum over u_i..u_k, with i = k + 1 - len(exponents)."""
    lhs = product_of_forms(shape, compile_forms(p))
    variables = list(range(p.k + 1 - len(exponents), p.k + 1))
    return lhs.support() == _permutation_sum(p.k, variables, exponents)


def verify_vandermonde(k: int, j: int, d: int) -> bool:
    """Product of the pair forms u_r + u_s over j <= r < s <= k, the forms
    of hyperplanes j..k pairwise orthogonal, equals the permutation sum
    with exponents k-j, k-j-1, ..., 0.  Both sides are computed
    independently (linear-form folding vs direct monomial insertion)."""
    if not 1 <= j <= k - 1:
        raise RangeError(f"need 1 <= j <= k-1, got j={int_text(j)}, k={int_text(k)}")
    if d < k - j:
        raise RangeError(f"need d >= k-j = {k - j}, got d={int_text(d)}")
    shape = RingShape(k, d)  # refuses a huge ring before any form is built
    p = ConstraintProblem.of(k, ortho=[(r, s) for r, s in all_pairs(k) if r >= j])
    return _matches_permutation_sum(shape, p, list(range(k - j, -1, -1)))


def verify_dickson(k: int, i: int, d: int) -> bool:
    """Product of all nonzero linear forms in u_i..u_k, the forms of one
    unit of stage-i mass, equals the permutation sum with exponents
    2^(k-i), 2^(k-i-1), ..., 1."""
    if not 1 <= i <= k:
        raise RangeError(f"need 1 <= i <= k, got i={int_text(i)}, k={int_text(k)}")
    if d < 1 or isinstance(d, int) and d.bit_length() <= k - i:  # d < 2^(k-i)
        power = 2 ** (k - i) if k - i < 64 else f"2^{int_text(k - i)}"
        raise RangeError(f"need d >= 2^(k-i) = {power}, got d={int_text(d)}")
    shape = RingShape(k, d)
    p = ConstraintProblem.of(k, m=[0] * (i - 1) + [1])
    return _matches_permutation_sum(shape, p, [2**e for e in range(k - i, -1, -1)])


def verify_pki_ortho(k: int, i: int, d: int) -> bool:
    """Shifted Vandermonde: u_i^(i-1)*...*u_k^(i-1) times the pair-form
    product over i <= r < s <= k, the forms of hyperplanes i..k each
    containing i-1 points and pairwise orthogonal, equals the permutation
    sum with exponents k-1, k-2, ..., i-1."""
    if not 1 <= i <= k:
        raise RangeError(f"need 1 <= i <= k, got i={int_text(i)}, k={int_text(k)}")
    if d < k - 1:
        raise RangeError(f"need d >= k-1 = {k - 1}, got d={int_text(d)}")
    shape = RingShape(k, d)
    a = [0] * (i - 1) + [i - 1] * (k - i + 1)
    p = ConstraintProblem.of(k, a=a, ortho=[(r, s) for r, s in all_pairs(k) if r >= i])
    return _matches_permutation_sum(shape, p, list(range(k - 1, i - 2, -1)))


def verify_identities(k: int, d: int) -> dict[str, dict[str, bool]]:
    """The verdict of every identity above whose precondition holds at
    (k, d), by family and index.  k < 1 or d < 1 is refused: no identity
    applies there, so a verdict over them would pass vacuously."""
    if k < 1 or d < 1:
        raise RangeError(
            f"identities need k >= 1 and d >= 1, got k={int_text(k)}, d={int_text(d)}"
        )
    RingShape(k, d)  # every identity's ring; refused before k indices are formed
    return {
        "vandermonde": {
            f"j={j}": verify_vandermonde(k, j, d) for j in range(1, k) if d >= k - j
        },
        "dickson": {
            f"i={i}": verify_dickson(k, i, d) for i in range(1, k + 1) if d >= 2 ** (k - i)
        },
        "pair_shift": {
            f"i={i}": verify_pki_ortho(k, i, d) for i in range(1, k + 1) if d >= k - 1
        },
    }
