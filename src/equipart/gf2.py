"""Exact arithmetic in the truncated polynomial ring Z2[u1..uk] / (u1^{d+1}, ..., uk^{d+1}).

Elements are stored as a dense k-dimensional bit array with one cell per
exponent tuple in {0..d}^k; axis i-1 carries the exponent of u_i.  Addition
is XOR.  Values are immutable after construction.

Products of linear forms u_{i1}+...+u_{ij}, the certificates' one hot
path, are computed by `product_of_forms` without the dense array: a
product of j forms is homogeneous of degree j, so it is held as a
(d+1)^(k-1) slice over the exponents of u1..u_{k-1}, the exponent of u_k
being j minus the cell's exponent sum.  Forms are grouped by
multiplicity and applied with the Frobenius identity
l^(2^b) = sum_{i in l} u_i^(2^b) over GF(2): one shift-XOR pass per set
bit of the multiplicity, with exponents past d dropped eagerly.  Only the
final product is expanded to a dense element."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import RangeError, ShapeError

# Hard cap on ring size: beyond this a dense representation is hopeless
# and the request is almost certainly a mistake.
MAX_RING_CELLS = 1 << 26


@dataclass(frozen=True)
class RingShape:
    """Ring parameters: k variables, per-variable truncation degree d."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise RangeError(f"k must be a positive integer, got {self.k!r}")
        if not isinstance(self.d, int) or self.d < 0:
            raise RangeError(f"d must be a non-negative integer, got {self.d!r}")
        if (self.d + 1) ** self.k > MAX_RING_CELLS:
            raise RangeError(
                f"ring with (d+1)^k = {(self.d + 1) ** self.k} cells exceeds "
                f"the dense-representation cap {MAX_RING_CELLS}"
            )

    @property
    def cells(self) -> int:
        return (self.d + 1) ** self.k

    def contains_exponent(self, exps: Sequence[int]) -> bool:
        return len(exps) == self.k and all(0 <= e <= self.d for e in exps)


@dataclass(frozen=True)
class SignVector:
    """Nonzero element of Z2^k, read both as a character and as the
    linear form bits[0]*u1 + ... + bits[k-1]*uk."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise RangeError("sign vector must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise RangeError(f"sign vector entries must be 0/1, got {self.bits!r}")
        if not any(self.bits):
            raise RangeError("sign vector must be nonzero")

    @classmethod
    def basis(cls, k: int, i: int) -> "SignVector":
        """Standard basis vector e_i (i is 1-based)."""
        if not 1 <= i <= k:
            raise RangeError(f"basis index {i} out of range 1..{k}")
        return cls(tuple(1 if j == i - 1 else 0 for j in range(k)))

    @classmethod
    def pair(cls, k: int, r: int, s: int) -> "SignVector":
        """e_r + e_s (1-based, r != s)."""
        if r == s or not (1 <= r <= k and 1 <= s <= k):
            raise RangeError(f"invalid pair ({r},{s}) for k={k}")
        return cls(tuple(1 if j in (r - 1, s - 1) else 0 for j in range(k)))

    @property
    def k(self) -> int:
        return len(self.bits)

    def support(self) -> tuple[int, ...]:
        """1-based coordinates where the vector is 1."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)

    def __add__(self, other: "SignVector") -> "SignVector":
        if self.k != other.k:
            raise ShapeError("sign vectors of different length")
        return SignVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return " + ".join(f"u{i}" for i in self.support())


def nonzero_vectors_on(k: int, lo: int) -> list[SignVector]:
    """All nonzero sign vectors supported on coordinates lo..k (1-based),
    in fixed mask order: bit j of the mask maps to coordinate lo+j."""
    if not 1 <= lo <= k:
        raise RangeError(f"coordinate window {lo}..{k} is empty")
    n = k - lo + 1
    out = []
    for mask in range(1, 1 << n):
        bits = [0] * k
        for j in range(n):
            if mask >> j & 1:
                bits[lo - 1 + j] = 1
        out.append(SignVector(tuple(bits)))
    return out


class TruncatedPolynomial:
    """Immutable element of the truncated ring."""

    __slots__ = ("shape", "coeffs")

    def __init__(self, shape: RingShape, coeffs: np.ndarray):
        expected = (shape.d + 1,) * shape.k
        if coeffs.shape != expected:
            raise ShapeError(f"coefficient array {coeffs.shape} != {expected}")
        # always copy: freezing a view of the caller's array would lock it
        arr = np.array(coeffs, dtype=bool, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TruncatedPolynomial is immutable")

    @classmethod
    def _adopt(cls, shape: RingShape, coeffs: np.ndarray) -> "TruncatedPolynomial":
        """Freeze and wrap a C-ordered bool array of the ring's shape that
        the caller has just built and keeps no other reference to.  Skips
        the copy __init__ makes, which would write every cell of a mostly
        untouched zeroed array."""
        coeffs.flags.writeable = False
        p = object.__new__(cls)
        object.__setattr__(p, "shape", shape)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, shape: RingShape) -> "TruncatedPolynomial":
        return cls._adopt(shape, np.zeros((shape.d + 1,) * shape.k, dtype=bool))

    @classmethod
    def one(cls, shape: RingShape) -> "TruncatedPolynomial":
        return cls.monomial(shape, (0,) * shape.k)

    @classmethod
    def monomial(cls, shape: RingShape, exps: Sequence[int]) -> "TruncatedPolynomial":
        if not shape.contains_exponent(exps):
            raise RangeError(
                f"exponent tuple {tuple(exps)} outside {{0..{shape.d}}}^{shape.k}"
            )
        arr = np.zeros((shape.d + 1,) * shape.k, dtype=bool)
        arr[tuple(exps)] = True
        return cls(shape, arr)

    @classmethod
    def from_support(
        cls, shape: RingShape, support: Iterable[Sequence[int]]
    ) -> "TruncatedPolynomial":
        arr = np.zeros((shape.d + 1,) * shape.k, dtype=bool)
        for exps in support:
            if not shape.contains_exponent(exps):
                raise RangeError(
                    f"exponent tuple {tuple(exps)} outside {{0..{shape.d}}}^{shape.k}"
                )
            arr[tuple(exps)] ^= True
        return cls(shape, arr)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_top(self) -> bool:
        """True iff the element is exactly the generator u1^d * ... * uk^d."""
        if not self.coeffs[(self.shape.d,) * self.shape.k]:
            return False
        return self.monomial_count() == 1

    def monomial_count(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Exponent tuples with coefficient 1, sorted lexicographically
        (the row-major order of the cells)."""
        idx = np.unravel_index(np.flatnonzero(self.coeffs), self.coeffs.shape)
        return tuple(zip(*(axis.tolist() for axis in idx)))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _require_same_ring(self, other: "TruncatedPolynomial") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"ring mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._require_same_ring(other)
        return TruncatedPolynomial(self.shape, self.coeffs ^ other.coeffs)

    def __mul__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._require_same_ring(other)
        # Iterate over the sparser support, shifting the denser operand.
        a, b = self, other
        if a.monomial_count() > b.monomial_count():
            a, b = b, a
        k, d = self.shape.k, self.shape.d
        acc = np.zeros_like(self.coeffs)
        for row in np.argwhere(a.coeffs):
            dst = tuple(slice(int(e), None) for e in row)
            src = tuple(slice(None, d + 1 - int(e)) for e in row)
            acc[dst] ^= b.coeffs[src]
        return TruncatedPolynomial(self.shape, acc)

    def __pow__(self, n: int) -> "TruncatedPolynomial":
        if n < 0:
            raise RangeError("negative powers are not defined here")
        result = TruncatedPolynomial.one(self.shape)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.shape, self.support()))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "k": self.shape.k,
            "d": self.shape.d,
            "support": [list(t) for t in self.support()],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TruncatedPolynomial":
        shape = RingShape(k=int(obj["k"]), d=int(obj["d"]))
        return cls.from_support(shape, [tuple(t) for t in obj["support"]])

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    def __str__(self) -> str:
        terms = []
        for exps in self.support():
            factors = [
                f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            terms.append("*".join(factors) if factors else "1")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"TruncatedPolynomial(k={self.shape.k}, d={self.shape.d}, {self})"


def product_of_forms(
    shape: RingShape, forms: Iterable[SignVector]
) -> TruncatedPolynomial:
    """Product of the linear forms named by the sign vectors, starting from 1.

    The result depends only on the multiset of forms, not their order.
    The running product of degree j is a slice over the exponents of
    u1..u_{k-1}, and a form of multiplicity n costs one pass per set bit
    of n (see the module docstring).
    """
    counts = Counter(forms)
    for form in counts:
        if form.k != shape.k:
            raise ShapeError(f"form of length {form.k} in a k={shape.k} ring")
    k, d = shape.k, shape.d
    # exponent sum of u1..u_{k-1} in every slice cell
    degree = np.zeros((d + 1,) * (k - 1), dtype=np.intp)
    for ax in range(k - 1):
        degree += np.arange(d + 1).reshape((-1,) + (1,) * (k - 2 - ax))
    acc = np.zeros_like(degree, dtype=bool)
    acc[(0,) * (k - 1)] = True
    j = 0
    for form, n in counts.items():
        for b in range(n.bit_length()):
            if not n >> b & 1:
                continue
            s = 1 << b
            if s > d or not acc.any():
                return TruncatedPolynomial.zero(shape)
            nxt = np.zeros_like(acc)
            # u_i^s for i < k shifts axis i by s; the u_k exponent is unchanged
            for ax in range(k - 1):
                if form.bits[ax]:
                    dst = [slice(None)] * (k - 1)
                    src = [slice(None)] * (k - 1)
                    dst[ax] = slice(s, None)
                    src[ax] = slice(None, d + 1 - s)
                    nxt[tuple(dst)] ^= acc[tuple(src)]
            if form.bits[k - 1]:
                # u_k^s keeps the slice cell; its u_k exponent j - degree
                # grows by s and must stay <= d
                nxt ^= acc & (degree >= j + s - d)
            acc = nxt
            j += s
    cells = np.flatnonzero(acc)
    dense = np.zeros((d + 1,) * k, dtype=bool)
    np.put(dense, cells * (d + 1) + (j - degree.ravel()[cells]), True)
    return TruncatedPolynomial._adopt(shape, dense)
