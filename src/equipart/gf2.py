"""Exact arithmetic in the truncated polynomial ring Z2[u1..uk] / (u1^{d+1}, ..., uk^{d+1}).

The one operation the certificates need is the product of linear forms
u_{i1}+...+u_{ij}, computed by `product_of_forms`.  A product of j forms
is homogeneous of degree j, so it is held as a (d+1)^(k-1) slice over
the exponents of u1..u_{k-1}, the exponent of u_k being j minus the
cell's exponent sum.  The slice is one Python int used as a bitset: bit
c is row-major cell c.  Forms are grouped by multiplicity and applied
with the Frobenius identity l^(2^b) = sum_{i in l} u_i^(2^b) over GF(2):
one shift-XOR pass per set bit of the multiplicity.  Multiplying by
u_i^s for i < k masks off the cells whose u_i exponent would pass d and
shifts the rest s strides along axis i; multiplying by u_k^s keeps the
cells whose exponent sum is high enough for the u_k exponent to stay
<= d.  The masks are built once per ring and cached.  The result is a
`TruncatedPolynomial`: the ring and the sorted support read off the
final bitset."""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

import numpy as np

from .exceptions import RangeError, ShapeError

# Cap on (d+1)^k, the ring's count of exponent tuples: a request past it
# is almost certainly a mistake.  The product kernel itself holds only a
# (d+1)^(k-1) slice.
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
        # (d+1)^k >= 2^k past the cap once k reaches the cap's bit length,
        # so a huge k is refused without forming the power
        if self.d and (
            self.k >= MAX_RING_CELLS.bit_length() or self.cells > MAX_RING_CELLS
        ):
            raise RangeError(
                f"ring with k={self.k}, d={self.d} has (d+1)^k = "
                f"2^{self.k * math.log2(self.d + 1):.1f} cells, past the cap "
                f"2^{MAX_RING_CELLS.bit_length() - 1}"
            )

    @property
    def cells(self) -> int:
        return (self.d + 1) ** self.k


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


@dataclass(frozen=True)
class TruncatedPolynomial:
    """Immutable ring element, held as its support: the exponent tuples
    with coefficient 1, in lexicographic order."""

    shape: RingShape
    terms: tuple[tuple[int, ...], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def is_top(self) -> bool:
        """True iff the element is exactly the generator u1^d * ... * uk^d."""
        return self.terms == ((self.shape.d,) * self.shape.k,)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return self.terms

    def digest(self) -> str:
        """SHA-256 of the canonical JSON {"d", "k", "support"}, sorted keys
        and compact separators."""
        doc = {
            "k": self.shape.k,
            "d": self.shape.d,
            "support": [list(t) for t in self.terms],
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def product_of_forms(
    shape: RingShape, forms: Iterable[SignVector]
) -> TruncatedPolynomial:
    """Product of the linear forms named by the sign vectors, starting from 1.

    The result depends only on the multiset of forms, not their order.
    The running product of degree j is a bitset over the exponents of
    u1..u_{k-1}, and a form of multiplicity n costs one pass per set bit
    of n (see the module docstring).
    """
    counts = Counter(map(attrgetter("bits"), forms))
    for bits in counts:
        if len(bits) != shape.k:
            raise ShapeError(f"form of length {len(bits)} in a k={shape.k} ring")
    k, d = shape.k, shape.d
    strides = [(d + 1) ** (k - 2 - ax) for ax in range(k - 1)]
    acc = 1  # the unit: exponent tuple 0, slice cell 0
    j = 0
    for bits, n in counts.items():
        for b in range(n.bit_length()):
            if not n >> b & 1:
                continue
            s = 1 << b
            if s > d or not acc:
                return TruncatedPolynomial(shape, ())
            nxt = 0
            # u_i^s for i < k moves a cell s strides along axis i, keeping
            # only the cells whose u_i exponent stays <= d
            for ax in range(k - 1):
                if bits[ax]:
                    nxt ^= (acc & _masks(_axis_at_most, k, d, ax, d - s)) << s * strides[ax]
            if bits[k - 1]:
                # u_k^s keeps the cell; its u_k exponent j - degree grows by
                # s and must stay <= d
                t = j + s - d
                nxt ^= acc if t <= 0 else acc & _masks(_degree_at_least, k, d, t)
            acc = nxt
            j += s
    return TruncatedPolynomial(shape, _support(k, d, j, acc))


def _support(k: int, d: int, j: int, acc: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the set cells of a degree-j slice bitset, in
    lexicographic order: the order of row-major slice cells."""
    n = (d + 1) ** (k - 1)
    packed = np.frombuffer(acc.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    cells = np.flatnonzero(np.unpackbits(packed, count=n, bitorder="little"))
    columns = []
    for _ in range(k - 1):
        cells, e = np.divmod(cells, d + 1)
        columns.insert(0, e)
    columns.append(j - sum(columns, np.zeros_like(cells)))
    return tuple(zip(*(c.tolist() for c in columns)))


class _MaskCache:
    """Masks already built, least recently used first, at most `entries`
    of them and `bits` bits in all: a certify run revisits the same few
    rings.  Thread-safe, so products may still run in threads."""

    def __init__(self, entries: int, bits: int) -> None:
        self.entries, self.bits, self.held = entries, bits, 0
        self.masks: OrderedDict[tuple, int] = OrderedDict()
        self.lock = threading.Lock()

    def __call__(self, build, *args) -> int:
        key = (build, *args)
        with self.lock:
            mask = self.masks.get(key)
            if mask is not None:
                self.masks.move_to_end(key)
                return mask
            mask = self.masks[key] = build(*args)
            self.held += mask.bit_length()
            while len(self.masks) > self.entries or self.held > self.bits:
                self.held -= self.masks.popitem(last=False)[1].bit_length()
            return mask


_masks = _MaskCache(entries=4096, bits=MAX_RING_CELLS)


def _axis_at_most(k: int, d: int, ax: int, e: int) -> int:
    """Slice cells whose exponent of u_{ax+1} is at most e: a run of
    (e+1) strides of ones in every block of d+1 strides."""
    stride = (d + 1) ** (k - 2 - ax)
    period, blocks = (d + 1) * stride, (d + 1) ** ax
    mask = (1 << (e + 1) * stride) - 1
    # tile the run over all the blocks by binary doubling: before the
    # step for `bit`, mask holds blocks >> (bit + 1) of them
    for bit in reversed(range(blocks.bit_length() - 1)):
        mask |= mask << period * (blocks >> bit + 1)
        if blocks >> bit & 1:
            mask |= mask << period
    return mask


def _degree_at_least(k: int, d: int, t: int) -> int:
    """Slice cells whose exponent sum over u1..u_{k-1} is at least t."""
    if t > (k - 1) * d:
        return 0
    # so t, like every exponent sum under the ring cap, fits in int16
    degree = np.zeros((d + 1,) * (k - 1), dtype=np.int16)
    for ax in range(k - 1):
        degree += np.arange(d + 1, dtype=np.int16).reshape((-1,) + (1,) * (k - 2 - ax))
    mask = np.packbits(degree.ravel() >= t, bitorder="little")
    return int.from_bytes(mask.tobytes(), "little")
