"""Exact arithmetic in the truncated polynomial ring Z2[u1..uk] / (u1^{d+1}, ..., uk^{d+1}).

The one operation the certificates need is the product of linear forms
u_{i1}+...+u_{ij}, computed by `product_of_forms`.  A form is a plain
0/1 tuple of length k, the form bits[0]*u1 + ... + bits[k-1]*uk, and
`check_form` is the one check of it, shared by the kernel and by a
problem's `extra` forms.  A product of j forms is
homogeneous of degree j, so it is held as a (d+1)^(k-1) slice over the
exponents of u1..u_{k-1}, the exponent of u_k being j minus the
cell's exponent sum.  The slice is one Python int used as a bitset: bit
c is row-major cell c.  Forms are grouped by multiplicity and applied
with the Frobenius identity l^(2^b) = sum_{i in l} u_i^(2^b) over GF(2):
one shift-XOR pass per set bit of the multiplicity, the passes of one
power s = 2^b run together.  Multiplying by u_i^s for i < k masks off
the cells whose u_i exponent would pass d and shifts the rest s strides
along axis i.  A mask depends only on the ring, the axis and s, so it
is kept between products in `_masks`, whose charge is bounded by
`MASK_CACHE_BITS`; a mask too large to keep (a slice of about 2^20
cells or more) is built when first needed and dropped after its last
use among the passes of that s.  A kept mask is the int a fresh build
gives, so no result depends on what the cache holds.  Multiplying by
u_k^s keeps the cell as it is: u_k is reduced once, when the support
is read, which gives the same product because (u_k^{d+1}) is an ideal.
A cell whose u_k exponent passed d has only such descendants, and it
never shares a position with a live cell of the same degree.  The live
cells of a degree-j slice have exponent sums in [j-d, j], so the support
is read from the window of bits between the first and the last cell
with such a sum: one bit for a product of kd forms.  The result is a
`TruncatedPolynomial`: the ring and the sorted support read off that
window.  A strict certificate's product is zero or the top monomial, so
the digests of those two supports are memoised per ring.

For d <= d', reducing mod (u1^{d+1}, ..., uk^{d+1}) is a ring map, so
the product of forms at d is their product at d' with every term that
has an exponent above d dropped: `TruncatedPolynomial.truncate`.  So a
product that is nonzero at d is nonzero at every d' >= d."""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .exceptions import RangeError, ShapeError, int_text

# Cap on (d+1)^k, the ring's count of exponent tuples: a request past it
# is almost certainly a mistake.  The product kernel itself holds only a
# (d+1)^(k-1) slice.
MAX_RING_CELLS = 1 << 26

# Budget of the axis masks kept between products, in bits: each kept mask
# is charged its bit length plus MASK_ENTRY_BITS for its key and dict
# slot, so many small masks are bounded as well as a few large ones.  A
# mask charged more than an eighth of the budget (a slice of about 2^20
# cells) is never kept, and one that would pass the budget empties the
# cache first.
MASK_CACHE_BITS = 1 << 23
MASK_ENTRY_BITS = 1 << 11
_masks: dict[tuple[int, int, int, int], int] = {}
_mask_bits = 0  # the charges of the masks in _masks
_masks_lock = threading.Lock()


@dataclass(frozen=True)
class RingShape:
    """Ring parameters: k variables, per-variable truncation degree d."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise RangeError(f"k must be a positive integer, got {_given(self.k)}")
        if not isinstance(self.d, int) or self.d < 0:
            raise RangeError(f"d must be a non-negative integer, got {_given(self.d)}")
        if self.d > _largest_d(self.k):  # (d+1)^k itself is never formed
            size = (
                f"2^{self.k * math.log2(self.d + 1):.1f}"
                if self.k.bit_length() <= 64
                else "at least 2^k"
            )
            raise RangeError(
                f"ring with k={int_text(self.k)}, d={int_text(self.d)} has (d+1)^k = "
                f"{size} cells, past the cap 2^{MAX_RING_CELLS.bit_length() - 1}"
            )

    @property
    def cells(self) -> int:
        return (self.d + 1) ** self.k


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

    def truncate(self, d: int) -> TruncatedPolynomial:
        """The image in the ring at d <= self.shape.d: the terms with every
        exponent at most d."""
        if d == self.shape.d:
            return self
        if d > self.shape.d:
            raise RangeError(f"cannot truncate from d={self.shape.d} up to d={int_text(d)}")
        terms = tuple(t for t in self.terms if max(t) <= d)
        return TruncatedPolynomial(RingShape(self.shape.k, d), terms)

    def digest(self) -> str:
        """SHA-256 of the canonical JSON {"d", "k", "support"}, sorted keys
        and compact separators; memoised for zero and the top monomial."""
        k, d = self.shape.k, self.shape.d
        if not self.terms or self.is_top():
            return _strict_digest(k, d, bool(self.terms))
        return _canonical_digest(k, d, self.terms)


def _canonical_digest(k: int, d: int, terms: tuple[tuple[int, ...], ...]) -> str:
    doc = {"k": k, "d": d, "support": terms}  # tuples encode as arrays
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@lru_cache(maxsize=1024)
def _strict_digest(k: int, d: int, top: bool) -> str:
    """The digest of the top monomial if `top`, else of zero."""
    return _canonical_digest(k, d, ((d,) * k,) if top else ())


def _largest_d(k: int) -> int:
    """The largest d with (d+1)^k <= MAX_RING_CELLS: the k-th root of the
    cap, rounded, is d + 1 or d + 2.  For k > 26 it is 0."""
    root = round(MAX_RING_CELLS ** (1 / k))
    return root - 1 if root**k <= MAX_RING_CELLS else root - 2


def _given(value: object) -> str:
    """A refused k or d for a message: an int as `int_text` writes it,
    anything else by its repr."""
    return int_text(value) if isinstance(value, int) else repr(value)


def check_form(bits: tuple[int, ...], k: int) -> None:
    """Refuse anything but a linear form in k variables: a wrong length
    raises ShapeError, a zero form or an entry other than 0 or 1 raises
    RangeError."""
    if len(bits) != k:
        raise ShapeError(f"form of length {len(bits)} in a k={k} ring")
    ones = bits.count(1)  # nonzero 0/1: some entries 1, all others 0
    if not ones or ones + bits.count(0) != k:
        raise RangeError(f"a form must be a nonzero 0/1 tuple, got {bits!r}")


def product_of_forms(
    shape: RingShape, forms: Iterable[tuple[int, ...]]
) -> TruncatedPolynomial:
    """Product of the linear forms, starting from 1.  A form is a 0/1 tuple
    of length k, the form bits[0]*u1 + ... + bits[k-1]*uk.

    The result depends only on the multiset of forms, not their order.
    The running product of degree j is a bitset over the exponents of
    u1..u_{k-1}, and a form of multiplicity n costs one pass per set bit
    of n (see the module docstring).  Each distinct form is checked once,
    by `check_form`.
    """
    counts = Counter(forms)
    for bits in counts:
        check_form(bits, shape.k)
    k, d = shape.k, shape.d
    strides = [(d + 1) ** (k - 2 - ax) for ax in range(k - 1)]
    acc = 1  # the unit: exponent tuple 0, slice cell 0
    j = 0
    for b in range(max(counts.values(), default=0).bit_length()):
        s = 1 << b
        group = [bits for bits, n in counts.items() if n >> b & 1]
        # axis -> index in the group of the last form that moves along it
        last = {ax: g for g, bits in enumerate(group) for ax in range(k - 1) if bits[ax]}
        keep = {}  # axis -> cells whose exponent stays <= d after u_axis^s
        for g, bits in enumerate(group):
            if s > d or not acc:
                return TruncatedPolynomial(shape, ())
            # u_k^s keeps the cell; u_i^s for i < k moves it s strides
            # along axis i
            nxt = acc if bits[k - 1] else 0
            for ax in range(k - 1):
                if bits[ax]:
                    mask = keep.pop(ax) if ax in keep else _axis_mask(k, d, ax, d - s)
                    nxt ^= (acc & mask) << s * strides[ax]
                    if last[ax] > g:
                        keep[ax] = mask
                    del mask  # freed before the next axis builds its own
            acc = nxt
            j += s
    return TruncatedPolynomial(shape, _support(d, strides, j, acc))


def _support(
    d: int, strides: list[int], j: int, acc: int
) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the live set cells of a degree-j slice bitset, in
    lexicographic order: the order of row-major slice cells.  A cell is
    live when its u_k exponent, j minus its exponent sum, is at most d.

    Every set cell has an exponent sum of at most j, so a live one has a
    sum in [j-d, j] and lies between two row-major bounds: the smallest
    tuple with sum >= j-d, filled from the last axis, and the largest with
    sum <= j, filled from the first.  Only that window of bits is read;
    its set bits are found in the binary string of the window and decoded
    one by one.  `strides` are the row-major strides of u1..u_{k-1}."""
    lo, rest = 0, max(0, j - d)
    for stride in reversed(strides):
        e = min(d, rest)
        lo, rest = lo + e * stride, rest - e
    if rest:
        return ()  # no cell can hold a u_k exponent of at most d
    hi, rest = 0, j
    for stride in strides:
        e = min(d, rest)
        hi, rest = hi + e * stride, rest - e
    window = format((acc >> lo) & ((1 << (hi - lo + 1)) - 1), "b")
    top = lo + len(window) - 1  # the cell of the window's first character
    terms = []
    at = window.rfind("1")
    while at >= 0:  # from the last character: ascending cells
        c, es = top - at, []
        for stride in strides:
            e, c = divmod(c, stride)
            es.append(e)
        last = j - sum(es)
        if last <= d:
            terms.append((*es, last))
        at = window.rfind("1", 0, at)
    return tuple(terms)


def _axis_mask(k: int, d: int, ax: int, e: int) -> int:
    """`_axis_at_most(k, d, ax, e)`, from `_masks` when kept there."""
    global _mask_bits
    key = (k, d, ax, e)
    mask = _masks.get(key)
    if mask is None:
        mask = _axis_at_most(k, d, ax, e)
        charge = mask.bit_length() + MASK_ENTRY_BITS
        if charge <= MASK_CACHE_BITS >> 3:
            with _masks_lock:  # keeps the charge exact under threads
                if _mask_bits + charge > MASK_CACHE_BITS:
                    _masks.clear()
                    _mask_bits = 0
                if key not in _masks:
                    _masks[key] = mask
                    _mask_bits += charge
    return mask


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
