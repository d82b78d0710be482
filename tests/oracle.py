"""Independent brute-force references that tests compute expected values
with.

The truncated GF(2) ring: deliberately naive support sets of exponent
tuples and quadratic-time products, no shared code with the package's
implementation.  The side rule of the region masses: per-point side
fractions, the logistic taken from scipy rather than from the kernel's
tanh form.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from equipart.exceptions import ConfigurationError
from equipart.masses import TIE_EPS


class DictPoly:
    def __init__(self, k: int, d: int, support=()):
        self.k = k
        self.d = d
        self.support = set(tuple(e) for e in support)

    @classmethod
    def one(cls, k, d):
        return cls(k, d, [(0,) * k])

    @classmethod
    def zero(cls, k, d):
        return cls(k, d)

    def add(self, other):
        return DictPoly(self.k, self.d, self.support ^ other.support)

    def mul(self, other):
        out = set()
        for e in self.support:
            for f in other.support:
                g = tuple(a + b for a, b in zip(e, f))
                if all(x <= self.d for x in g):
                    out ^= {g}
        return DictPoly(self.k, self.d, out)

    def mul_form(self, bits):
        form = DictPoly(
            self.k,
            self.d,
            [
                tuple(1 if j == i else 0 for j in range(self.k))
                for i, b in enumerate(bits)
                if b and self.d >= 1
            ],
        )
        return self.mul(form)

    def sorted_support(self):
        return tuple(sorted(self.support))


def product_of_forms_oracle(k, d, forms):
    acc = DictPoly.one(k, d)
    for bits in forms:
        acc = acc.mul_form(bits)
    return acc


def all_polynomials(k, d):
    """Every element of a tiny ring, for exhaustive checks."""
    cells = list(product(range(d + 1), repeat=k))
    for mask in range(1 << len(cells)):
        yield DictPoly(k, d, [c for i, c in enumerate(cells) if mask >> i & 1])


def side_fractions(
    s: np.ndarray, mode: str = "hard", tau: float | None = None, tie_eps: float = TIE_EPS
) -> np.ndarray:
    """Per-point fraction of weight landing on side 0 of a hyperplane.

    Hard mode: 1 on side 0, 0 on side 1, 0.5 on a tie (|s| <= tie_eps).
    Smoothed mode: logistic(s / tau).
    """
    if mode == "hard":
        return np.where(s > tie_eps, 1.0, np.where(s < -tie_eps, 0.0, 0.5))
    if mode == "smoothed":
        if tau is None or tau <= 0:
            raise ConfigurationError("smoothed mode needs tau > 0")
        # scipy costs about 0.3 s to import and only this reference needs it
        from scipy.special import expit

        return expit(s / tau)
    raise ConfigurationError(f"unknown evaluation mode {mode!r}")
