"""Exception hierarchy shared across the package."""


def int_text(n: object) -> str:
    """n for an error message: an int in decimal, or by its bit length
    once the decimal would be long (Python refuses to print an int past
    4300 digits, and a message must never fail to form); a tuple or list
    as `str` writes it, but with each int entry through int_text; any
    other value as `str` writes it."""
    if isinstance(n, int) and n.bit_length() > 64:
        return f"<{n.bit_length()}-bit integer>"
    if isinstance(n, (tuple, list)):
        text = ", ".join(int_text(x) if isinstance(x, int) else repr(x) for x in n)
        text += "," if len(n) == 1 and isinstance(n, tuple) else ""
        return f"({text})" if isinstance(n, tuple) else f"[{text}]"
    return str(n)


class EquipartError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EquipartError):
    """Operands live in different rings or have mismatched lengths."""


class RangeError(EquipartError):
    """An exponent tuple or index lies outside the ring's bounds."""


class FamilyDomainError(EquipartError):
    """Family generator parameters violate the family's preconditions."""


class DimensionMismatchError(EquipartError):
    """Strict certification requires exactly k*d linear forms."""


class InfeasibleByCountingError(DimensionMismatchError):
    """More scalar conditions than k*d degrees of freedom: the instance
    cannot hold at this dimension, so no certificate is attempted."""


class ContradictionError(EquipartError):
    """A claimed dimension lies below the counting lower bound."""


class InternalConsistencyError(EquipartError):
    """A construction-time self-check failed (e.g. a family instance
    that is not tight)."""


class ConfigurationError(EquipartError):
    """Invalid user-supplied configuration (mass specs, labels, solver
    settings)."""


class SearchSpaceError(EquipartError):
    """Atlas refusal: the query asks for more than can be searched.
    `estimate` is the candidate count when that was the reason and it
    fits in 64 bits, else None."""

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate
