"""JSON type checks for the documents the CLI reads (the atlas query spec,
the mass spec and the problem document) and for `SolverConfig`, whose
fields the witness echoes as JSON.

Each check returns the value when it has the expected JSON type and raises
`ConfigurationError` naming the field otherwise, so a malformed document
exits 2 with one error line instead of failing deep inside the
computation.  Booleans are not accepted as numbers, and `obj`, given the
field names a reader reads, refuses any other field.

`SCHEMA_VERSION` is the schema version every JSON document the package
writes carries.
"""

from __future__ import annotations

from typing import Any, Callable, NoReturn

from .exceptions import ConfigurationError

SCHEMA_VERSION = 1

_REQUIRED = object()


def _fail(what: str, expected: str, value: Any) -> NoReturn:
    raise ConfigurationError(f"{what} must be {expected}, got {value!r}")


def obj(value: Any, what: str, keys: tuple[str, ...] | None = None) -> dict:
    """A JSON object; with `keys`, one with no field outside them, since a
    misspelt field would otherwise be dropped and its default used."""
    if not isinstance(value, dict):
        _fail(what, "a JSON object", value)
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise ConfigurationError(
            f"{what} has an unknown field {unknown[0]!r}; expected one of {', '.join(keys)}"
        )
    return value


def items(value: Any, what: str) -> list:
    if not isinstance(value, list):
        _fail(what, "a JSON array", value)
    return value


def integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(what, "an integer", value)
    return value


def number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(what, "a number", value)
    return float(value)


def numbers(value: Any, what: str) -> list[float]:
    return [number(x, f"{what}[{i}]") for i, x in enumerate(items(value, what))]


def integers(value: Any, what: str) -> list[int]:
    return [integer(x, f"{what}[{i}]") for i, x in enumerate(items(value, what))]


def pairs(value: Any, what: str) -> list[tuple[int, int]]:
    """An array of [r, s] integer pairs."""
    out = [tuple(integers(p, f"{what}[{i}]")) for i, p in enumerate(items(value, what))]
    for i, pair in enumerate(out):
        if len(pair) != 2:
            _fail(f"{what}[{i}]", "an [r, s] pair", list(pair))
    return out


def boolean(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        _fail(what, "true or false", value)
    return value


def text(value: Any, what: str) -> str:
    if not isinstance(value, str):
        _fail(what, "a string", value)
    return value


def field(
    doc: dict,
    key: str,
    check: Callable[[Any, str], Any],
    where: str = "",
    default: Any = _REQUIRED,
) -> Any:
    """check(doc[key]), the field named where.key in errors; `default` when
    the key is absent, which without a default is an error."""
    what = f"{where}.{key}" if where else key
    if key in doc:
        return check(doc[key], what)
    if default is _REQUIRED:
        raise ConfigurationError(f"missing required field {what!r}")
    return default
