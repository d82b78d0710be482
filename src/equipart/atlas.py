"""Exhaustive search for certified instances at small (k, d).

Candidates range over cascade vectors, containment counts and subsets of
an orthogonality universe, within finite caps.  A candidate is emitted iff
its condition count fits the mode (C = k*d strict, C <= k*d relaxed) and
the criterion certifies it; rows carry the certificate summary, the
quality labels and any reference-table match.  Output order is
deterministic: lexicographic in (d, m, a, sorted ortho).
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import combinations, product, repeat
from typing import Any, Iterable, Iterator

from . import jsontypes, knownvalues
from .certify import MODES, Certificate, check
from .exceptions import ConfigurationError, RangeError, SearchSpaceError, int_text
from .gf2 import RingShape
from .problems import (
    Classification,
    ConstraintProblem,
    ORTHO_UNIVERSES,
    classify,
    constraint_dimension,
)

REPORT_COLUMNS = (
    "k",
    "d",
    "m",
    "a",
    "ortho",
    "extra",
    "D",
    "kd",
    "mode",
    "verdict",
    "optimal",
    "j_maximal",
    "balanced",
    "tight",
    "known_ref",
)

REPORT_FORMATS = ("json", "csv", "markdown")


def _universe_from_spec(value: Any, what: str) -> str | frozenset:
    """A universe name, or a list of [r, s] pairs."""
    if not isinstance(value, list):
        return jsontypes.text(value, what)
    return frozenset(jsontypes.pairs(value, what))


@dataclass(frozen=True)
class AtlasQuery:
    k: int
    d_range: tuple[int, int]
    mode: str = "strict"
    max_m: int = 2
    max_a: int = 0
    allow_ortho: bool = True
    allow_affine: bool = False
    ortho_universe: str | frozenset = "all"
    require_optimal: bool = False
    require_maximal_j: int | None = None
    require_balanced: bool = False
    candidate_limit: int = 2_000_000

    def __post_init__(self) -> None:
        # a negative bound would leave an empty box and an empty report
        # that looks like an answer
        for name in ("max_m", "max_a"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {int_text(value)}")

    @classmethod
    def from_spec(cls, doc: Any) -> "AtlasQuery":
        """Build a query from a parsed query-spec document: {"k": int,
        "d_range": [lo, hi]} plus any of the other fields, with
        "ortho_universe" a universe name or a list of [r, s] pairs.  Raises
        ConfigurationError when a field is unknown or has the wrong JSON
        type."""
        checks = {
            "mode": jsontypes.text,
            "max_m": jsontypes.integer,
            "max_a": jsontypes.integer,
            "allow_ortho": jsontypes.boolean,
            "allow_affine": jsontypes.boolean,
            "ortho_universe": _universe_from_spec,
            "require_optimal": jsontypes.boolean,
            "require_balanced": jsontypes.boolean,
            "candidate_limit": jsontypes.integer,
            "require_maximal_j": lambda v, what: None if v is None else jsontypes.integer(v, what),
        }
        doc = jsontypes.obj(doc, "atlas spec", ("k", "d_range", *checks))
        d_range = jsontypes.field(doc, "d_range", jsontypes.items)
        if len(d_range) != 2:
            raise ConfigurationError(f"d_range must be [lo, hi], got {d_range!r}")
        fields = {key: check(doc[key], key) for key, check in checks.items() if key in doc}
        return cls(
            k=jsontypes.field(doc, "k", jsontypes.integer),
            d_range=tuple(jsontypes.integer(x, f"d_range[{i}]") for i, x in enumerate(d_range)),
            **fields,
        )

    def universe_pairs(self) -> tuple[tuple[int, int], ...]:
        if not self.allow_ortho:
            return ()
        if isinstance(self.ortho_universe, str):
            try:
                builder = ORTHO_UNIVERSES[self.ortho_universe]
            except KeyError:
                raise ConfigurationError(
                    f"unknown ortho universe {self.ortho_universe!r}; "
                    f"expected one of {sorted(ORTHO_UNIVERSES)} or an explicit pair set"
                )
            return tuple(sorted(builder(self.k)))
        return tuple(sorted({tuple(p) for p in self.ortho_universe}))

    def candidate_estimate(self) -> int:
        lo, hi = self.d_range
        n_d = max(0, hi - lo + 1)
        n_m = (self.max_m + 1) ** self.k
        n_a = (self.max_a + 1) ** self.k if self.allow_affine else 1
        n_o = 2 ** len(self.universe_pairs())
        return n_d * n_m * n_a * n_o


@dataclass(frozen=True)
class AtlasRow:
    problem: ConstraintProblem
    d: int
    certificate: Certificate
    classification: Classification
    known: knownvalues.KnownValue | None = field(default=None)

    def known_ref(self) -> str | None:
        if self.known is None:
            return None
        if self.known.exact:
            return f"={self.known.lo}"
        return f"[{self.known.lo},{self.known.hi}]"

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "d": self.d,
            "certificate": self.certificate.to_dict(),
            "classification": self.classification.to_dict(),
            "known": None if self.known is None else self.known.to_dict(),
        }


def _ortho_subsets(pairs: tuple[tuple[int, int], ...]) -> list[tuple[tuple[int, int], ...]]:
    subsets = []
    for r in range(len(pairs) + 1):
        subsets.extend(combinations(pairs, r))
    return sorted(subsets)


def _candidates(query: AtlasQuery) -> Iterator[tuple[ConstraintProblem, int]]:
    """Counting-feasible candidates in deterministic output order.

    Each (m, a, ortho) problem is built and counted once per query; only
    those that fit some d of the range are kept, and each d then takes
    the ones whose count fits it, in (m, a, ortho) order."""
    m_values = list(product(range(query.max_m + 1), repeat=query.k))
    a_values = (
        list(product(range(query.max_a + 1), repeat=query.k))
        if query.allow_affine
        else [(0,) * query.k]
    )
    ortho_subsets = _ortho_subsets(query.universe_pairs())
    lo, hi = query.d_range
    counted = []
    for m in m_values:
        for a in a_values:
            for ortho in ortho_subsets:
                p = ConstraintProblem.of(query.k, m=m, a=a, ortho=ortho)
                c = constraint_dimension(p)
                if c <= query.k * hi:  # else counting rules it out at every d
                    counted.append((p, c))
    for d in range(lo, hi + 1):
        kd = query.k * d
        for p, c in counted:
            if c == kd or (c < kd and query.mode != "strict"):
                yield p, d


def enumerate_rows(query: AtlasQuery, jobs: int = 1) -> Iterator[AtlasRow]:
    """Stream all certified rows matching the query, in output order.

    With jobs > 1 the certificate computations run in a process pool; the
    emitted row order is the same either way.  `check` is looked up when
    the rows are first asked for, so a wrapper installed in its place sees
    every sequential check.
    """
    lo, hi = query.d_range
    if lo < 1 or hi < lo:
        raise ConfigurationError(f"bad d range {int_text(query.d_range)}")
    if query.mode not in MODES:
        raise ConfigurationError(f"bad mode {query.mode!r}")
    if query.k < 1:
        raise ConfigurationError(f"k must be >= 1, got {int_text(query.k)}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {int_text(jobs)}")
    try:
        # every candidate's ring is at least this large; refusing here also
        # keeps a huge k from building its pairs or counting its box
        RingShape(query.k, lo)
    except RangeError as exc:
        raise SearchSpaceError(f"search space too large: {exc}") from None
    estimate = query.candidate_estimate()
    if estimate > query.candidate_limit:
        small = estimate.bit_length() <= 64
        count = f"~{estimate}" if small else f"over 2^{estimate.bit_length() - 1}"
        raise SearchSpaceError(
            f"search space too large: {count} candidates exceeds limit "
            f"{int_text(query.candidate_limit)}",
            estimate if small else None,
        )

    todo = list(_candidates(query))
    columns = ([p for p, _ in todo], [d for _, d in todo], repeat(query.mode))
    with ExitStack() as stack:
        if jobs == 1:
            certs = map(check, *columns)
        else:
            from concurrent.futures import ProcessPoolExecutor  # only a parallel query needs it

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            certs = pool.map(check, *columns, chunksize=max(1, len(todo) // (4 * jobs)))
        for (p, d), cert in zip(todo, certs):
            if not cert.certified:
                continue
            label = classify(p, d)
            if query.require_optimal and label.optimal is not True:
                continue
            if query.require_maximal_j is not None and label.j_maximal < query.require_maximal_j:
                continue
            if query.require_balanced and not label.balanced:
                continue
            yield AtlasRow(p, d, cert, label, knownvalues.lookup(p))


def _row_cells(row: AtlasRow) -> list[str]:
    p = row.problem
    c = row.classification
    return [
        str(p.k),
        str(row.d),
        "(" + ",".join(map(str, p.m)) + ")",
        "(" + ",".join(map(str, p.a)) + ")",
        ";".join(f"{r}-{s}" for r, s in p.sorted_ortho()),
        ";".join("".join(map(str, b)) for b in p.extra),
        str(row.certificate.form_count),
        str(row.certificate.kd),
        row.certificate.mode,
        row.certificate.verdict,
        "" if c.optimal is None else str(c.optimal).lower(),
        str(c.j_maximal),
        str(c.balanced).lower(),
        str(c.tight).lower(),
        row.known_ref() or "",
    ]


def emit_report(rows: Iterable[AtlasRow], fmt: str = "json") -> str:
    """Render rows as a document in one of REPORT_FORMATS: json, csv or
    markdown.

    Output is a pure function of the row list, so identical inputs give
    bit-identical documents.
    """
    rows = list(rows)
    if fmt == "json":
        doc = {"schema_version": jsontypes.SCHEMA_VERSION, "rows": [r.to_dict() for r in rows]}
        return json.dumps(doc, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow(_row_cells(row))
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(REPORT_COLUMNS) + " |",
            "|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(_row_cells(row)) + " |")
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}")
