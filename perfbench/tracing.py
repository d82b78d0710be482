"""In-memory span recorder for the traced benchmark run.

A span records one call into a layer: its name, start, end, the span that
was open when it began (its parent) and the run id.  Spans stay in memory
while the run measures and are written out as JSON lines at the end.

`installed` wraps the module-level public names that the layers call
across module boundaries, so that each such call records a span, and puts
the originals back afterwards.  The untraced run installs nothing.  Spans
come only from these wrappers and from the benchmark's own calls; the
package itself is not instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from statistics import median


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_time", "attrs")

    def __init__(self, id: int, name: str, parent: "Span | None", start: float):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_time = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by direct children.  Children
        are synchronous calls nested inside the parent, so they never
        overlap and their durations add up."""
        return self.duration - self.child_time


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.id,
                            "name": s.name,
                            "parent": None if s.parent is None else s.parent.id,
                            "start": s.start,
                            "end": s.end,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# Span attributes read from a call's result, by span name; used for wrapped
# calls and for the benchmark's own op spans alike.
RESULT_ATTRS = {
    "gf2.product_of_forms": lambda h: {"zero": h.is_zero()},
    "certify.check": lambda cert: {"certified": cert.certified},
    "atlas.enumerate_rows": lambda rows: {"rows": len(rows)},
    "solver.minimize": lambda res: {"nfev": int(res.nfev)},
    "solver.solve": lambda w: {
        "starts_run": w.diagnostics["starts_run"],
        "degenerate_restarts": w.diagnostics["degenerate_restarts"],
    },
}


def _wrap(recorder: SpanRecorder, original, name: str, before=None):
    """A stand-in for `original` that records a span around each call.
    `before(*args)` and RESULT_ATTRS[name](result) give span attributes;
    they run outside the timed interval."""
    after = RESULT_ATTRS.get(name)

    def wrapper(*args, **kwargs):
        attrs = before(*args, **kwargs) if before else None
        span = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(span)
        if attrs:
            span.attrs.update(attrs)
        if after:
            span.attrs.update(after(result))
        return result

    return wrapper


def _point_planes(mass, hyperplanes, stage, *args, **kwargs) -> dict:
    return {"point_planes": mass.points.shape[0] * (len(hyperplanes) - stage + 1)}


def _targets():
    """(owner, attribute, span name, before) for every wrapped name: the
    names one layer looks up in its own module namespace when it calls
    another layer."""
    from equipart import atlas, certify, solver
    from equipart.gf2 import TruncatedPolynomial

    return [
        (certify, "product_of_forms", "gf2.product_of_forms", None),
        (certify, "compile_forms", "problems.compile_forms", None),
        (TruncatedPolynomial, "digest", "gf2.digest", None),
        (atlas, "check", "certify.check", None),
        (atlas, "classify", "problems.classify", None),
        (solver, "region_masses", "masses.region_masses", _point_planes),
        (solver, "minimize", "solver.minimize", None),
        (solver, "assemble_hyperplanes", "solver.assemble_hyperplanes", None),
    ]


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, before in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(recorder, original, name, before))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ----------------------------------------------------------------------
def _under(span: Span, name: str) -> bool:
    """Whether a span named `name` encloses `span`."""
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(spans: list[Span], cell_passes: int) -> dict[str, float]:
    """Busy time, self time and work counts per layer for one pass.
    `cell_passes` is the computed cell-pass count of the products outside
    the CLI invocations; `gf2.cells_per_s` divides it by the self time of
    those same products."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    min_d_probes = 0
    product_s_outside_cli = 0.0
    cli_runs: list[float] = []
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + s.self_time
        count[s.name] = count.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            if isinstance(value, (bool, int, float)):
                attr_sum[s.name, key] = attr_sum.get((s.name, key), 0.0) + float(value)
        if s.name == "gf2.product_of_forms":
            if s.parent is not None and s.parent.name == "certify.find_min_certified_d":
                min_d_probes += 1
            if not _under(s, "cli.run"):
                product_s_outside_cli += s.self_time
        if s.name == "cli.run":
            cli_runs.append(s.duration)

    def a(name, key):
        return attr_sum.get((name, key), 0.0)

    region_s = own.get("masses.region_masses", 0.0)
    return {
        "gf2.product_s": own.get("gf2.product_of_forms", 0.0),
        "gf2.products": count.get("gf2.product_of_forms", 0),
        "gf2.zero_products": a("gf2.product_of_forms", "zero"),
        "gf2.cells_per_s": (
            cell_passes / product_s_outside_cli if product_s_outside_cli else 0.0
        ),
        "gf2.digest_s": own.get("gf2.digest", 0.0),
        "problems.compile_s": own.get("problems.compile_forms", 0.0),
        "problems.classify_s": own.get("problems.classify", 0.0),
        "certify.check_self_s": own.get("certify.check", 0.0),
        "certify.checks": count.get("certify.check", 0),
        "certify.certified": a("certify.check", "certified"),
        "certify.min_d_s": total.get("certify.find_min_certified_d", 0.0),
        "certify.min_d_probes": min_d_probes,
        "atlas.query_s": total.get("atlas.enumerate_rows", 0.0),
        "atlas.rows": a("atlas.enumerate_rows", "rows"),
        "atlas.report_s": total.get("atlas.emit_report", 0.0),
        "masses.region_calls": count.get("masses.region_masses", 0),
        "masses.region_s": region_s,
        "masses.point_planes_per_s": (
            a("masses.region_masses", "point_planes") / region_s if region_s else 0.0
        ),
        "solver.minimize_calls": count.get("solver.minimize", 0),
        "solver.nfev": a("solver.minimize", "nfev"),
        "solver.assemble_s": own.get("solver.assemble_hyperplanes", 0.0),
        "solver.self_s": own.get("solver.solve", 0.0) + own.get("solver.minimize", 0.0),
        "solver.starts_run": a("solver.solve", "starts_run"),
        "solver.degenerate_restarts": a("solver.solve", "degenerate_restarts"),
        "cli.run_ms": 1000.0 * median(cli_runs) if cli_runs else 0.0,
    }
