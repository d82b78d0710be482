"""One workload in a fresh interpreter: set up, then measure passes.

run.py launches this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --expected FILE

setup    build the inputs, report when ready, exit
measure  untraced passes until --seconds have elapsed
trace    alternate untraced and traced passes until --seconds have
         elapsed, then run the side ops traced and take the side
         measurements; report per-layer metrics and the tracing overhead

The last line of stdout is one JSON object.  Times come from
time.perf_counter, which on Linux reads the system-wide monotonic clock,
so run.py can subtract its own launch timestamp from `ready`.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (sibling modules, importable once the script runs)
import workloads  # noqa: E402


class Checker:
    """Compares each op result with its expected value and counts failures
    and threshold misses.  A failing op is recorded and the pass goes on."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.misses: list[str] = []

    def check(self, op, result) -> tuple[str | None, str | None]:
        """(wrong output, threshold miss) of one result."""
        fp = op.fingerprint(result)
        if op.pinned:
            want = self.expected["ops"].get(op.id)
            if want is None:
                return "no expected value", None
            if fp != want:
                return f"got {fp!r}, expected {want!r}", None
            return None, None
        if self.first.setdefault(op.id, fp) != fp:
            return "result differs from the first pass of this run", None
        thresholds = self.expected["witness_thresholds"]
        return op.verify(result, thresholds), op.grade(result, thresholds)

    def record(self, op_id: str, error: str | None, miss: str | None = None) -> None:
        """Count one attempted op; a wrong output outranks a threshold miss."""
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{op_id}: {error}")
        elif miss is not None:
            self.misses.append(f"{op_id}: {miss}")


def run_pass(ops, checker: Checker, recorder=None) -> tuple[float, list[float]]:
    """One pass over `ops`; returns its wall time and the op latencies.
    With a recorder, every op also records a span named after its kind."""
    latencies = []
    t_pass = time.perf_counter()
    for op in ops:
        span = recorder.begin(op.kind) if recorder else None
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failing op counts toward fail_frac
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if span is not None:
            recorder.end(span)
            if error is None and op.kind in tracing.RESULT_ATTRS:
                span.attrs.update(tracing.RESULT_ATTRS[op.kind](result))
        miss = None
        if error is None:
            try:
                error, miss = checker.check(op, result)
            except Exception as exc:  # malformed output is a mismatch
                error = f"check raised {type(exc).__name__}: {exc}"
        checker.record(op.id, error, miss)
    return time.perf_counter() - t_pass, latencies


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--expected", required=True)
    args = parser.parse_args()

    expected = json.loads(Path(args.expected).read_text())
    samples: list[float] = []
    wl = workloads.build(args.workload, args.seed, samples.append)
    out: dict = {"ready": time.perf_counter()}
    if args.mode == "measure":
        out.update(measure(wl, expected, args.seconds))
    elif args.mode == "trace":
        out.update(trace(wl, expected, args.seconds, args.seed, sum(samples)))
    print(json.dumps(out))
    return 0


def measure(wl, expected: dict, seconds: float) -> dict:
    checker = Checker(expected)
    walls, latencies = [], []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        wall, lat = run_pass(wl.ops, checker)
        walls.append(wall)
        latencies.append(lat)
    return {
        "walls": walls,
        "latencies": latencies,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "misses": checker.misses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(wl, expected: dict, seconds: float, seed: int, sample_s: float) -> dict:
    checker = Checker(expected)
    plain, traced, pass_spans = [], [], []
    first_recorder = None
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        if len(plain) <= len(traced):
            plain.append(run_pass(wl.ops, checker)[0])
            continue
        recorder = tracing.SpanRecorder(f"{wl.name}-seed{seed}-pass{len(plain) + len(traced)}")
        with tracing.installed(recorder):
            traced.append(run_pass(wl.ops, checker, recorder)[0])
        pass_spans.append(recorder.spans)
        first_recorder = first_recorder or recorder
    side = tracing.SpanRecorder(f"{wl.name}-seed{seed}-side")
    with tracing.installed(side):
        run_pass(wl.side_ops, checker, side)
    computed = workloads.computed_counts(wl, expected["ops"])
    pinned = expected["computed"][wl.name]
    checker.record("computed-counts", None if computed == pinned else
                   f"work counts {computed} differ from the pinned {pinned}")
    per_pass = [tracing.layer_metrics(spans + side.spans, computed["gf2.cell_passes"])
                for spans in pass_spans]
    metrics = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    try:
        extras, error = workloads.side_measurements(), None
    except Exception as exc:  # counted as a failed op, like any other
        extras, error = {}, f"raised {type(exc).__name__}: {exc}"
    checker.record("side-measurements", error)
    metrics.update(computed)
    metrics.update(extras)
    metrics["masses.sample_s"] = sample_s
    metrics["atlas.row_yield"] = _ratio(metrics["atlas.rows"], metrics["atlas.candidates"])
    metrics["atlas.candidates_per_s"] = _ratio(metrics["atlas.candidates"], metrics["atlas.query_s"])
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    # How each metric was obtained, where it is not a median over traced passes.
    notes = dict.fromkeys(computed, "computed from inputs, not measured")
    notes.update(dict.fromkeys(extras, "measured outside the passes"))
    notes["masses.sample_s"] = "during set-up of this interpreter"
    side_note = f"median of {len(traced)} traced passes, each with the side ops"
    notes.update({name: side_note for name in metrics if name not in notes})
    notes["gf2.cells_per_s"] = (f"computed gf2.cell_passes / measured product self time outside "
                                f"cli.run, median of {len(traced)} traced passes")
    notes["trace.overhead_frac"] = (f"median traced / median untraced pass - 1, "
                                    f"{len(traced)} vs {len(plain)} passes")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    first_recorder.write_jsonl(out_dir / f"spans-{wl.name}.jsonl")
    side.write_jsonl(out_dir / f"spans-{wl.name}-side.jsonl")
    return {
        "metrics": metrics,
        "notes": notes,
        "traced_passes": len(traced),
        "attempted": checker.attempted,
        "failures": checker.failures,
        "misses": checker.misses,
        "env": environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
