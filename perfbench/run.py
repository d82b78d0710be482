"""Benchmark of the equipart package, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn.  Each workload runs in fresh interpreters (perfbench/worker.py),
sequentially, one process at a time.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics.  Every op result is checked
against perfbench/expected.json (or witness thresholds).

Output: a human-readable summary, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  `failed` counts wrong
outputs: exceptions, mismatches with expected.json, witnesses that differ
between passes or disagree with their own residuals.  A witness that is
correct but misses the success or equipartition threshold is a threshold
miss: it counts toward the printed fail_frac, not toward `failed`.  Exit
code 0 when every output was correct, 1 when any op failed, 2 when the
benchmark could not run (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"

# Interpreter launches per --trace 0 run whose set-up is timed; setup_s is
# their median.  One of them goes on to measure.
SETUP_LAUNCHES = 5
# Every run must end well inside three minutes.
RUN_DEADLINE_S = 170.0

LIMITS = (
    "no hardware counters",
    "no cache dropping",
    "no machine-wide tracing",
    "bytes and cells moved are computed, not measured",
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def launch(args, mode: str, expected: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker interpreter; returns its launch time and its result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--expected", str(expected)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {args.workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} worker for {args.workload} exited {proc.returncode}:\n"
            + proc.stderr.strip()[-2000:]
        )
    return t0, json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine() -> dict:
    """Read-only facts about the machine, taken at the start of the run."""
    models = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    return {
        "cpu": models[0] if models else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": " ".join(_read("/proc/loadavg").split()[:3]) or "unknown",
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(args, expected: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        t0, out = launch(args, "setup", expected, deadline)
        setups.append(out["ready"] - t0)
    t0, out = launch(args, "measure", expected, deadline)
    setups.append(out["ready"] - t0)
    # Op latency percentiles are printed but not gated: on a shared machine
    # they swing with its speed far more than the pass times do.  Each op's
    # latency is its median over the run's passes.
    passes = len(out["latencies"])
    lat_ms = [1000.0 * median(per_op) for per_op in zip(*out["latencies"])]
    p90 = quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    n = f"{len(lat_ms)} ops, each the median of {passes} passes"
    values = {
        "setup_s": (median(setups), f"median of {len(setups)} interpreter launches"),
        "wall_s": (median(out["walls"]), f"median of {len(out['walls'])} passes"),
        "peak_rss_mb": (out["peak_rss_mb"], "the measuring process"),
    }
    info = [
        f"  {'op_p50_ms':28s} {_fmt(median(lat_ms)):>14s} ms     ({n}; not gated)",
        f"  {'op_p90_ms':28s} {_fmt(p90):>14s} ms     "
        f"({n}; {sum(x > p90 for x in lat_ms)} beyond it; not gated)",
    ]
    return values, out, info


def per_layer(args, expected: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    _, out = launch(args, "trace", expected, deadline)
    median_of = f"median of {out['traced_passes']} traced passes"
    values = {name: (value, out["notes"].get(name, median_of))
              for name, value in out["metrics"].items()}
    return values, out, [f"spans: .perfbench/spans-{args.workload}*.jsonl (first traced pass, side ops)"]


def run_one(args, spec: dict, expected: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    host = machine()
    measure = per_layer if args.trace else end_to_end
    values, out, extra_lines = measure(args, expected, deadline)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise BenchError(f"metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")

    failed = len(out["failures"])
    missed = len(out["misses"])
    attempted = out["attempted"]
    env = out["env"]
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"machine: cpu={host['cpu']!r} nproc={host['nproc']} loadavg at start={host['loadavg']}",
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}",
        "limits: " + "; ".join(LIMITS)
        + f"; {host['nproc']} shared cores, so no wall-clock scaling claim",
    ]
    for m in declared:
        value, how = values[m["name"]]
        lines.append(f"  {m['name']:28s} {_fmt(value):>14s} {m['unit']:6s} ({how})")
    lines.append(f"  {'fail_frac':28s} {_fmt((failed + missed) / attempted):>14s} ratio  "
                 f"({failed} wrong outputs + {missed} witness threshold misses "
                 f"of {attempted} ops)")
    lines += extra_lines + [f"  FAILED {f}" for f in out["failures"][:20]]
    lines += [f"  MISSED {m}" for m in out["misses"][:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="expected outputs (the self-test passes a corrupted copy)")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "equipart" / "__init__.py").is_file():
            raise BenchError(f"no equipart sources under {ROOT / 'src'}")
        if not args.expected.is_file():
            raise BenchError(f"missing expected outputs {args.expected}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        results = {}
        for name in names if args.workload == "all" else [args.workload]:
            result, lines = run_one(argparse.Namespace(**{**vars(args), "workload": name}),
                                    spec, args.expected)
            print("\n".join(lines), flush=True)
            results[name] = result
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        combined = results[args.workload]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
