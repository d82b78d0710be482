"""Regenerate perfbench/expected.json from the current sources.

    python3 perfbench/regen_expected.py

Runs every pinned op of every workload once and stores its fingerprint
under the op id: verdict, D and h_digest per certificate; (d, h_digest)
per minimum-dimension search; identity results; atlas row counts and the
sha256 of each rendered report; CLI exit codes and the sha256 of stdout.
It also stores each workload's computed work counts, which every traced
run must reproduce.  Witnesses are not pinned: they are checked against
the thresholds stored alongside, in expected.json.  Op ids and pinned values do not depend on
the seed.  Regenerate only when a change is meant to alter these outputs,
and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

def main() -> int:
    ops = {}
    built = [workloads.build(name, 0, lambda _: None) for name in workloads.WORKLOADS]
    for wl in built:
        for op in wl.ops + wl.side_ops:
            if op.pinned:
                ops[op.id] = op.fingerprint(op.call())
                print(op.id, ops[op.id], flush=True)
    computed = {wl.name: workloads.computed_counts(wl, ops) for wl in built}
    doc = {"witness_thresholds": workloads.WITNESS_THRESHOLDS, "computed": computed,
           "ops": dict(sorted(ops.items()))}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(ops)} expected outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
