"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the certify and witness workloads (--seconds 1) against three copies
of expected.json and requires:

- the real one: exit 0 and no failed op;
- one certificate digest changed and the witness orthogonality threshold
  set to 0: on each workload, fail_frac > 0, failed > 0 and a non-zero
  exit (a wrong output);
- only the witness equipartition threshold set to 0: every witness op is
  a threshold miss, so fail_frac is 1, while failed stays 0 and the exit
  code 0 (a miss is reported, not a wrong output).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, expected: Path) -> tuple[int, dict, float | None]:
    """Exit code, result line and printed fail_frac of one short run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0", "--expected", str(expected)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    frac = next((float(line.split()[1]) for line in lines
                 if line.split()[:1] == ["fail_frac"]), None)
    return proc.returncode, json.loads(lines[-1]) if lines else {}, frac


def write(doc: dict, name: str) -> Path:
    path = ROOT / ".perfbench" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def main() -> int:
    real = HERE / "expected.json"
    doc = json.loads(real.read_text())
    misses_only = json.loads(real.read_text())
    misses_only["witness_thresholds"]["max_equipartition"] = 0.0
    victim = next(k for k in sorted(doc["ops"]) if k.startswith("strict/"))
    digest = doc["ops"][victim]["h_digest"]
    doc["ops"][victim]["h_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    doc["witness_thresholds"]["max_orthogonality"] = 0.0
    corrupted = write(doc, "selftest-corrupted.json")
    missing = write(misses_only, "selftest-misses.json")

    ok = True
    for workload in ("certify", "witness"):
        code, result, _ = bench(workload, real)
        clean = code == 0 and result.get("failed") == 0
        code_bad, bad, frac = bench(workload, corrupted)
        caught = code_bad != 0 and bad.get("failed", 0) > 0 and (frac or 0) > 0
        print(f"{workload}: real expected -> exit {code}, failed {result.get('failed')}; "
              f"corrupted -> exit {code_bad}, failed {bad.get('failed')} of "
              f"{bad.get('attempted')}, fail_frac {frac}")
        ok &= clean and caught
    code, result, frac = bench("witness", missing)
    print(f"witness: equipartition threshold 0 -> exit {code}, failed {result.get('failed')}, "
          f"fail_frac {frac}")
    ok &= code == 0 and result.get("failed") == 0 and frac == 1.0
    corrupted.unlink()
    missing.unlink()
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
