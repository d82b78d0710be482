"""Start-up cost: importing the package and answering certificate queries
loads no scipy module; only a solve imports scipy.optimize."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
import equipart, equipart.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

imported = scipy_modules()
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (
        ["check", "--k", "3", "--m", "1,1,2", "--d", "4"],
        ["bound", "--k", "4", "--m", "1", "--cite"],
        ["classify", "--k", "2", "--m", "5,2", "--ortho", "1-2", "--d", "9"],
        ["families", "cascade", "--q", "0", "--t", "1", "--k", "3"],
        ["identities", "--k", "3", "--d", "4"],
        ["atlas", "--k", "2", "--d-lo", "2", "--d-hi", "3", "--format", "csv"],
    ):
        codes.append(equipart.cli.run(argv))
queried = scipy_modules()
mass = equipart.sample_gaussian_mixture(
    [{"mean": [0.0, 0.0], "cov": "I", "weight": 1}], 200, seed=0
)
equipart.solve(
    equipart.ConstraintProblem.of(1, m=(1,)), [mass],
    config=equipart.SolverConfig(starts=1, tau_stages=2),
)
print(json.dumps({"codes": codes, "imported": imported, "queried": queried,
                  "solved": scipy_modules()}))
"""


def test_scipy_loads_only_when_a_solve_runs():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0, 0, 0, 0, 0]
    assert doc["imported"] == [] and doc["queried"] == []
    assert "scipy.optimize" in doc["solved"]
