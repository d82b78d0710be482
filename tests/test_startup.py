"""Start-up cost: importing the package, answering certificate queries and
solving load no scipy module, and only jobs > 1 loads a process pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
import equipart, equipart.cli

def modules(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

def scipy_modules():
    return modules("scipy")

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
pools = modules("concurrent.futures")
mass = equipart.sample_gaussian_mixture(
    [{"mean": [0.0, 0.0], "cov": "I", "weight": 1}], 200, seed=0
)
equipart.solve(
    equipart.ConstraintProblem.of(1, m=(1,)), [mass],
    config=equipart.SolverConfig(starts=1),
)
print(json.dumps({"codes": codes, "imported": imported, "queried": queried,
                  "solved": scipy_modules(), "pools": pools}))
"""


@pytest.fixture(scope="module")
def probe():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_scipy_module_loads_even_after_a_solve(probe):
    assert probe["codes"] == [0, 0, 0, 0, 0, 0]
    assert probe["imported"] == [] and probe["queried"] == [] and probe["solved"] == []


def test_no_process_pool_module_without_parallel_jobs(probe):
    # the package import and the jobs=1 queries, atlas included
    assert probe["pools"] == []
