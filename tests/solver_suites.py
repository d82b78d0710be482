"""Fixed-seed random solver suites: success, work and residual counts.

Not a test module (pytest does not collect it).  A change to the solver's
schedule or objective should not lose witnesses; these suites count, for
a fixed set of random instances, how many the solver finds and at what
cost, so two versions of the package can be compared on the same inputs.

Run from the repository root, with the package to measure on the path:

    PYTHONPATH=src python tests/solver_suites.py
    PYTHONPATH=/other/checkout/src python tests/solver_suites.py --record other.jsonl

Each suite prints one JSON line: solves, successes, starts run, smoothed
objective evaluations, threshold misses (successful solves whose largest
equipartition residual is 5e-3 or more) and the wall time of its solves.
`--record FILE` also writes one JSON line per solve, so the success sets
of two runs can be compared instance by instance:

    PYTHONPATH=src python tests/solver_suites.py --compare other.jsonl this.jsonl

runs no solves.  It prints one JSON line per suite and one for the total:
the evaluations of both runs and their ratio (new / old), the successes
lost and gained, the threshold misses added and removed, and the solves
whose number of starts changed, each instance named "<suite> <seed> #<index>".

Every instance has at most kd conditions, no stage cut by more planes
than the dimension (`solve` refuses those), and a free normal direction
left on every plane after its orthogonality partners and containment
points.  Existence is not checked, so some instances fail in every
version.  The suites, by instance kind:

  general      k 1..3, d 1..4, one Gaussian per mass, some orthogonality
               pairs and containment points, 2,000-5,000 points
  tight        as general, with exactly kd conditions
  multimodal   as general, each mass a mixture of 2-3 Gaussians
  constrained  as general, with orthogonality pairs and containment
               points three times as often
  pinned       k = 1, d masses in R^d
  medium       as general with 1-3 Gaussians per mass, 5,000-20,000 points
  large        k = d = 2 or 3, otherwise as general, 20,000-40,000 points
  xlarge       as large, 40,000-100,000 points (the sizes of the
               benchmark solves)
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from equipart.masses import sample_gaussian_mixture
from equipart.problems import ConstraintProblem, constraint_dimension
from equipart.solver import SolverConfig, solve

THRESHOLD = 5e-3
STARTS = 8
SEEDS = (7, 8, 9, 10, 11)
# suite: (instances per seed, points per mass, Gaussians per mass, constraint rate)
SUITES = {
    "general": (75, (2_000, 5_000), (1, 1), 0.15),
    "tight": (60, (2_000, 5_000), (1, 1), 0.15),
    "multimodal": (75, (2_000, 5_000), (2, 3), 0.15),
    "constrained": (60, (2_000, 5_000), (1, 1), 0.45),
    "pinned": (40, (2_000, 5_000), (1, 1), 0.0),
    "medium": (100, (5_000, 20_000), (1, 3), 0.15),
    "large": (100, (20_000, 40_000), (1, 1), 0.15),
    "xlarge": (40, (40_000, 100_000), (1, 1), 0.15),
}


def _dims(rng: np.random.Generator, suite: str) -> tuple[int, int]:
    if suite in ("large", "xlarge"):
        k = int(rng.integers(2, 4))
        return k, k
    if suite == "pinned":
        return 1, int(rng.integers(1, 5))
    return int(rng.integers(1, 4)), int(rng.integers(1, 5))


def _problem(rng: np.random.Generator, suite: str, rate: float) -> tuple[ConstraintProblem, int]:
    """A random instance of the suite's kind that `solve` accepts and
    whose planes keep a free direction; drawn again until one is."""
    while True:
        k, d = _dims(rng, suite)
        if suite == "pinned":
            problem = ConstraintProblem.of(1, m=(d,))
        else:
            m = [int(rng.integers(0, 3)) for _ in range(k)]
            pairs = [(r, s) for s in range(2, k + 1) for r in range(1, s) if rng.random() < rate]
            a = [int(rng.random() < rate) + int(rng.random() < rate / 3) for _ in range(k)]
            problem = ConstraintProblem.of(k, m=m, a=a, ortho=pairs)
        if not any(problem.m):
            continue
        first = next(i for i, count in enumerate(problem.m) if count)
        conditions = constraint_dimension(problem)
        fits = conditions == k * d if suite == "tight" else conditions <= k * d
        free = all(
            sum(1 for _, s in problem.ortho if s == i) + problem.a[i - 1] < d
            for i in range(1, k + 1)
        )
        if fits and free and k - first <= d:
            return problem, d


def _masses(rng: np.random.Generator, problem: ConstraintProblem, d: int, sizes, gaussians):
    masses = []
    for i, count in enumerate(problem.m, start=1):
        for j in range(1, count + 1):
            mixture = [
                {"mean": rng.uniform(-2, 2, d).tolist(), "cov": float(rng.uniform(0.2, 1.5)),
                 "weight": float(rng.uniform(0.5, 1.5))}
                for _ in range(int(rng.integers(gaussians[0], gaussians[1] + 1)))
            ]
            n = int(rng.integers(sizes[0], sizes[1] + 1))
            masses.append(sample_gaussian_mixture(mixture, n, rng.integers(2**32), f"{i}.{j}"))
    return masses


def run_suite(suite: str, record) -> dict:
    per_seed, sizes, gaussians, rate = SUITES[suite]
    summary = dict.fromkeys(("solves", "successes", "starts_run", "evaluations",
                             "threshold_misses"), 0)
    wall = 0.0
    for seed in SEEDS:
        for index in range(per_seed):
            rng = np.random.default_rng([seed, list(SUITES).index(suite), index])
            problem, d = _problem(rng, suite, rate)
            masses = _masses(rng, problem, d, sizes, gaussians)
            points = [(i, rng.uniform(-1, 1, d).tolist())
                      for i in range(1, problem.k + 1) for _ in range(problem.a[i - 1])]
            config = SolverConfig(seed=index, starts=STARTS)
            t0 = time.perf_counter()
            w = solve(problem, masses, points, config)
            wall += time.perf_counter() - t0
            worst = w.max_equipartition_residual()
            summary["solves"] += 1
            summary["successes"] += w.success
            summary["starts_run"] += w.diagnostics["starts_run"]
            summary["evaluations"] += w.diagnostics["evaluations"]
            summary["threshold_misses"] += w.success and worst >= THRESHOLD
            if record:
                record.write(json.dumps({
                    "suite": suite, "seed": seed, "index": index,
                    "problem": problem.describe(), "d": d,
                    "points": [m.points.shape[0] for m in masses],
                    "success": w.success, "objective": w.objective,
                    "max_equipartition": worst, **w.diagnostics,
                }) + "\n")
    return {"suite": suite, "seeds": list(SEEDS), **summary, "wall_s": round(wall, 3)}


def _read_record(path: str) -> dict:
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return {(row["suite"], row["seed"], row["index"]): row for row in rows}


def _missed(row: dict) -> bool:
    return row["success"] and row["max_equipartition"] >= THRESHOLD


def compare(old: dict, new: dict) -> list[dict]:
    """Per suite and in total, how the solves recorded in `new` differ
    from the same instances recorded in `old`."""
    if old.keys() != new.keys():
        raise SystemExit("the two records do not hold the same solves")
    groups = {suite: [key for key in old if key[0] == suite] for suite in SUITES}
    groups = {suite: keys for suite, keys in groups.items() if keys} | {"total": list(old)}
    reports = []
    for suite, keys in groups.items():

        def changed(test):
            return ["%s %d #%d" % key for key in keys if test(old[key], new[key])]

        evaluations = [sum(run[key]["evaluations"] for key in keys) for run in (old, new)]
        reports.append({
            "suite": suite, "solves": len(keys), "evaluations": evaluations,
            "ratio": round(evaluations[1] / evaluations[0], 4),
            "successes_lost": changed(lambda a, b: a["success"] and not b["success"]),
            "successes_gained": changed(lambda a, b: b["success"] and not a["success"]),
            "misses_added": changed(lambda a, b: _missed(b) and not _missed(a)),
            "misses_removed": changed(lambda a, b: _missed(a) and not _missed(b)),
            "starts_changed": [["%s %d #%d" % key, old[key]["starts_run"], new[key]["starts_run"]]
                               for key in keys
                               if old[key]["starts_run"] != new[key]["starts_run"]],
        })
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--record", help="also write one JSON line per solve to this file")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       help="compare two --record files; runs no solves")
    args = parser.parse_args(argv)
    if args.compare:
        for report in compare(*map(_read_record, args.compare)):
            print(json.dumps(report))
        return 0
    record = open(args.record, "w") if args.record else None
    try:
        for suite in SUITES:
            print(json.dumps(run_suite(suite, record)), flush=True)
    finally:
        if record:
            record.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
