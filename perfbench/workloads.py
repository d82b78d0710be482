"""The benchmark's workloads: inputs built from the seed, the operations
one pass runs, how each result is checked, and the work counts computed
from the inputs.

An operation is one public call into the package, or one in-process
`equipart.cli.run` invocation.  Op ids do not depend on the seed, so
expected outputs can be pinned per id in expected.json; the seed only
shuffles op order; witness masses and solver seeds come from a fixed
entropy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np

import equipart as eq
from equipart import atlas as eq_atlas
from equipart import cli as eq_cli
from equipart.atlas import AtlasQuery, emit_report, enumerate_rows
from equipart.families import FAMILIES
from equipart.gf2 import RingShape
from equipart.problems import (
    ConstraintProblem,
    all_pairs,
    compile_forms,
    last_orthogonal,
    lower_bound_dim,
)

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("certify", "witness")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One timed operation.

    `fingerprint` maps the result to a JSON value.  When `pinned`, it must
    equal the value stored under the op id in expected.json.  Otherwise
    its fingerprint must repeat in every pass of the run, `verify` reports
    wrong outputs and `grade` reports threshold misses (witnesses).
    """

    id: str
    kind: str
    call: Callable[[], Any]
    fingerprint: Callable[[Any], Any]
    pinned: bool = True
    verify: Callable[[Any, dict], str | None] | None = None
    grade: Callable[[Any, dict], str | None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (problem, d) of every product a pass computes, from the inputs and
    # the pinned answers; given expected.json's ops.
    products: Callable[[dict], list] = lambda expected: []
    # Ops every traced run runs once, traced, after its passes: the atlas
    # queries, the CLI invocations, a small search and a small solve.  Their spans count
    # toward every traced pass's per-layer metrics, so every layer does
    # some work in every traced run.
    side_ops: list[Op] = field(default_factory=list)


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------
# Family instances come from a fixed parameter grid.  Rings of more than
# MEDIUM_RING and at most FAMILY_CELL_CAP cells are checked strict and
# relaxed, and make up most of the ops.  Every SMALL_STRIDE-th smaller ring
# is checked strict, to cover rings down to about 10^2 cells.  BIG_RINGS
# adds large rings, checked strict only; the d=70 one is most of a pass.
FAMILY_CELL_CAP = 300_000
MEDIUM_RING = 10_000
SMALL_STRIDE = 8
BIG_RINGS = (("cascade", {"q": 3, "t": 2, "k": 4}),   # d=70, 25.4M cells
             ("cascade", {"q": 2, "t": 1, "k": 4}))   # d=35, 1.7M cells

# Relaxed controls whose product vanishes: inconclusive, early exit on zero.
CONTROLS = (
    (3, (3, 0, 0), "all", 9),
    (2, (7, 2), "all", 12),
    (3, (1, 4, 6), "last", 9),
    (3, (4, 2, 1), "", 13),
    (3, (5, 0, 7), "all", 15),
    (3, (7, 6, 6), "last", 25),
    (4, (2, 2, 2, 0), "", 14),
)

# Relaxed minimum-dimension searches: (k, m, ortho, d_max).
MIN_D_SEARCHES = (
    (3, (9,), "", 40),
    (4, (2, 1), "all", 30),
    (3, (4, 2), "", 40),
    (2, (5,), "", 20),
    (2, (6, 1), "all", 30),
    (3, (2, 1, 1), "last", 30),
    (4, (1, 1, 1), "", 30),
    (4, (3,), "", 30),
)

ORTHO = {"": lambda k: (), "all": all_pairs, "last": last_orthogonal}


def _family_grid():
    """(family, params) over a fixed grid, in a fixed order."""
    for k in (2, 3, 4):
        for q in range(4):
            for t in range(1, 2**q + 1):
                yield "cascade", {"q": q, "t": t, "k": k}
                yield "ortho-full", {"q": q, "t": t, "k": k}
                yield "ortho-not12", {"q": q, "t": t, "k": k}
                if k >= 3:
                    pairs = sorted(last_orthogonal(k))
                    for r in range(1, len(pairs) + 1):
                        for sub in itertools.combinations(pairs, r):
                            yield "ortho-last", {"q": q, "t": t, "k": k, "ortho": sub}
            yield "hs-cascade", {"q": q, "k": k}


def family_instances():
    out = []
    for family, params in _family_grid():
        try:
            inst = FAMILIES[family](**params)
        except eq.EquipartError:
            continue  # outside the family's parameter domain
        cells = (inst.d + 1) ** inst.problem.k
        if cells <= FAMILY_CELL_CAP:
            out.append((family, params, inst, cells))
    return out


def _label(family: str, params: dict) -> str:
    args = ",".join(
        f"{k}={'/'.join(f'{r}-{s}' for r, s in v) if k == 'ortho' else v}"
        for k, v in params.items()
    )
    return f"{family}({args})"


def drop_one_condition(p: ConstraintProblem) -> ConstraintProblem:
    """The instance minus one scalar condition: an orthogonality pair if
    there is one, else a last-stage mass, else a containment point."""
    if p.ortho:
        return ConstraintProblem.of(p.k, m=p.m, a=p.a, ortho=sorted(p.ortho)[:-1])
    m, a = list(p.m), list(p.a)
    if m[-1]:
        m[-1] -= 1
    else:
        i = max(j for j in range(p.k) if a[j])
        a[i] -= 1
    return ConstraintProblem.of(p.k, m=m, a=a, ortho=p.ortho)


def _cert_fp(cert) -> dict:
    return {"verdict": cert.verdict, "D": cert.form_count, "h_digest": cert.h_digest}


def _min_d_fp(found) -> dict:
    if found is None:
        return {"d": None}
    d, cert = found
    return {"d": d, "h_digest": cert.h_digest}


def min_d_op(p: ConstraintProblem, d_max: int, prefix: str = "") -> Op:
    return Op(f"{prefix}min-d/{p.describe()}/d_max={d_max}", "certify.find_min_certified_d",
              lambda: eq.find_min_certified_d(p, d_max, "relaxed"), _min_d_fp)


def _search_probes(p: ConstraintProblem, d_max: int, found: int | None) -> list:
    """The rings a relaxed search multiplies in: every d from the counting
    bound up to the pinned answer, or to d_max when nothing certifies."""
    top = d_max if found is None else found
    return [(p, d) for d in range(max(lower_bound_dim(p), 1), top + 1)]


def _identity_problems(k: int, d: int):
    """(name, verifier, index, problem) for every identity at (k, d).  The
    problem compiles to exactly the forms the verifier multiplies, so the
    work counts come from compile_forms."""
    out = []
    for j in range(1, k):
        if d >= k - j:
            pairs = [(r, s) for r in range(j, k + 1) for s in range(r + 1, k + 1)]
            out.append(("vandermonde", eq.verify_vandermonde, j,
                        ConstraintProblem.of(k, ortho=pairs)))
    for i in range(1, k + 1):
        if d >= 2 ** (k - i):
            m = [0] * k
            m[i - 1] = 1
            out.append(("dickson", eq.verify_dickson, i, ConstraintProblem.of(k, m=m)))
    for i in range(1, k + 1):
        if d >= k - 1:
            a = [0] * (i - 1) + [i - 1] * (k - i + 1)
            pairs = [(r, s) for r in range(i, k + 1) for s in range(r + 1, k + 1)]
            out.append(("pki_ortho", eq.verify_pki_ortho, i,
                        ConstraintProblem.of(k, a=a, ortho=pairs)))
    return out


IDENTITY_RINGS = ((4, 12), (5, 16))


def _gf2_counts(items) -> dict:
    """Forms, distinct forms, ring cells and the upper bound on cell passes
    (sum of D * (d+1)^k; a product that reaches zero stops early) over
    (problem, d) pairs."""
    forms = distinct = cells = passes = 0
    compiled: dict[ConstraintProblem, tuple[int, int]] = {}
    for p, d in items:
        if p not in compiled:
            fs = compile_forms(p)
            compiled[p] = (len(fs), len(set(fs)))
        n_forms, n_distinct = compiled[p]
        n = RingShape(p.k, d).cells
        forms += n_forms
        distinct += n_distinct
        cells += n
        passes += n_forms * n
    return {"gf2.forms": forms, "gf2.distinct_forms": distinct,
            "gf2.ring_cells": cells, "gf2.cell_passes": passes}


def build_certify(seed: int) -> Workload:
    ops: list[Op] = []
    products: list[tuple[ConstraintProblem, int]] = []

    def add_check(op_id, p, d, mode):
        ops.append(Op(op_id, "certify.check", lambda: eq.check(p, d, mode), _cert_fp))
        products.append((p, d))

    instances = family_instances()
    small = [i for i in instances if i[3] <= MEDIUM_RING][::SMALL_STRIDE]
    for family, params, inst, _ in small:
        add_check(f"strict/{_label(family, params)}", inst.problem, inst.d, "strict")
    for family, params, inst, cells in instances:
        if cells > MEDIUM_RING:
            label = _label(family, params)
            add_check(f"strict/{label}", inst.problem, inst.d, "strict")
            add_check(f"relaxed-1/{label}", drop_one_condition(inst.problem), inst.d, "relaxed")
    for family, params in BIG_RINGS:
        inst = FAMILIES[family](**params)
        add_check(f"strict/{_label(family, params)}", inst.problem, inst.d, "strict")
    for k, m, ortho, d in CONTROLS:
        p = ConstraintProblem.of(k, m=m, ortho=ORTHO[ortho](k))
        add_check(f"control/{p.describe()}/d={d}", p, d, "relaxed")
    searches = []
    for k, m, ortho, d_max in MIN_D_SEARCHES:
        p = ConstraintProblem.of(k, m=m, ortho=ORTHO[ortho](k))
        ops.append(min_d_op(p, d_max))
        searches.append((ops[-1].id, p, d_max))
    identities = []
    for k, d in IDENTITY_RINGS:
        for name, verify, index, p in _identity_problems(k, d):
            op_id = f"identity/{name}/k={k},d={d},index={index}"
            identities.append((p, d))
            ops.append(Op(op_id, f"certify.verify_{name}",
                          lambda verify=verify, k=k, index=index, d=d: verify(k, index, d),
                          lambda holds: {"holds": holds}))
    random.Random(seed).shuffle(ops)

    def all_products(expected: dict) -> list:
        items = products + identities
        for op_id, p, d_max in searches:
            items += _search_probes(p, d_max, expected[op_id]["d"])
        return items

    return Workload("certify", ops, products=all_products)


# ----------------------------------------------------------------------
# atlas
# ----------------------------------------------------------------------
ATLAS_QUERIES = {
    "k3-relaxed": AtlasQuery(k=3, d_range=(2, 10), mode="relaxed", max_m=5),
    "k4-relaxed": AtlasQuery(k=4, d_range=(2, 6), mode="relaxed", max_m=2),
    "k2-strict-affine": AtlasQuery(k=2, d_range=(2, 4), mode="strict", max_m=7,
                                   max_a=4, allow_affine=True),
}
REPORT_FORMATS = ("json", "csv", "markdown")
JOBS2_QUERY = "k3-relaxed"


def atlas_candidates(query: AtlasQuery) -> list[tuple[ConstraintProblem, int]]:
    """Counting-feasible candidates of the query box, the ones the query
    checks: the package's own private generator, so that the count cannot
    drift from what `enumerate_rows` does."""
    return list(eq_atlas._candidates(query))


def atlas_ops(seed: int) -> list[Op]:
    """Each query, then its three reports; the seed shuffles query order."""
    order = list(ATLAS_QUERIES)
    random.Random(seed).shuffle(order)
    rows: dict[str, list] = {}
    ops: list[Op] = []
    for qid in order:

        def run_query(qid=qid):
            rows[qid] = list(enumerate_rows(ATLAS_QUERIES[qid], jobs=1))
            return rows[qid]

        ops.append(Op(f"query/{qid}", "atlas.enumerate_rows", run_query,
                      lambda result: {"rows": len(result)}))
        for fmt in REPORT_FORMATS:
            ops.append(Op(f"report/{qid}/{fmt}", "atlas.emit_report",
                          lambda qid=qid, fmt=fmt: emit_report(rows[qid], fmt),
                          lambda doc: {"sha256": sha256(doc)}))
    return ops


def _jobs2_speedup() -> float:
    """jobs=1 time over jobs=2 time for one query; the rows must agree."""
    query = ATLAS_QUERIES[JOBS2_QUERY]
    t0 = time.perf_counter()
    rows1 = list(enumerate_rows(query, jobs=1))
    t1 = time.perf_counter()
    rows2 = list(enumerate_rows(query, jobs=2))
    t2 = time.perf_counter()
    if emit_report(rows1) != emit_report(rows2):
        raise AssertionError("jobs=2 rows differ from jobs=1 rows")
    return (t1 - t0) / (t2 - t1)


# ----------------------------------------------------------------------
# witness
# ----------------------------------------------------------------------
# Thresholds every witness is graded against; stored in expected.json,
# where the self-test corrupts them.  Orthogonality and containment hold by
# construction (the solver projects onto them), so missing either is a
# wrong output.  `success` and the equipartition residual depend on how
# far the optimizer got: missing them is a threshold miss, which counts
# toward fail_frac but not toward `failed`.
WITNESS_THRESHOLDS = {
    "max_equipartition": 5e-3,
    "max_orthogonality": 1e-6,
    "max_containment": 1e-9,
}
# Slack of the independent residual recomputation, on top of the weight of
# points that lie within TIE_BAND of a hyperplane (their side is ambiguous).
RECOMPUTE_SLACK = 1e-9
TIE_BAND = 1e-9


def _max_residuals(doc: dict) -> tuple[float, float, float]:
    res = doc["residuals"]
    return (
        max((abs(v) for vals in res["equipartition"].values() for v in vals), default=0.0),
        max((abs(v) for v in res["orthogonality"].values()), default=0.0),
        max((abs(c["residual"]) for c in res["containment"]), default=0.0),
    )


def witness_misses(doc: dict, thresholds: dict) -> str | None:
    """Threshold misses of a witness document (`MassArrangementWitness.to_dict`)."""
    eq_max, _, _ = _max_residuals(doc)
    misses = []
    if doc["success"] is not True:
        misses.append("success is not true")
    if not eq_max < thresholds["max_equipartition"]:
        misses.append(f"equipartition residual {eq_max:.3g}")
    return "; ".join(misses) or None


def witness_errors(doc: dict, thresholds: dict, masses, k: int) -> str | None:
    """Wrong outputs in a witness document: orthogonality or containment
    over its threshold, an objective or `success` flag that disagrees with
    the reported residuals, or equipartition residuals that disagree with
    the region masses recomputed here from the hyperplanes and the points."""
    _, orth_max, cont_max = _max_residuals(doc)
    res = doc["residuals"]
    errors = []
    if not orth_max < thresholds["max_orthogonality"]:
        errors.append(f"orthogonality residual {orth_max:.3g}")
    if not cont_max < thresholds["max_containment"]:
        errors.append(f"containment residual {cont_max:.3g}")
    squares = ([v for vals in res["equipartition"].values() for v in vals]
               + list(res["orthogonality"].values())
               + [c["residual"] for c in res["containment"]])
    objective = sum(v * v for v in squares)  # unit weights, as in SolverConfig
    if abs(objective - doc["objective"]) > 1e-9 * max(1.0, objective):
        errors.append(f"objective {doc['objective']:.6g}, residuals give {objective:.6g}")
    if doc["success"] != (doc["objective"] < doc["config"]["tol"]):
        errors.append("success flag disagrees with objective < tol")
    planes = [(np.asarray(h["normal"]), h["offset"]) for h in doc["hyperplanes"]]
    for mass in masses:
        stage = int(mass.label.split(".")[0])
        dist = np.stack([mass.points @ n - b for n, b in planes[stage - 1:]], axis=1)
        bits = (dist < 0).astype(np.intp) << np.arange(dist.shape[1])
        regions = np.bincount(bits.sum(axis=1), weights=mass.weights, minlength=2 ** dist.shape[1])
        dev = regions / mass.total - 2.0 ** -(k - stage + 1)
        ambiguous = mass.weights[(np.abs(dist) <= TIE_BAND).any(axis=1)].sum() / mass.total
        worst = float(np.max(np.abs(dev - np.asarray(res["equipartition"][mass.label]))))
        if worst > RECOMPUTE_SLACK + ambiguous:
            errors.append(f"mass {mass.label}: reported residuals off by {worst:.3g}")
    return "; ".join(errors) or None


def witness_op(op_id: str, problem: ConstraintProblem, masses: list, points: list,
               config) -> Op:
    return Op(op_id, "solver.solve",
              lambda: eq.solve(problem, masses, points, config),
              lambda w: sha256(w.to_json()), pinned=False,
              verify=lambda w, th: witness_errors(w.to_dict(), th, masses, problem.k),
              grade=lambda w, th: witness_misses(w.to_dict(), th))


# The masses and solver seeds come from this fixed entropy, not from the
# benchmark seed: the objective evaluations a solve needs, and so its time,
# vary from draw to draw (2.3 to 6.2 s for one k=3 solve, see METRICS.md),
# which made the pass time differ from seed to seed by more than any bound.
WITNESS_ENTROPY = 0


def build_witness(seed: int, record_sample: Callable[[float], None]) -> Workload:
    """Three instance shapes, one draw each, solved with the default
    SolverConfig (jobs=1).  The masses and solver seeds are drawn from
    WITNESS_ENTROPY; the seed shuffles op order."""

    def sample(mean, cov, n, s, label):
        t0 = time.perf_counter()
        mass = eq.sample_gaussian_mixture([{"mean": mean, "cov": cov, "weight": 1}], n,
                                          seed=s, label=label)
        record_sample(time.perf_counter() - t0)
        return mass

    def draw_bisect(s, rng):
        """k=1: bisect two masses in R^2 (acceptance 8a), 100k points each."""
        far = [float(x) for x in rng.uniform(-2.0, 2.0, size=2)]
        return (ConstraintProblem.of(1, m=(2,)),
                [sample([0.0, 0.0], "I", 100_000, s[0], "1.1"),
                 sample(far, 0.5, 100_000, s[1], "1.2")], [])

    def draw_ortho_pair(s, rng):
        """k=2: orthogonal pair, hyperplane 2 through the sample mean (8c), 50k points."""
        m = sample([0.0, 0.0], "I", 50_000, s[0], "1.1")
        return (ConstraintProblem.of(2, m=(1, 0), a=(0, 1), ortho=[(1, 2)]),
                [m], [(2, m.points.mean(axis=0))])

    def draw_one_mass_r3(s, rng):
        """k=3: three hyperplanes equipartition one standard Gaussian mass in
        R^3, 20k points.  Centred: off-centre masses need a varying number
        of solver starts (see METRICS.md), which no pass time survives."""
        return (ConstraintProblem.of(3, m=(1,)),
                [sample([0.0, 0.0, 0.0], "I", 20_000, s[0], "1.1")], [])

    shapes = {"bisect-two-masses-R2": draw_bisect,
              "ortho-pair-through-point-R2": draw_ortho_pair,
              "one-mass-R3": draw_one_mass_r3}
    ops = []
    for (name, make), stream in zip(shapes.items(),
                                    np.random.SeedSequence(WITNESS_ENTROPY).spawn(len(shapes))):
        s = stream.spawn(3)
        rng = np.random.default_rng(s[2])
        problem, masses, points = make(s, rng)
        config = eq.SolverConfig(seed=int(rng.integers(2**31)), jobs=1)
        ops.append(witness_op(f"solve/{name}", problem, masses, points, config))
    random.Random(seed).shuffle(ops)
    return Workload("witness", ops)


def side_solve_op(record_sample: Callable[[float], None]) -> Op:
    """A small k=1 bisection of one 2k-point mass in R^2, default config."""
    s = np.random.SeedSequence([WITNESS_ENTROPY, 1]).spawn(2)
    t0 = time.perf_counter()
    mass = eq.sample_gaussian_mixture([{"mean": [0.0, 0.0], "cov": "I", "weight": 1}], 2_000,
                                      seed=s[0], label="1.1")
    record_sample(time.perf_counter() - t0)
    config = eq.SolverConfig(seed=int(np.random.default_rng(s[1]).integers(2**31)), jobs=1)
    return witness_op("side/solve/bisect-one-mass-R2", ConstraintProblem.of(1, m=(1,)),
                      [mass], [], config)


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------
# The README's small arguments, one per subcommand form that needs no input
# file (`solve` is covered by the side solve).
CLI_INVOCATIONS = {
    "check-strict": ["check", "--k", "3", "--m", "1,1,2", "--d", "4"],
    "check-relaxed": ["check", "--k", "3", "--m", "3", "--ortho", "all", "--d", "9",
                      "--mode", "relaxed"],
    "bound": ["bound", "--k", "4", "--m", "1"],
    "classify": ["classify", "--k", "2", "--m", "5,2", "--ortho", "1-2", "--d", "9"],
    "families-cascade": ["families", "cascade", "--q", "0", "--t", "1", "--k", "3"],
    "families-ortho-last": ["families", "ortho-last", "--q", "1", "--t", "1", "--k", "3",
                            "--ortho", "2-3", "--cite"],
    "identities": ["identities", "--k", "4", "--d", "8"],
    "atlas-csv": ["atlas", "--k", "2", "--d-lo", "2", "--d-hi", "4", "--max-m", "7",
                  "--max-a", "4", "--format", "csv"],
}
LAUNCH_REPEATS = 5


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = eq_cli.run(argv)
    return code, out.getvalue()


def cli_ops(seed: int) -> list[Op]:
    """In-process `cli.run` of each invocation, with `--seed`; pinned by exit
    code and the sha256 of stdout.  The seed shuffles their order."""
    items = list(CLI_INVOCATIONS.items())
    random.Random(seed).shuffle(items)
    return [
        Op(f"cli/{name}", "cli.run", lambda argv=[*argv, "--seed", str(seed)]: _run_cli(argv),
           lambda result: {"exit": result[0], "stdout_sha256": sha256(result[1])})
        for name, argv in items
    ]


def _median_launch_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(LAUNCH_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return 1000.0 * median(times)


# A small relaxed search among the side ops.
SIDE_SEARCH = (ConstraintProblem.of(3, m=(9,)), 40)


def computed_counts(wl: Workload, expected: dict) -> dict:
    """Work counts of one traced pass plus the side ops, from the inputs;
    the CLI side ops are not counted.  They do not depend on the seed, so
    expected.json pins them per workload and every traced run compares its
    counts with the pinned ones."""
    atlas = [c for q in ATLAS_QUERIES.values() for c in atlas_candidates(q)]
    box = sum(q.candidate_estimate() for q in ATLAS_QUERIES.values())
    p, d_max = SIDE_SEARCH
    search = _search_probes(p, d_max, expected[min_d_op(p, d_max, "side/").id]["d"])
    return {"atlas.box": box, "atlas.candidates": len(atlas),
            **_gf2_counts(wl.products(expected) + atlas + search)}


def side_measurements() -> dict:
    """Measurements every traced run takes outside its passes."""
    interp = _median_launch_ms("pass")
    imported = _median_launch_ms("import equipart")
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp,
            "atlas.jobs2_speedup": _jobs2_speedup()}


def build(name: str, seed: int, record_sample: Callable[[float], None]) -> Workload:
    if name == "certify":
        wl = build_certify(seed)
    elif name == "witness":
        wl = build_witness(seed, record_sample)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.side_ops = (atlas_ops(seed) + cli_ops(seed)
                   + [min_d_op(*SIDE_SEARCH, prefix="side/"), side_solve_op(record_sample)])
    return wl
