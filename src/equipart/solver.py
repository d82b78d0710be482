"""Numerical construction of witness arrangements.

Given sampled masses and an instance, searches (S^d)^k for k hyperplanes
meeting the cascade, orthogonality and containment conditions.  The
criterion in `certify` guarantees existence for certified instances but
gives no construction, so this is a best-effort multi-start optimizer:

  * raw parameters are one unnormalized vector in R^(d+1) per hyperplane;
  * orthogonality pairs and containment points are eliminated exactly
    during assembly (normals projected by Gram-Schmidt onto the admissible
    subspace, offsets pinned through the prescribed points), so those
    residual blocks sit at machine precision throughout;
  * the equipartition block is annealed: orthant indicators are smoothed
    by logistics of signed distance at temperature tau, tau falling
    geometrically, and each temperature is one L-BFGS run on the analytic
    gradient (the squared deviations' derivative pulled back to the plane
    vectors by `region_masses`, and through the assembly by `_assembly_vjp`);
    a start carries one L-BFGS memory through all its temperatures, so each
    stage opens with the curvature the stages before it learned;
  * the hard objective is evaluated once, at the last L-BFGS point, to
    score the start, and the best start's evaluation is the witness; it
    is never optimized directly (region masses of a point cloud are
    piecewise constant, so it has no useful gradient);
  * every start runs the same 4-stage schedule, one stage per
    temperature from the handoff down to TAU_FINAL, each on a stride
    subsample of each mass capped by ANNEAL_POINTS: 5,000 points for the
    two warmest, 20,000 for the third and the full sample for the
    coldest; even starts set out from planes through the mass means, odd
    ones from random planes;
  * starts run in index order and the search stops at the first start
    whose hard objective is below `tol`.

`SolverConfig` holds only what a caller chooses: the seed, the number of
starts, `tol` and the number of worker processes.  The schedule, the
anneal subsample caps and the degenerate-restart limit are module
constants.

An instance no arrangement can satisfy because some stage's mass needs
more regions than its planes cut (n > d planes) is refused with
`ConfigurationError` before any start.  Failure to converge is reported
via success=False on the witness, never as an exception.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import jsontypes
from .exceptions import ConfigurationError, EquipartError, RangeError, ShapeError
from .jsontypes import SCHEMA_VERSION
from .lbfgs import DEGENERATE_SCORE, MEMORY, minimize
from .masses import MIN_NORMAL_NORM, HyperplaneParam, SampledMass, parse_label, region_masses
from .problems import ConstraintProblem

# Annealing schedule, the same for every start: one stage per entry of
# ANNEAL_POINTS, at temperatures geometric from the handoff,
# TAU_HANDOFF_FACTOR times the data diameter, down to TAU_FINAL, each of at
# most ANNEAL_MAXITER L-BFGS iterations.  Stage s anneals on each mass
# strided down to at most ANNEAL_POINTS[s] points; None is the full sample.
TAU_FINAL = 1e-3
TAU_HANDOFF_FACTOR = 0.02
ANNEAL_POINTS = (5_000, 5_000, 20_000, None)
ANNEAL_MAXITER = 50
DEGENERATE_TOL = 1e-6  # unit plane vectors this close, up to sign, coincide
# A start whose final planes degenerate or coincide is redrawn from its own
# RNG stream at most this many times.
MAX_DEGENERATE_RESTARTS = 3


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    starts: int = 32
    tol: float = 1e-3
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("seed", "starts", "jobs"):
            jsontypes.integer(getattr(self, name), name)
        jsontypes.number(self.tol, "tol")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.starts < 1:
            raise ConfigurationError(f"starts must be >= 1, got {self.starts}")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if not math.isfinite(self.tol):
            raise RangeError(f"tol must be finite, got {self.tol}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class MassArrangementWitness:
    """Hyperplane arrangement plus its per-condition residual breakdown.

    Equipartition residuals are per orthant, normalized by each mass's
    total; orthogonality residuals are cosines between normals;
    containment residuals are signed point-to-hyperplane distances.
    """

    hyperplanes: tuple[HyperplaneParam, ...]
    equipartition: dict[str, tuple[float, ...]]
    orthogonality: dict[str, float]
    containment: tuple[dict, ...]
    objective: float
    success: bool | None = None
    seed: int | None = None
    config: dict | None = None
    diagnostics: dict | None = field(default=None)

    def max_equipartition_residual(self) -> float:
        worst = 0.0
        for vals in self.equipartition.values():
            for v in vals:
                worst = max(worst, abs(v))
        return worst

    def max_orthogonality_residual(self) -> float:
        return max((abs(v) for v in self.orthogonality.values()), default=0.0)

    def max_containment_residual(self) -> float:
        return max((abs(c["residual"]) for c in self.containment), default=0.0)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "hyperplanes": [h.to_dict() for h in self.hyperplanes],
            "residuals": {
                "equipartition": {k: list(v) for k, v in self.equipartition.items()},
                "orthogonality": dict(self.orthogonality),
                "containment": [dict(c) for c in self.containment],
            },
            "objective": self.objective,
            "evaluation_mode": "hard",
            "success": self.success,
            "seed": self.seed,
            "config": self.config,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# input organization
# ----------------------------------------------------------------------
def _organize_masses(
    problem: ConstraintProblem, masses: Sequence[SampledMass]
) -> dict[tuple[int, int], SampledMass]:
    got = {}
    for mass in masses:
        key = parse_label(mass.label)
        if key in got:
            raise ConfigurationError(f"duplicate mass label {mass.label!r}")
        got[key] = mass
    want = {
        (i, j)
        for i in range(1, problem.k + 1)
        for j in range(1, problem.m[i - 1] + 1)
    }
    if set(got) != want:
        raise ConfigurationError(
            f"mass labels {sorted(got)} do not match the cascade vector "
            f"m={problem.m} (expected {sorted(want)})"
        )
    dims = {mass.dim for mass in masses}
    if len(dims) > 1:
        raise ShapeError(f"masses live in different dimensions: {sorted(dims)}")
    return dict(sorted(got.items()))


def _organize_points(
    problem: ConstraintProblem, points: Sequence, d: int
) -> dict[int, list[np.ndarray]]:
    per: dict[int, list[np.ndarray]] = {i: [] for i in range(1, problem.k + 1)}
    for entry in points:
        if isinstance(entry, dict):
            i, coords = entry["hyperplane"], entry["coords"]
        else:
            i, coords = entry[0], entry[1]
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ConfigurationError(f"containment point hyperplane {i!r} is not an integer")
        if not 1 <= i <= problem.k:
            raise ConfigurationError(f"containment point for hyperplane {i} out of range")
        p = np.asarray(coords, dtype=float)
        if p.shape != (d,):
            raise ShapeError(f"containment point {p} is not in R^{d}")
        if not np.isfinite(p).all():
            raise RangeError(f"containment point {p} must be finite")
        per[i].append(p)
    for i in range(1, problem.k + 1):
        if len(per[i]) != problem.a[i - 1]:
            raise ConfigurationError(
                f"hyperplane {i} needs {problem.a[i - 1]} containment point(s), "
                f"got {len(per[i])}"
            )
    return per


# ----------------------------------------------------------------------
# assembly with exact constraint elimination
# ----------------------------------------------------------------------
def _norm(x: np.ndarray) -> float:
    """`np.linalg.norm` of a 1-D float vector, bit for bit (it is
    sqrt(x.dot(x)) there too), without its per-call overhead."""
    return math.sqrt(x.dot(x))


def _project_out(x: np.ndarray, basis: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """x minus its components along the orthonormal vectors q of `basis`
    ((q, column) pairs from `_orthonormal_basis`), one at a time."""
    for q, _ in basis:
        x = x - q * (q @ x)
    return x


def _orthonormal_basis(columns: Sequence[np.ndarray]) -> list[tuple[np.ndarray, int]]:
    """Gram-Schmidt over `columns`: (q, column index) for each column that
    adds a direction.  A column already in the span of the earlier ones
    (to 1e-12 of its norm) is dropped."""
    basis: list[tuple[np.ndarray, int]] = []
    for col, c in enumerate(columns):
        q = _project_out(c, basis)
        q_norm = _norm(q)
        if q_norm > 1e-12 * _norm(c):
            basis.append((q / q_norm, col))
    return basis


def _span_coefficients(
    basis: Sequence[tuple[np.ndarray, int]], columns: Sequence[np.ndarray], y: np.ndarray
) -> np.ndarray:
    """Coefficients a, one row per column of C, with C a = Q Q^T y: the
    projection of y onto the span of C written in the columns of C.  Back
    substitution through R = Q^T C, which Gram-Schmidt makes upper
    triangular on the columns it kept; a dropped column gets 0."""
    a = np.zeros((len(columns),) + y.shape[1:])
    for r in range(len(basis) - 1, -1, -1):
        q, col = basis[r]
        rest = q @ y - sum((q @ columns[c]) * a[c] for _, c in basis[r + 1 :])
        a[col] = rest / (q @ columns[col])
    return a


def assemble_hyperplanes(
    raw: np.ndarray,
    problem: ConstraintProblem,
    cont_points: dict[int, list[np.ndarray]],
    tape: list | None = None,
) -> list[HyperplaneParam] | None:
    """Turn raw (k, d+1) parameters into hyperplanes satisfying every
    orthogonality pair and containment point exactly.  Returns None when a
    projection collapses the normal (degenerate raw input) or the normal
    part of a unit plane falls below MIN_NORMAL_NORM, so every plane
    returned is a valid `HyperplaneParam`.

    Plane i's raw normal is projected onto the orthogonal complement of its
    constraints: the unit normals of its earlier orthogonality partners and
    the differences of its containment points, orthonormalised by
    Gram-Schmidt.  Its offset is pinned through its first containment point,
    if any, and the plane is normalised.  When `tape` is a list, one entry
    per plane is appended for `_assembly_vjp`."""
    k = problem.k
    d = raw.shape[1] - 1
    unit_normals: list[np.ndarray] = []
    planes: list[HyperplaneParam] = []
    for i in range(1, k + 1):
        partners = [r for (r, s) in problem.ortho if s == i]
        pts = cont_points.get(i, [])
        constraints = [unit_normals[r - 1] for r in partners]
        constraints.extend(p - pts[0] for p in pts[1:])
        basis = _orthonormal_basis(constraints)
        n = _project_out(raw[i - 1, :d].astype(float), basis)
        if _norm(n) < 1e-9:
            return None
        v = np.empty(d + 1)
        v[:d] = n
        v[d] = n @ pts[0] if pts else raw[i - 1, d]
        w_norm = _norm(v)
        v /= w_norm
        normal_norm = _norm(v[:d])
        if not normal_norm >= MIN_NORMAL_NORM:  # also catches NaN from non-finite raw input
            return None
        unit_normals.append(v[:d] / normal_norm)
        planes.append(HyperplaneParam._adopt(v))
        if tape is not None:
            tape.append((partners, constraints, basis, n, w_norm))
    return planes


def _assembly_vjp(
    raw: np.ndarray,
    cont_points: dict[int, list[np.ndarray]],
    planes: Sequence[HyperplaneParam],
    tape: list,
    grad: np.ndarray,
) -> np.ndarray:
    """Pull the gradient with respect to the assembled plane vectors,
    (k, d+1), back to the raw parameters through `assemble_hyperplanes`
    (its `tape` holds each plane's intermediates).  Planes are visited
    last to first, so the gradient reaching a unit normal through later
    planes' orthogonality projections is complete before its own plane."""
    k, d = grad.shape[0], grad.shape[1] - 1
    out = np.zeros_like(grad)
    grad_unit = np.zeros((k, d))
    for i in range(k - 1, -1, -1):
        partners, constraints, basis, n, w_norm = tape[i]
        v = planes[i].vector
        # v = w / |w| with w = (n, offset)
        g_w = (grad[i] - v * (v @ grad[i])) / w_norm
        g_n = g_w[:d].copy()
        pts = cont_points.get(i + 1, [])
        if pts:
            g_n += g_w[d] * pts[0]  # offset = n . p0
        else:
            out[i, d] = g_w[d]
        # unit normal u = n / |n|, a constraint of later planes; what they
        # send back (below) is orthogonal to u, so no projection is needed
        g_n += grad_unit[i] / _norm(n)
        # n = P n0, P the projection onto the complement of the span of the
        # constraint columns C: the gradient g of n reaches n0 as P g, and
        # C as -(P g) a^T - n b^T with a = C+ n0, b = C+ g (C+ = pinv(C)),
        # the coefficients of n0 and g on the columns of C
        g_proj = _project_out(g_n, basis)
        out[i, :d] = g_proj
        if partners:
            ab = _span_coefficients(basis, constraints, np.stack([raw[i, :d], g_n], axis=1))
            for col, r in enumerate(partners):
                grad_unit[r - 1] -= g_proj * ab[col, 0] + n * ab[col, 1]
    return out


def _coincident(planes: Sequence[HyperplaneParam], tol: float) -> bool:
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            a, b = planes[i].vector, planes[j].vector
            if min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < tol:
                return True
    return False


# ----------------------------------------------------------------------
# residual evaluation
# ----------------------------------------------------------------------
def residuals(
    problem: ConstraintProblem,
    masses: Sequence[SampledMass],
    hyperplanes: Sequence[HyperplaneParam],
    points: Sequence = (),
) -> MassArrangementWitness:
    """Evaluate every condition of the instance at a given arrangement,
    with hard region masses."""
    if len(hyperplanes) != problem.k:
        raise ShapeError(f"expected {problem.k} hyperplanes, got {len(hyperplanes)}")
    by_key = _organize_masses(problem, masses)
    d = hyperplanes[0].dim
    for h in hyperplanes:
        if h.dim != d:
            raise ShapeError("hyperplanes live in different dimensions")
    cont = _organize_points(problem, points, d)
    return _witness(hyperplanes, *_evaluate(problem, by_key, cont, hyperplanes)[:4])


def _witness(
    hyperplanes: Sequence[HyperplaneParam],
    equip: dict[str, np.ndarray],
    ortho: dict[str, float],
    containment: list[tuple],
    objective: float,
) -> MassArrangementWitness:
    """The witness of a hard `_evaluate` at `hyperplanes`."""
    return MassArrangementWitness(
        hyperplanes=tuple(hyperplanes),
        equipartition={key: tuple(float(x) for x in dev) for key, dev in equip.items()},
        orthogonality=ortho,
        containment=tuple(
            {"hyperplane": i, "point": [float(x) for x in p], "residual": r}
            for i, p, r in containment
        ),
        objective=objective,
    )


def _evaluate(
    problem: ConstraintProblem,
    by_key: dict[tuple[int, int], SampledMass],
    cont: dict[int, list[np.ndarray]],
    planes: Sequence[HyperplaneParam],
    tau: float | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, float], list[tuple], float, np.ndarray | None]:
    """The objective evaluator behind both the optimizer and `residuals`.

    Returns the equipartition deviations per mass "i.j" (orthant masses
    over the mass total, minus the fair share 2^-(k-i+1)), the cosine of
    each orthogonality pair "r-s", (hyperplane, point, signed distance)
    for each containment point, the sum of their squares, and the (k, d+1)
    gradient of that sum with respect to the plane vectors.  With
    tau=None the region masses are hard and the gradient is None; with a
    temperature tau they are smoothed and the gradient has only the
    equipartition terms: assembly keeps the other residuals at zero.
    """
    equip: dict[str, np.ndarray] = {}
    objective = 0.0
    grad = None if tau is None else np.zeros((problem.k, planes[0].dim + 1))
    for (i, j), mass in by_key.items():
        share = 2.0 ** -(problem.k - i + 1)
        if tau is None:
            regions = region_masses(mass, planes, i)
        else:  # the cotangent is d/dR of the squared deviations
            regions, g = region_masses(
                mass, planes, i, tau, lambda r: 2 / mass.total * (r / mass.total - share)
            )
            grad[i - 1 :] += g
        dev = regions / mass.total - share
        equip[f"{i}.{j}"] = dev
        objective += float(np.dot(dev, dev))

    ortho: dict[str, float] = {}
    for r, s in problem.sorted_ortho():
        a, b = planes[r - 1].normal, planes[s - 1].normal
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        ortho[f"{r}-{s}"] = cosine
        objective += cosine**2

    containment: list[tuple] = []
    for i in range(1, problem.k + 1):
        h = planes[i - 1]
        scale = float(np.linalg.norm(h.normal))
        for p in cont[i]:
            r = float((p @ h.normal - h.offset) / scale)
            containment.append((i, p, r))
            objective += r**2
    return equip, ortho, containment, objective, grad


def _objective(
    x: np.ndarray,
    problem: ConstraintProblem,
    by_key: dict[tuple[int, int], SampledMass],
    cont: dict[int, list[np.ndarray]],
    d: int,
    tau: float,
) -> tuple[float, np.ndarray]:
    """The smoothed objective at temperature tau and raw parameters x:
    assembly, then `_evaluate`.  Returns (objective, gradient with respect
    to x), the gradient pulled back through the assembly; a degenerate
    assembly scores DEGENERATE_SCORE with a zero gradient."""
    raw = x.reshape(problem.k, d + 1)
    tape: list = []
    planes = assemble_hyperplanes(raw, problem, cont, tape)
    if planes is None:
        return DEGENERATE_SCORE, np.zeros_like(x)
    *_, objective, grad = _evaluate(problem, by_key, cont, planes, tau)
    return objective, _assembly_vjp(raw, cont, planes, tape, grad).ravel()


def _data_diameter(masses: Sequence[SampledMass]) -> float:
    lo = np.min([m.coords.min(axis=1) for m in masses], axis=0)
    hi = np.max([m.coords.max(axis=1) for m in masses], axis=0)
    return max(float(np.linalg.norm(hi - lo)), 1e-6)


def _subsample(mass: SampledMass, cap: int | None) -> SampledMass:
    """Deterministic stride subsample, to at most `cap` points (None: the
    whole mass), for one anneal stage.  The points are exchangeable, so
    striding is an unbiased reduction; every reported residual is still
    computed on the full sample."""
    n = mass.points.shape[0]
    if cap is None or n <= cap:
        return mass
    stride = -(-n // cap)
    return SampledMass(
        points=mass.points[::stride], weights=mass.weights[::stride], label=mass.label
    )


def _seeded_raw(
    problem: ConstraintProblem,
    by_key: dict[tuple[int, int], SampledMass],
    rng: np.random.Generator,
    d: int,
) -> np.ndarray:
    """Mass-informed start: every solution hyperplane l must individually
    bisect each mass of stages 1..l, and bisecting hyperplanes run near
    mass means, so seed hyperplane l through those means (exactly, for up
    to d of them), leaving the remaining directions random."""
    raw = rng.standard_normal((problem.k, d + 1))
    means = {key: mass.coords.mean(axis=1) for key, mass in by_key.items()}
    for plane in range(1, problem.k + 1):
        pts = [means[key] for key in sorted(means) if key[0] <= plane]
        if not pts:
            continue
        base = pts[0]
        dirs = [p - base for p in pts[1:]][: d - 1]
        n = _project_out(raw[plane - 1, :d], _orthonormal_basis(dirs))
        if np.linalg.norm(n) < 1e-9:
            continue
        raw[plane - 1, :d] = n
        raw[plane - 1, d] = n @ base
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _run_start(
    args,
) -> tuple[int, float, np.ndarray, int, list[int], MassArrangementWitness | None]:
    """One multi-start trajectory; returns (start index, hard objective,
    final raw parameters, degenerate-restart count, smoothed-objective
    evaluations per stage, the witness of the final planes or None if
    they degenerate)."""
    (start, problem, masses, points, seed, d, taus) = args
    by_key = _organize_masses(problem, masses)
    cont = _organize_points(problem, points, d)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, start)))
    seeded = start % 2 == 0
    # The warm stages only locate the basin, which a small subsample does as
    # well as the full sample at a fraction of the cost, and the third only
    # refines it, which a larger one does; the coldest runs on the full
    # sample, so it corrects for the subsamples and leaves the iterate that
    # the hard objective scores.
    subsampled = {
        cap: {key: _subsample(mass, cap) for key, mass in by_key.items()}
        for cap in set(ANNEAL_POINTS)
    }
    schedule = [(tau, subsampled[cap]) for tau, cap in zip(taus, ANNEAL_POINTS)]
    restarts = 0
    evaluations = [0] * len(schedule)
    while True:
        if seeded:
            raw = _seeded_raw(problem, by_key, rng, d)
        else:
            raw = rng.standard_normal((problem.k, d + 1))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        x = raw.ravel()
        # Each smoothed stage is an L-BFGS run on the analytic gradient,
        # capped at ANNEAL_MAXITER iterations with the default tolerances:
        # the schedule, not any one temperature, does the converging.  All
        # the stages of an attempt share one memory of correction pairs:
        # the objective changes little from one temperature to the next, so
        # a stage starts from the curvature the last one learned, not from
        # a steepest-descent step.  A redrawn attempt starts from no pairs.
        pairs: deque = deque(maxlen=MEMORY)
        for stage, (tau, keys) in enumerate(schedule):
            anneal = (problem, keys, cont, d, float(tau))
            res = minimize(_objective, x, args=anneal, maxiter=ANNEAL_MAXITER, pairs=pairs)
            x = res.x
            evaluations[stage] += res.nfev
        planes = assemble_hyperplanes(x.reshape(problem.k, d + 1), problem, cont)
        if planes is not None and not _coincident(planes, DEGENERATE_TOL):
            break
        restarts += 1
        if restarts > MAX_DEGENERATE_RESTARTS:
            break
    if planes is None:
        return (start, DEGENERATE_SCORE, x, restarts, evaluations, None)
    witness = _witness(planes, *_evaluate(problem, by_key, cont, planes)[:4])
    return (start, witness.objective, x, restarts, evaluations, witness)


def solve(
    problem: ConstraintProblem,
    masses: Sequence[SampledMass],
    points: Sequence = (),
    config: SolverConfig | None = None,
) -> MassArrangementWitness:
    """Search for a witness arrangement; never raises on non-convergence.

    Multi-start annealed optimization; starts are tried in index order with
    independent RNG streams derived from the master seed, so a fixed
    (seed, config) reproduces the identical witness, with or without
    parallelism.  The search stops at the first start whose hard objective
    is below config.tol; tol=-1.0 runs every start.  success means the hard
    objective of the best start beat config.tol.
    """
    cfg = config or SolverConfig()
    if not masses:
        raise ConfigurationError("solve needs at least one sampled mass")
    by_key = _organize_masses(problem, masses)
    d = masses[0].dim
    # n hyperplanes in R^d cut at most sum_{j<=d} C(n, j) regions, fewer than
    # the 2^n orthants a mass cut by n of them needs once n > d; the first
    # stage that has a mass is cut by the most planes
    n = problem.k - next(i for i, count in enumerate(problem.m) if count)
    if n > d:
        raise ConfigurationError(
            f"a stage-{problem.k - n + 1} mass needs 2^{n} regions, but {n} hyperplanes "
            f"in R^{d} cut at most {sum(math.comb(n, j) for j in range(d + 1))}"
        )
    _organize_points(problem, points, d)  # bad points are refused before any start
    handoff = max(TAU_HANDOFF_FACTOR * _data_diameter(masses), TAU_FINAL)
    taus = np.geomspace(handoff, TAU_FINAL, len(ANNEAL_POINTS))

    results: list[tuple[int, float, np.ndarray, int, list[int], MassArrangementWitness | None]] = []
    args = (problem, list(masses), list(points), cfg.seed, d, taus)

    def run_starts(run_map) -> None:
        """Run the starts in index order, `jobs` at a time through
        `run_map`, until one scores below tol.  Results after that start
        are dropped, so `jobs` does not change the witness."""
        for lo in range(0, cfg.starts, cfg.jobs):
            chunk = range(lo, min(lo + cfg.jobs, cfg.starts))
            for out in run_map(_run_start, [(s, *args) for s in chunk]):
                results.append(out)
                if out[1] < cfg.tol:
                    return

    if cfg.jobs == 1:
        run_starts(map)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel solve needs it

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            run_starts(pool.map)

    # Best objective wins; ties break toward the earlier start index.
    start, _, x, *_, witness = min(results, key=lambda t: (t[1], t[0]))
    if witness is None:
        # Fall back to the unprojected raw parameters (axis planes where
        # even those degenerate) so a witness always exists; its residuals
        # then report the failure honestly.
        planes = []
        raw = x.reshape(problem.k, d + 1)
        for i, row in enumerate(raw):
            try:
                planes.append(HyperplaneParam(row / np.linalg.norm(row)))
            except EquipartError:
                axis = np.zeros(d + 1)
                axis[i % d] = 1.0
                planes.append(HyperplaneParam(axis))
        witness = residuals(problem, masses, planes, points)
    stage_evaluations = [sum(counts) for counts in zip(*(r[4] for r in results))]
    witness.success = bool(witness.objective < cfg.tol)
    witness.seed = cfg.seed
    witness.config = cfg.to_dict()
    witness.diagnostics = {
        "starts_run": len(results),
        "best_start": start,
        "degenerate_restarts": int(sum(r[3] for r in results)),
        "evaluations": sum(stage_evaluations),
        "stage_evaluations": stage_evaluations,
    }
    return witness
