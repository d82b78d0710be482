import dataclasses
import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import equipart.solver
from equipart import lbfgs
from equipart.certify import check
from equipart.exceptions import ConfigurationError, RangeError, ShapeError
from equipart.masses import HyperplaneParam, sample_gaussian_mixture
from equipart.problems import ConstraintProblem
from equipart.solver import (
    ANNEAL_POINTS,
    MAX_DEGENERATE_RESTARTS,
    SolverConfig,
    _subsample,
    assemble_hyperplanes,
    residuals,
    solve,
)

FAST = SolverConfig(seed=0, starts=4)
SRC = Path(__file__).resolve().parents[1] / "src"


def gaussian(n, key, label, mean=(0.0, 0.0), cov="I"):
    return sample_gaussian_mixture(
        [{"mean": list(mean), "cov": cov, "weight": 1}],
        n,
        np.random.SeedSequence(entropy=99, spawn_key=key),
        label=label,
    )


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def test_assembly_enforces_orthogonality_and_containment_exactly():
    problem = ConstraintProblem.of(3, m=(1, 0, 0), a=(0, 0, 1), ortho=[(1, 2), (1, 3)])
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3, 4))
    point = np.array([0.3, -0.7, 0.2])
    planes = assemble_hyperplanes(raw, problem, {1: [], 2: [], 3: [point]})
    assert planes is not None
    n1, n2, n3 = (h.normal for h in planes)
    assert abs(n1 @ n2) < 1e-14 and abs(n1 @ n3) < 1e-14
    assert abs(point @ n3 - planes[2].offset) < 1e-14
    for h in planes:
        assert np.linalg.norm(h.vector) == pytest.approx(1.0, abs=1e-12)


def test_assembly_multi_point_containment():
    problem = ConstraintProblem.of(2, m=(0, 0), a=(0, 2))
    p1, p2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    raw = np.random.default_rng(1).standard_normal((2, 3))
    planes = assemble_hyperplanes(raw, problem, {1: [], 2: [p1, p2]})
    h = planes[1]
    assert abs(p1 @ h.normal - h.offset) < 1e-14
    assert abs(p2 @ h.normal - h.offset) < 1e-14


def test_assembly_degenerate_returns_none():
    # normal forced orthogonal to the whole plane: nothing survives in R^2
    problem = ConstraintProblem.of(3, m=(0, 0, 0), ortho=[(1, 3), (2, 3)])
    raw = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
    )
    assert assemble_hyperplanes(raw, problem, {1: [], 2: [], 3: []}) is None


def test_assembled_planes_keep_the_hyperplane_invariants():
    # assembly builds its planes without HyperplaneParam's checks and copy;
    # each must still pass those checks unchanged, and be read-only
    problem = ConstraintProblem.of(3, m=(1, 0, 0), a=(0, 1, 2), ortho=[(1, 2), (1, 3)])
    cont = {
        1: [],
        2: [np.array([0.3, -0.7, 0.2])],
        3: [np.array([1.0, 0.0, 0.5]), np.array([0.0, 2.0, -1.0])],
    }
    rng = np.random.default_rng(5)
    for _ in range(50):
        planes = assemble_hyperplanes(rng.standard_normal((3, 4)), problem, cont)
        assert planes is not None
        for h in planes:
            assert np.array_equal(HyperplaneParam(h.vector).vector, h.vector)
            assert not h.vector.flags.writeable


def test_assembly_non_finite_raw_returns_none():
    problem = ConstraintProblem.of(1, m=(1,))
    for raw in ([[np.inf, 1.0, 0.0]], [[np.nan, 1.0, 0.0]], [[1.0, 0.0, np.inf]]):
        with np.errstate(invalid="ignore"):  # inf / inf while normalising
            assert assemble_hyperplanes(np.array(raw), problem, {1: []}) is None


def test_min_normal_norm_below_the_hyperplane_floor_reports_failure():
    # a plane through a far point has a normal part of about 1e-7; assembly
    # must refuse it at HyperplaneParam's own floor (MIN_NORMAL_NORM, 1e-6)
    # and the solve report failure, instead of HyperplaneParam raising
    mass = gaussian(500, (18,), "1.1")
    cfg = SolverConfig(starts=2)
    w = solve(ConstraintProblem.of(1, m=(1,), a=(1,)), [mass], [(1, [1e7, 1e7])], cfg)
    assert w.success is False
    assert w.diagnostics["starts_run"] == 2


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------
def test_residuals_blocks_and_objective():
    mass = gaussian(10_000, (0,), "1.1")
    problem = ConstraintProblem.of(2, m=(1, 0), a=(0, 1), ortho=[(1, 2)])
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    w = residuals(problem, [mass], hs, points=[(2, np.zeros(2))])
    assert set(w.equipartition) == {"1.1"}
    assert len(w.equipartition["1.1"]) == 4
    assert w.orthogonality == {"1-2": 0.0}
    assert w.containment[0]["residual"] == 0.0
    recomputed = sum(v**2 for v in w.equipartition["1.1"])
    assert w.objective == pytest.approx(recomputed)
    # per-orthant deviations sum to zero by conservation
    assert sum(w.equipartition["1.1"]) == pytest.approx(0.0, abs=1e-12)


def test_residuals_standard_gaussian_axes_within_mc_error():
    mass = gaussian(100_000, (1,), "1.1")
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    w = residuals(ConstraintProblem.of(2, m=(1, 0)), [mass], hs)
    sigma_mc = 0.25 / np.sqrt(100_000)
    assert w.max_equipartition_residual() <= 3 * sigma_mc


def test_residuals_label_mismatch():
    mass = gaussian(100, (2,), "1.1")
    with pytest.raises(ConfigurationError):
        residuals(ConstraintProblem.of(2, m=(1, 1)), [mass], [
            HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)
        ])
    with pytest.raises(ConfigurationError):
        residuals(ConstraintProblem.of(2, m=(1, 0), a=(1, 0)), [mass], [
            HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)
        ])  # missing containment point
    with pytest.raises(ShapeError):
        residuals(ConstraintProblem.of(1, m=(1,)), [mass], [])


def test_non_finite_containment_point_rejected():
    mass = gaussian(100, (15,), "1.1")
    problem = ConstraintProblem.of(2, m=(1, 0), a=(0, 1))
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    for coords in ([float("nan"), 0.0], [0.0, float("inf")]):
        point = {"hyperplane": 2, "coords": coords}
        with pytest.raises(RangeError, match="containment point"):
            residuals(problem, [mass], hs, points=[point])
        with pytest.raises(RangeError, match="containment point"):
            solve(problem, [mass], points=[point], config=FAST)


@pytest.mark.parametrize("index", [2.7, 2.9, 2.0, "2", True])
def test_containment_hyperplane_index_must_be_an_integer(index):
    mass = gaussian(100, (15,), "1.1")
    problem = ConstraintProblem.of(2, m=(1, 0), a=(1, 1))
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    first = (1, [0.0, 0.0])
    for point in ((index, [1.0, 0.0]), {"hyperplane": index, "coords": [1.0, 0.0]}):
        with pytest.raises(ConfigurationError, match="not an integer"):
            residuals(problem, [mass], hs, points=[first, point])
    # a numpy integer is an integer
    got = residuals(problem, [mass], hs, points=[first, (np.int64(2), [1.0, 0.0])])
    assert [c["hyperplane"] for c in got.containment] == [1, 2]


def test_orthogonality_and_containment_scale_invariant():
    # residuals are defined on normalized quantities: rescaling (a, b)
    # before unit-normalization changes nothing
    mass = gaussian(1_000, (3,), "1.1")
    problem = ConstraintProblem.of(2, m=(1, 0), a=(0, 1), ortho=[(1, 2)])
    v1 = np.array([2.0, 1.0, 0.3])
    v2 = np.array([-0.4, 1.1, -0.2])
    pt = np.array([0.1, 0.2])
    base = None
    for scale in (1.0, 7.5):
        hs = [
            HyperplaneParam(scale * v1 / np.linalg.norm(scale * v1)),
            HyperplaneParam(scale * v2 / np.linalg.norm(scale * v2)),
        ]
        w = residuals(problem, [mass], hs, points=[(2, pt)])
        vals = (w.orthogonality["1-2"], w.containment[0]["residual"])
        if base is None:
            base = vals
        else:
            assert vals == pytest.approx(base, rel=1e-12)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
def test_config_to_dict_lists_every_field():
    cfg = dataclasses.replace(FAST, tol=2e-4, jobs=2)
    doc = cfg.to_dict()
    assert doc == dataclasses.asdict(cfg)
    # the CLI and the benchmark set seed, starts, tol and jobs; a new knob
    # should be a visible change
    assert list(doc) == ["seed", "starts", "tol", "jobs"]
    assert doc["tol"] == 2e-4 and doc["jobs"] == 2 and doc["starts"] == 4


def test_config_rejects_fewer_than_one_start():
    for starts in (0, -3):
        with pytest.raises(ConfigurationError, match="starts must be >= 1"):
            SolverConfig(starts=starts)


def test_config_rejects_fewer_than_one_job_and_a_non_finite_tol():
    for jobs in (0, -2):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            SolverConfig(jobs=jobs)
    for tol in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(RangeError, match="tol must be finite"):
            SolverConfig(tol=tol)
    assert SolverConfig(tol=-1.0).tol == -1.0  # legal: no arrangement succeeds


def test_config_rejects_a_negative_seed():
    # SeedSequence would refuse it only once the first start runs
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize("value", [1.5, True, "1", None, np.int64(1)])
def test_config_rejects_a_seed_that_is_not_an_integer(value):
    # a numpy integer too: the witness echoes the seed, and json.dumps
    # cannot write one
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        SolverConfig(seed=value)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_config_rejects_starts_that_is_not_an_integer(value):
    # range() would refuse 2.5 only once the starts run; True would run
    # one start and be echoed as true in the witness config
    with pytest.raises(ConfigurationError, match="starts must be an integer"):
        SolverConfig(starts=value)


@pytest.mark.parametrize("value", [1.0, True, "2"])
def test_config_rejects_jobs_that_is_not_an_integer(value):
    with pytest.raises(ConfigurationError, match="jobs must be an integer"):
        SolverConfig(jobs=value)


@pytest.mark.parametrize("value", ["1e-3", True, None, [1e-3]])
def test_config_rejects_a_tol_that_is_not_a_number(value):
    with pytest.raises(ConfigurationError, match="tol must be a number"):
        SolverConfig(tol=value)
    assert SolverConfig(tol=0).tol == 0 and SolverConfig(tol=np.float64(1e-4)).tol == 1e-4


@pytest.mark.parametrize("cap", sorted({cap for cap in ANNEAL_POINTS if cap is not None}))
def test_subsample_strides_a_mass_down_to_each_anneal_cap(cap):
    # a mass of at most `cap` points anneals whole; a larger one keeps every
    # stride-th point and weight, at most `cap` of them; no cap (None)
    # keeps the whole mass
    small = gaussian(cap, (20,), "1.1")
    assert _subsample(small, cap) is small
    for n, stride in ((cap + 1, 2), (3 * cap + 7, 4)):
        mass = gaussian(n, (21,), "2.1")
        sub = _subsample(mass, cap)
        assert sub.points.shape[0] <= cap and sub.label == "2.1"
        assert np.array_equal(sub.points, mass.points[::stride])
        assert np.array_equal(sub.weights, mass.weights[::stride])
        assert _subsample(mass, None) is mass


def recorded_minimize_calls(monkeypatch):
    """Patch `solver.minimize` to record (fun, tau, kwargs, number of
    correction pairs at the call) of every call."""
    calls = []
    original = equipart.solver.minimize

    def recording(fun, x0, args=(), **kwargs):
        calls.append((fun, args[-1], kwargs, len(kwargs["pairs"])))
        return original(fun, x0, args=args, **kwargs)

    monkeypatch.setattr(equipart.solver, "minimize", recording)
    return calls


def memories(calls):
    """The distinct `pairs` deques of `calls`, in order of first use, and
    for each call the index of its deque in that list."""
    seen, index = [], []
    for _, _, kwargs, _ in calls:
        pairs = kwargs["pairs"]
        if not any(pairs is q for q in seen):
            seen.append(pairs)
        index.append(next(i for i, q in enumerate(seen) if q is pairs))
    return seen, index


def test_solver_is_gradient_only(monkeypatch):
    # every minimize call is one L-BFGS run of the smoothed objective at a
    # positive temperature, one per scheduled tau stage: every start runs
    # 4 stages, each capped at 50 iterations.  The stages of a start share
    # one memory of correction pairs, and each start has its own
    calls = recorded_minimize_calls(monkeypatch)
    m1 = gaussian(1_000, (19,), "1.1")
    cfg = dataclasses.replace(FAST, starts=3, tol=-1.0)
    w = solve(ConstraintProblem.of(2, m=(1, 0)), [m1], config=cfg)
    assert w.diagnostics["starts_run"] == 3 and w.diagnostics["degenerate_restarts"] == 0
    assert all(fun is equipart.solver._objective and tau > 0 for fun, tau, *_ in calls)
    assert [(set(kwargs), kwargs["maxiter"]) for _, _, kwargs, _ in calls] == [
        ({"maxiter", "pairs"}, 50) for _ in range(3 * 4)
    ]
    seen, index = memories(calls)
    assert index == [start for start in range(3) for _ in range(4)]
    assert all(isinstance(q, deque) and q.maxlen == lbfgs.MEMORY and q for q in seen)


def test_every_start_runs_the_same_schedule(monkeypatch):
    # an unseeded (odd) start runs the 4 temperatures, iteration caps and
    # mass sets of a seeded (even) one: geometric from the handoff down to
    # TAU_FINAL, each used once, the 2 warmest on every 5th point, the
    # third on every 2nd and the coldest on the full sample
    stages = []
    original = equipart.solver.minimize

    def recording(fun, x0, args=(), **kwargs):
        masses = {key: mass.points.shape[0] for key, mass in args[1].items()}
        stages.append((args[-1], kwargs["maxiter"], masses))
        return original(fun, x0, args=args, **kwargs)

    monkeypatch.setattr(equipart.solver, "minimize", recording)
    mass = gaussian(20_001, (22,), "1.1")
    cfg = SolverConfig(starts=2, tol=-1.0)
    w = solve(ConstraintProblem.of(1, m=(1,)), [mass], config=cfg)
    assert w.diagnostics["starts_run"] == 2
    even, odd = stages[:4], stages[4:]
    assert odd == even
    handoff = equipart.solver.TAU_HANDOFF_FACTOR * equipart.solver._data_diameter([mass])
    taus = np.geomspace(handoff, equipart.solver.TAU_FINAL, 4)
    seen = (4_001, 4_001, 10_001, 20_001)
    assert even == [(tau, 50, {(1, 1): n}) for tau, n in zip(taus, seen)]


def test_a_degenerate_restart_starts_from_an_empty_memory(monkeypatch):
    # three pairwise-orthogonal lines cannot exist in the plane: every
    # attempt degenerates and is redrawn, and each attempt of the 4
    # stages gets a fresh memory, empty when its first stage begins
    calls = recorded_minimize_calls(monkeypatch)
    m3 = gaussian(300, (14,), "3.1")
    problem = ConstraintProblem.of(3, m=(0, 0, 1), ortho=[(1, 2), (1, 3), (2, 3)])
    w = solve(problem, [m3], config=dataclasses.replace(FAST, starts=1))
    attempts = MAX_DEGENERATE_RESTARTS + 1
    assert w.diagnostics["degenerate_restarts"] == attempts
    seen, index = memories(calls)
    assert len(seen) == attempts
    assert index == [attempt for attempt in range(attempts) for _ in range(4)]
    assert [size for *_, size in calls[::4]] == [0] * attempts


def test_diagnostics_count_the_evaluations_of_every_start_run(monkeypatch):
    # `evaluations` sums the smoothed-objective evaluations of every stage
    # of every attempt of every start run, redrawn attempts included, and
    # `stage_evaluations` splits that sum by stage
    nfev = []
    original = equipart.solver.minimize

    def spy(*args, **kwargs):
        res = original(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(equipart.solver, "minimize", spy)
    m1 = gaussian(1_000, (19,), "1.1")
    cfg = dataclasses.replace(FAST, starts=3, tol=-1.0)
    w = solve(ConstraintProblem.of(2, m=(1, 0)), [m1], config=cfg)
    assert w.diagnostics["starts_run"] == 3 and len(nfev) == 3 * 4
    assert w.diagnostics["evaluations"] == sum(nfev)
    assert w.diagnostics["stage_evaluations"] == [sum(nfev[stage::4]) for stage in range(4)]
    nfev.clear()
    m3 = gaussian(300, (14,), "3.1")
    problem = ConstraintProblem.of(3, m=(0, 0, 1), ortho=[(1, 2), (1, 3), (2, 3)])
    w = solve(problem, [m3], config=dataclasses.replace(FAST, starts=1))
    assert w.diagnostics["degenerate_restarts"] == MAX_DEGENERATE_RESTARTS + 1
    assert w.diagnostics["evaluations"] == sum(nfev) > 0
    assert w.diagnostics["stage_evaluations"] == [sum(nfev[stage::4]) for stage in range(4)]


def test_every_objective_evaluation_assembles_and_counts_regions(monkeypatch):
    # the benchmark's trace wraps these module-level names; every objective
    # evaluation must go through both of them
    calls = {"region_masses": 0, "assemble_hyperplanes": 0, "nfev": 0}

    def counting(name):
        original = getattr(equipart.solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(equipart.solver, name, wrapper)

    counting("region_masses")
    counting("assemble_hyperplanes")
    original_minimize = equipart.solver.minimize

    def minimize(*args, **kwargs):
        res = original_minimize(*args, **kwargs)
        calls["nfev"] += res.nfev
        return res

    monkeypatch.setattr(equipart.solver, "minimize", minimize)
    m1 = gaussian(2_000, (16,), "1.1")
    m2 = gaussian(2_000, (17,), "1.2", mean=(2.0, 1.0), cov=0.5)
    w = solve(ConstraintProblem.of(1, m=(2,)), [m1, m2], config=FAST)
    assert w.success and calls["nfev"] > 0
    assert calls["assemble_hyperplanes"] > calls["nfev"]
    assert calls["region_masses"] > 2 * calls["nfev"]


@st.composite
def smoothed_objectives(draw):
    """A constrained instance with small sampled masses on several stages,
    containment points and a temperature: the arguments of `_objective`.
    Every plane keeps at least one free direction."""
    k, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    m = tuple(draw(st.integers(0, 2)) for _ in range(k))
    assume(sum(m) > 0)
    pairs = [(r, s) for s in range(1, k + 1) for r in range(1, s)]
    ortho = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    a = tuple(draw(st.integers(0, 2)) for _ in range(k))
    for i in range(1, k + 1):
        assume(sum(s == i for _, s in ortho) + max(a[i - 1] - 1, 0) <= d - 1)
    problem = ConstraintProblem.of(k, m=m, a=a, ortho=sorted(ortho))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = [
        sample_gaussian_mixture(
            [{"mean": list(rng.uniform(-1, 1, d)), "cov": "I", "weight": 1}],
            150, rng.integers(2**32), label=f"{i}.{j}",
        )
        for i in range(1, k + 1)
        for j in range(1, m[i - 1] + 1)
    ]
    points = [(i, rng.uniform(-1, 1, d)) for i in range(1, k + 1) for _ in range(a[i - 1])]
    by_key = equipart.solver._organize_masses(problem, masses)
    cont = equipart.solver._organize_points(problem, points, d)
    tau = draw(st.sampled_from([1e-2, 0.1, 1.0]))
    return rng.standard_normal(k * (d + 1)), (problem, by_key, cont, d, tau)


@settings(max_examples=80, deadline=None)
@given(smoothed_objectives())
def test_smoothed_gradient_matches_central_differences(drawn):
    x, args = drawn
    def objective(x):
        return equipart.solver._objective(x, *args)[0]

    value, grad = equipart.solver._objective(x, *args)
    assume(value < 1e9)  # a degenerate assembly has no gradient
    h = 1e-6
    numeric = np.empty_like(x)
    for c in range(x.size):
        step = np.zeros_like(x)
        step[c] = h
        numeric[c] = (objective(x + step) - objective(x - step)) / (2 * h)
    assert np.max(np.abs(grad - numeric)) <= 1e-6 + 1e-5 * np.max(np.abs(numeric))


# ----------------------------------------------------------------------
# minimizer
# ----------------------------------------------------------------------
def quadratic(center, scales, offset=0.0):
    """offset + sum_i scales_i (x_i - center_i)^2, with its gradient."""
    center, scales = np.asarray(center, dtype=float), np.asarray(scales, dtype=float)

    def fun(x):
        r = x - center
        return offset + float(scales @ r**2), 2 * scales * r

    return fun


def rosenbrock(x):
    a, b = x
    return (1 - a) ** 2 + 100 * (b - a * a) ** 2, np.array(
        [-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]
    )


def test_minimize_stops_on_the_gradient_test():
    fun = quadratic([1.0, -2.0, 0.5], [1.0, 3.0, 10.0])
    res = lbfgs.minimize(fun, np.zeros(3))
    assert res.reason == lbfgs.GRADIENT
    assert np.max(np.abs(fun(res.x)[1])) <= lbfgs.PGTOL
    assert res.fun == fun(res.x)[0] and 0 < res.nit < 20


def test_minimize_stops_on_the_relative_decrease_test():
    # a large constant makes the first decrease tiny next to f while the
    # gradient stays far above the gradient test
    fun = quadratic([10.0, 10.0], [1.0, 1.0], offset=1e13)
    res = lbfgs.minimize(fun, np.zeros(2))
    assert res.reason == lbfgs.REL_DECREASE and res.nit == 1
    assert res.fun < fun(np.zeros(2))[0]
    assert np.max(np.abs(fun(res.x)[1])) > 1.0


def test_minimize_maxiter_caps_the_iterations():
    for maxiter in (1, 2, 5):
        res = lbfgs.minimize(rosenbrock, np.array([-1.2, 1.0]), maxiter=maxiter)
        assert res.reason == lbfgs.MAXITER and res.nit == maxiter
    args_seen = []

    def with_args(x, scale):
        args_seen.append(scale)
        value, grad = rosenbrock(x)
        return scale * value, scale * grad

    res = lbfgs.minimize(with_args, np.array([-1.2, 1.0]), args=(2.0,), maxiter=3)
    assert res.nit == 3 and res.nfev == len(args_seen) and set(args_seen) == {2.0}


def test_minimize_returns_a_degenerate_start_after_one_evaluation():
    # the solver's objective scores a degenerate assembly inf with a zero
    # gradient: the gradient test ends the run at x0
    x0 = np.array([0.3, -1.0, 2.0])
    res = lbfgs.minimize(lambda x: (np.inf, np.zeros_like(x)), x0)
    assert res.nfev == 1 and res.nit == 0 and res.reason == lbfgs.GRADIENT
    assert np.array_equal(res.x, x0) and res.x is not x0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_minimize_treats_a_bad_trial_as_a_failed_step(bad):
    # the minimum (3, 0) lies beyond radius 2, where the value is bad; the
    # run must end inside, lower than it began, without raising
    inner = quadratic([3.0, 0.0], [1.0, 1.0])
    calls = []

    def fun(x):
        calls.append(x)
        value, grad = inner(x)
        return (bad if x @ x > 4.0 else value), grad

    x0 = np.array([0.0, 0.5])
    res = lbfgs.minimize(fun, x0)
    assert res.reason == lbfgs.LINE_SEARCH and res.nfev == len(calls)
    assert any(x @ x > 4.0 for x in calls)
    assert np.isfinite(res.x).all() and res.x @ res.x <= 4.0
    assert res.fun == inner(res.x)[0] < inner(x0)[0]


def test_minimize_stops_when_steepest_descent_fails():
    # with no pairs to drop, a failed line search ends the run at the last
    # iterate: here x0, whose first trial, or x0 itself, cannot be scored
    x0 = np.array([1.0, 2.0])
    for fun in (
        lambda x: (1.0, x) if np.array_equal(x, x0) else (np.nan, x),
        lambda x: (np.nan, np.ones_like(x)),
        lambda x: (np.inf, np.ones_like(x)),
        lambda x: (1.0, np.full_like(x, np.nan)),
    ):
        res = lbfgs.minimize(fun, x0)
        assert res.reason == lbfgs.LINE_SEARCH and res.nit == 0 and res.nfev <= 2
        assert np.array_equal(res.x, x0)


def test_minimize_starts_from_carried_pairs_with_the_unit_step():
    # with pairs in the caller's deque, the first trial is x0 - H g0 for
    # the H of those pairs (no steepest-descent step of length 1/|g|), and
    # the run appends its own pairs to that deque, after the carried ones
    scales = np.array([1.0, 3.0, 10.0])
    fun = quadratic([1.0, -2.0, 0.5], scales)
    # exact curvature pairs along the first two axes: the Hessian is 2 scales
    carried = [(s, 2 * scales * s, float(s @ (2 * scales * s))) for s in np.eye(3)[:2]]
    pairs = deque(carried, maxlen=lbfgs.MEMORY)
    x0 = np.array([0.5, 0.5, 0.0])
    trials = []

    def recording(x):
        trials.append(x.copy())
        return fun(x)

    res = lbfgs.minimize(recording, x0, pairs=pairs)
    assert np.array_equal(trials[1], x0 - lbfgs._two_loop(fun(x0)[1], carried))
    assert res.reason == lbfgs.GRADIENT and res.nfev == len(trials)
    assert len(pairs) > 2 and all(pairs[i] is carried[i] for i in range(2))
    # the same run from no pairs opens along -g0, with step 1/|g0|
    trials.clear()
    lbfgs.minimize(recording, x0)
    g0 = fun(x0)[1]
    assert np.array_equal(trials[1], x0 + min(1 / np.sqrt(g0 @ g0), lbfgs.STPMAX) * -g0)


def test_minimize_matches_scipy_lbfgsb():
    # the same method as scipy's L-BFGS-B, checked on fixed draws of
    # smoothed objectives at the tail stages' iteration cap: the final
    # values agree to 1e-9, and over all draws evaluations stay within 5%
    # of scipy's.  The two round H g differently (a two-loop recursion
    # here, a compact matrix form there), and some runs amplify rounding
    # until they end apart.  Such a draw shows itself in scipy alone: its
    # result moves by more than 1e-10 when x0 moves by one ulp.  Those
    # draws are left out of the value check, and must stay few
    optimize = pytest.importorskip("scipy.optimize")
    draws = []

    @settings(max_examples=50, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate])
    @given(smoothed_objectives())
    def collect(drawn):
        draws.append(drawn)

    def scipy_run(x0, args):
        return optimize.minimize(equipart.solver._objective, x0, args=args,
                                 method="L-BFGS-B", jac=True, options={"maxiter": 50})

    collect()
    compared, nfev, nfev_scipy = 0, 0, 0
    for x0, args in draws:
        ours = lbfgs.minimize(equipart.solver._objective, x0, args=args, maxiter=50)
        ref = scipy_run(x0, args)
        nfev, nfev_scipy = nfev + ours.nfev, nfev_scipy + ref.nfev
        nudged = (np.nextafter(x0, np.inf), np.nextafter(x0, -np.inf),
                  x0 * (1 + 2**-52), x0 * (1 - 2**-53))
        if all(abs(scipy_run(x, args).fun - ref.fun) <= 1e-10 for x in nudged):
            compared += 1
            assert abs(ours.fun - ref.fun) <= 1e-9
    assert len(draws) == 50 and compared >= 40
    assert nfev <= 1.05 * nfev_scipy


def recorded_line(line):
    """phi for `_line_search` that returns line(stp), a (value, slope) pair
    or None to fail the trial, and the steps it was called with."""
    steps = []

    def phi(stp):
        steps.append(stp)
        return line(stp)

    return phi, steps


def parabola(stp):
    # f(0) = 1, f'(0) = -2, least at stp = 1
    return 1 - 2 * stp + stp * stp, -2 + 2 * stp


def test_line_search_accepts_the_first_trial_meeting_both_conditions():
    # sufficient decrease f <= 1 - FTOL stp 2 and curvature |f'| <= GTOL 2
    for stp in (1.0, 0.2, 1.8):
        phi, steps = recorded_line(parabola)
        assert lbfgs._line_search(phi, 1.0, -2.0, stp) == stp and steps == [stp]


def test_line_search_extends_a_step_whose_slope_is_still_steep():
    # stp 0.01 decreases f enough, but f' = -1.98 fails the curvature
    # test: the next trial is longer, at most 5 times the first
    phi, steps = recorded_line(parabola)
    stp = lbfgs._line_search(phi, 1.0, -2.0, 0.01)
    assert 0.01 < steps[1] <= 0.05 and stp == steps[-1] and len(steps) <= 3
    assert abs(parabola(stp)[1]) <= lbfgs.GTOL * 2


def test_line_search_cuts_back_a_step_without_sufficient_decrease():
    # f(3) = 4 is above f(0): the cubic through both ends is the parabola,
    # so the second trial is its minimizer
    phi, steps = recorded_line(parabola)
    assert lbfgs._line_search(phi, 1.0, -2.0, 3.0) == 1.0 and steps == [3.0, 1.0]


def test_line_search_fails_on_a_bad_trial_or_after_maxls_trials():
    phi, steps = recorded_line(lambda stp: None)
    assert lbfgs._line_search(phi, 1.0, -2.0, 1.0) is None and steps == [1.0]
    phi, steps = recorded_line(lambda stp: None if stp < 3 else parabola(stp))
    assert lbfgs._line_search(phi, 1.0, -2.0, 3.0) is None and len(steps) == 2
    # a line that falls at the slope of its start never meets the
    # curvature test, and the extrapolated steps stay below STPMAX
    phi, steps = recorded_line(lambda stp: (1 - 2 * stp, -2.0))
    assert lbfgs._line_search(phi, 1.0, -2.0, 1e-6) is None
    assert len(steps) == lbfgs.MAXLS and steps[-1] < lbfgs.STPMAX


QUALITY_INSTANCES = [  # (k, m, a, ortho, d, points per mass), each certified in relaxed mode
    (1, (2,), (0,), [], 2, 3_000),
    (1, (2,), (1,), [], 3, 3_000),
    (1, (3,), (0,), [], 4, 3_000),
    (2, (1, 0), (0, 0), [(1, 2)], 3, 3_000),
    (2, (1, 1), (0, 0), [], 3, 3_000),
    (2, (1, 0), (0, 1), [(1, 2)], 3, 3_000),
    (2, (2, 0), (0, 0), [(1, 2)], 4, 3_000),
    (2, (1, 1), (0, 1), [(1, 2)], 4, 3_000),
    (3, (1, 0, 0), (0, 0, 0), [(1, 2)], 4, 3_000),
    (3, (1, 0, 0), (0, 1, 0), [(1, 3)], 4, 3_000),
    (3, (1, 0, 1), (0, 0, 0), [], 4, 3_000),
    (3, (0, 0, 2), (1, 0, 0), [(1, 2), (2, 3)], 2, 3_000),
    # past the 5,000-point cap the warm stages anneal on a subsample, and
    # past the 20,000-point cap so does the third stage
    (1, (2,), (0,), [], 2, 30_000),
    (2, (1, 1), (0, 1), [(1, 2)], 3, 20_000),
    (3, (1, 0, 0), (0, 0, 0), [(1, 2)], 4, 40_000),
    (1, (2,), (0,), [], 2, 100_000),
]


@pytest.mark.parametrize("case", range(len(QUALITY_INSTANCES)))
def test_solve_finds_a_witness_for_small_certified_instances(case):
    # a schedule change must not cost a witness: each mass is drawn from an
    # off-centre mixture of 2-3 Gaussians, and each instance must be solved
    # within 4 starts, every residual under 5e-3
    k, m, a, ortho, d, n = QUALITY_INSTANCES[case]
    problem = ConstraintProblem.of(k, m=m, a=a, ortho=ortho)
    assert check(problem, d, "relaxed").certified
    rng = np.random.default_rng([31, case])
    masses = []
    for i in range(1, k + 1):
        for j in range(1, m[i - 1] + 1):
            mixture = [
                {"mean": list(rng.uniform(-2, 2, d)), "cov": float(rng.uniform(0.2, 1.0)),
                 "weight": float(rng.uniform(0.5, 1.5))}
                for _ in range(rng.integers(2, 4))
            ]
            masses.append(sample_gaussian_mixture(mixture, n, rng.integers(2**32),
                                                  label=f"{i}.{j}"))
    points = [(i, rng.uniform(-1, 1, d)) for i in range(1, k + 1) for _ in range(a[i - 1])]
    w = solve(problem, masses, points, SolverConfig(seed=case, starts=4))
    assert w.success and w.max_equipartition_residual() < 5e-3


def test_solve_bisection_small():
    m1 = gaussian(5_000, (4,), "1.1")
    m2 = gaussian(5_000, (5,), "1.2", mean=(2.0, 1.0), cov=0.5)
    w = solve(ConstraintProblem.of(1, m=(2,)), [m1, m2], config=FAST)
    assert w.success
    assert w.max_equipartition_residual() < 5e-3
    assert w.to_dict()["evaluation_mode"] == "hard"


def test_solve_witness_residuals_recompute_in_hard_mode():
    m1 = gaussian(5_000, (6,), "1.1")
    m2 = gaussian(5_000, (7,), "2.1", mean=(1.5, -0.5), cov=0.6)
    problem = ConstraintProblem.of(2, m=(1, 1))
    w = solve(problem, [m1, m2], config=FAST)
    again = residuals(problem, [m1, m2], w.hyperplanes)
    # solve reports its best start's own hard evaluation: the same bytes,
    # apart from the fields solve adds
    bare = dataclasses.replace(w, success=None, seed=None, config=None, diagnostics=None)
    assert again.to_json() == bare.to_json()


def test_solve_determinism_bit_identical():
    m1 = gaussian(4_000, (8,), "1.1")
    m2 = gaussian(4_000, (9,), "2.1", mean=(1.5, -0.5), cov=0.6)
    problem = ConstraintProblem.of(2, m=(1, 1))
    w1 = solve(problem, [m1, m2], config=FAST)
    w2 = solve(problem, [m1, m2], config=FAST)
    assert w1.to_json() == w2.to_json()
    w3 = solve(problem, [m1, m2], config=dataclasses.replace(FAST, seed=123))
    assert w1.to_json() != w3.to_json()


def test_carrying_the_memory_through_the_stages_saves_evaluations(monkeypatch):
    # the same solve with every stage starting from no pairs (solver.minimize
    # called without `pairs`) succeeds too, but takes more evaluations
    m1 = gaussian(2_000, (4,), "1.1")
    m2 = gaussian(2_000, (5,), "1.2", mean=(2.0, 1.0), cov=0.5)
    original = equipart.solver.minimize

    def solve_counting(drop_pairs):
        nfev = 0

        def counting(*args, **kwargs):
            nonlocal nfev
            if drop_pairs:
                del kwargs["pairs"]
            res = original(*args, **kwargs)
            nfev += res.nfev
            return res

        monkeypatch.setattr(equipart.solver, "minimize", counting)
        w = solve(ConstraintProblem.of(1, m=(2,)), [m1, m2], config=FAST)
        return w.success, nfev

    (carried_ok, carried), (dropped_ok, dropped) = solve_counting(False), solve_counting(True)
    assert carried_ok and dropped_ok
    assert carried < dropped


THREAD_COUNT_SOLVES = """
from equipart.masses import sample_gaussian_mixture
from equipart.problems import ConstraintProblem
from equipart.solver import SolverConfig, solve

config = SolverConfig(seed=5, starts=1)
for mean, mass_seed in (([0.0, 0.0], 3), ([0.0], 2)):
    mass = sample_gaussian_mixture(
        [{"mean": mean, "cov": "I", "weight": 1}], 20_000, mass_seed, label="1.1"
    )
    print(solve(ConstraintProblem.of(1, m=(1,)), [mass], config=config).to_json())
"""


def test_solve_does_not_depend_on_the_blas_thread_count():
    # 20,000 points are past the size where OpenBLAS splits a reduction
    # over them between its threads, and so sums in an order that depends
    # on the thread count; the witnesses must come out the same regardless.
    # With one plane the smoothed masses end in such a reduction, and in
    # R^1 so does the gradient, whose product is then (1, N) @ (N, 1)
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_COUNT_SOLVES],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.splitlines())
    assert len(runs[0]) == 2
    assert all(json.loads(doc)["success"] is True for doc in runs[0])
    assert runs[0] == runs[1]


def test_solve_parallel_matches_sequential():
    m1 = gaussian(3_000, (10,), "1.1")
    m2 = gaussian(3_000, (11,), "2.1", mean=(1.5, -0.5), cov=0.6)
    problem = ConstraintProblem.of(2, m=(1, 1))
    w1 = solve(problem, [m1, m2], config=FAST)
    w2 = solve(problem, [m1, m2], config=dataclasses.replace(FAST, jobs=2))
    d1, d2 = w1.to_dict(), w2.to_dict()
    d1.pop("config"), d2.pop("config")  # config echoes the jobs setting
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # the planes come back from a worker process read-only, as assembled
    assert not any(h.vector.flags.writeable for h in w2.hyperplanes)


def test_solve_reports_failure_honestly():
    # unreachable tolerance: the solver returns success=False, no exception
    m1 = gaussian(500, (12,), "1.1")
    cfg = dataclasses.replace(FAST, starts=1, tol=-1.0)
    w = solve(ConstraintProblem.of(2, m=(1, 0), ortho=[(1, 2)]), [m1], config=cfg)
    assert w.success is False
    assert w.objective >= 0


def test_solve_requires_masses():
    with pytest.raises(ConfigurationError):
        solve(ConstraintProblem.of(1, m=(1,)), [], config=FAST)


def test_solve_geometrically_impossible_constraints():
    # three pairwise-orthogonal lines cannot exist in the plane; every
    # start degenerates, is redrawn MAX_DEGENERATE_RESTARTS times and then
    # given up, and the solver reports failure without raising
    m3 = gaussian(300, (14,), "3.1")
    problem = ConstraintProblem.of(3, m=(0, 0, 1), ortho=[(1, 2), (1, 3), (2, 3)])
    cfg = dataclasses.replace(FAST, starts=2)
    w = solve(problem, [m3], config=cfg)
    assert w.success is False and w.diagnostics["starts_run"] == 2
    assert w.diagnostics["degenerate_restarts"] == 2 * (MAX_DEGENERATE_RESTARTS + 1)


@pytest.mark.parametrize("k, m, d, regions", [
    (3, (1, 0, 0), 2, 7),
    (3, (0, 1, 1), 1, 3),
    (2, (2, 0), 1, 3),
    (4, (0, 1, 0, 0), 2, 7),
])
def test_solve_refuses_a_stage_its_planes_cannot_cut_finely_enough(
    monkeypatch, k, m, d, regions
):
    # n hyperplanes in R^d cut at most sum_{j<=d} C(n, j) regions, fewer
    # than the 2^n orthants a mass cut by all n of them needs once n > d:
    # refused before any start runs
    monkeypatch.setattr(equipart.solver, "minimize", None)
    n = k - next(i for i, count in enumerate(m) if count)
    masses = [
        gaussian(200, (24, i, j), f"{i}.{j}", mean=(0.0,) * d)
        for i in range(1, k + 1)
        for j in range(1, m[i - 1] + 1)
    ]
    message = (
        rf"a stage-{k - n + 1} mass needs 2\^{n} regions, "
        rf"but {n} hyperplanes in R\^{d} cut at most {regions}$"
    )
    with pytest.raises(ConfigurationError, match=message):
        solve(ConstraintProblem.of(k, m=m), masses, config=FAST)


@pytest.mark.parametrize("k, m", [(2, (1, 0)), (3, (0, 1, 1))])
def test_solve_still_runs_when_the_planes_cut_enough_regions(k, m):
    # two lines cut the plane into 4 regions, enough for a stage mass cut
    # by two of them, whatever k is
    masses = [
        gaussian(3_000, (25, i, j), f"{i}.{j}", mean=(0.5 * j, -0.5 * i))
        for i in range(1, k + 1)
        for j in range(1, m[i - 1] + 1)
    ]
    w = solve(ConstraintProblem.of(k, m=m), masses, config=FAST)
    assert w.success is True


def test_witness_json_schema():
    m1 = gaussian(1_000, (13,), "1.1")
    w = solve(ConstraintProblem.of(1, m=(1,)), [m1], config=FAST)
    doc = json.loads(w.to_json())
    assert doc["schema_version"] == 1
    assert set(doc["residuals"]) == {"equipartition", "orthogonality", "containment"}
    assert doc["seed"] == 0 and doc["config"]["starts"] == 4
    assert set(doc["diagnostics"]) == {
        "starts_run", "best_start", "degenerate_restarts", "evaluations", "stage_evaluations"
    }
    assert doc["diagnostics"]["starts_run"] >= 1
    stages = doc["diagnostics"]["stage_evaluations"]
    assert len(stages) == 4 and sum(stages) == doc["diagnostics"]["evaluations"]
    hp = doc["hyperplanes"][0]
    assert set(hp) == {"normal", "offset"}


def test_suite_compare_reads_two_records_instance_by_instance(tmp_path, capsys):
    import solver_suites

    def row(suite, seed, index, success, worst, starts, evaluations):
        return {"suite": suite, "seed": seed, "index": index, "success": success,
                "max_equipartition": worst, "starts_run": starts, "evaluations": evaluations}

    old = [row("tight", 7, 1, True, 1e-4, 1, 20), row("tight", 7, 2, True, 1e-2, 2, 30),
           row("large", 8, 3, False, 0.5, 8, 50)]
    new = [row("tight", 7, 1, False, 0.5, 8, 40), row("tight", 7, 2, True, 1e-4, 1, 15),
           row("large", 8, 3, True, 6e-3, 1, 5)]
    paths = []
    for name, rows in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert solver_suites.main(["--compare", *map(str, paths)]) == 0
    tight, large, total = map(json.loads, capsys.readouterr().out.splitlines())
    assert tight["suite"] == "tight" and large["suite"] == "large"
    assert tight["evaluations"] == [50, 55] and tight["ratio"] == 1.1
    assert tight["successes_lost"] == ["tight 7 #1"] and tight["successes_gained"] == []
    assert tight["misses_added"] == [] and tight["misses_removed"] == ["tight 7 #2"]
    assert tight["starts_changed"] == [["tight 7 #1", 1, 8], ["tight 7 #2", 2, 1]]
    assert large["successes_gained"] == large["misses_added"] == ["large 8 #3"]
    assert total["solves"] == 3 and total["evaluations"] == [100, 60]
    assert total["starts_changed"][2] == ["large 8 #3", 8, 1]
    paths[1].write_text("".join(json.dumps(r) + "\n" for r in new[:2]))
    with pytest.raises(SystemExit):
        solver_suites.main(["--compare", *map(str, paths)])
