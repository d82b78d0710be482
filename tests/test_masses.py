import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipart.exceptions import ConfigurationError, RangeError, ShapeError
from equipart.masses import (
    SAMPLE_BLOCK,
    HyperplaneParam,
    SampledMass,
    load_mass_spec,
    parse_label,
    region_masses,
    sample_gaussian_mixture,
)
from equipart.solver import _subsample
from oracle import reference_mixture_points, reference_region_masses, side_fractions


def test_hyperplane_param_validation():
    h = HyperplaneParam.of([3.0, 4.0], 0.0)
    assert np.allclose(h.vector, [0.6, 0.8, 0.0])
    assert h.dim == 2 and h.offset == 0.0
    with pytest.raises(RangeError):
        HyperplaneParam(np.array([1.0, 0.0, 1.0]))  # not unit
    with pytest.raises(RangeError):
        HyperplaneParam(np.array([0.0, 0.0, 1.0]))  # hyperplane at infinity
    with pytest.raises(RangeError):
        HyperplaneParam.of([0.0, 0.0], 0.0)


def test_sampled_mass_validation():
    with pytest.raises(ConfigurationError):
        SampledMass(points=np.zeros((2, 2)), weights=np.array([1.0, 0.0]), label="1.1")
    with pytest.raises(ShapeError):
        SampledMass(points=np.zeros((2, 2)), weights=np.ones(3), label="1.1")
    with pytest.raises(ConfigurationError):
        parse_label("first")


def test_sampled_mass_rejects_non_finite_input():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(RangeError):
        SampledMass([[nan, 0.0], [1.0, 1.0]], [1.0, inf], "1.1")
    with pytest.raises(RangeError):
        SampledMass([[inf, 0.0], [1.0, 1.0]], [1.0, 1.0], "1.1")
    with pytest.raises(RangeError):
        SampledMass(np.zeros((2, 2)), [1.0, inf], "1.1")
    with pytest.raises(RangeError):
        SampledMass(np.zeros((2, 2)), [1.0, nan], "1.1")


def test_sampled_mass_rejects_weights_whose_sum_overflows():
    # every weight is finite, but their total is not, and every region mass
    # divided by it would be NaN
    with pytest.raises(RangeError, match="finite sum"):
        SampledMass(np.zeros((1_000, 2)), np.full(1_000, 1e306), "1.1")
    near = SampledMass(np.zeros((1_000, 2)), np.full(1_000, 1e305), "1.1")
    assert near.total == pytest.approx(1e308)


def test_sampled_mass_stores_coordinates_once_coordinate_major():
    pts = np.random.default_rng(3).standard_normal((50, 3))
    w = np.random.default_rng(4).uniform(0.1, 2.0, 50)
    mass = SampledMass(pts, w, "1.1")
    assert mass.coords.shape == (3, 50) and mass.coords.flags.c_contiguous
    assert mass.points.base is mass.coords and np.array_equal(mass.points, pts)
    assert not (mass.coords.flags.writeable or mass.points.flags.writeable)
    assert mass.dim == 3 and mass.total == float(w.sum())
    # worker processes receive the same layout, read-only and one copy
    again = pickle.loads(pickle.dumps(mass))
    assert again.points.base is again.coords and again.coords.flags.c_contiguous
    assert not (again.coords.flags.writeable or again.weights.flags.writeable)
    assert np.array_equal(again.coords, mass.coords) and again.total == mass.total


def test_equal_weights_are_held_as_one_value():
    # however the mass is built, equal weights are one float behind a
    # read-only zero-stride view, so its arithmetic does not depend on the path
    pts = np.random.default_rng(3).standard_normal((50_000, 2))
    built = SampledMass(pts, np.full(50_000, 0.25), "1.1")
    sampled = sample_gaussian_mixture([{"mean": [0.0, 0.0]}], 50_000, seed=3, total=12_500.0)
    for mass in (built, sampled, pickle.loads(pickle.dumps(sampled)), _subsample(sampled, 5_000)):
        assert mass.weights.strides == (0,) and not mass.weights.flags.writeable
        assert np.array_equal(mass.weights, np.full(len(mass.points), 0.25))
    w = np.random.default_rng(4).uniform(0.1, 2.0, 50_000)
    unequal = SampledMass(pts, w, "1.1")
    assert unequal.weights.flags.c_contiguous and not np.shares_memory(unequal.weights, w)


@pytest.mark.parametrize("n", [1, 2, 7, 2_000, 20_000, 99_999, 272_000])
def test_total_of_equal_weights_is_the_dense_sum(n):
    for total in (1.0, 2.5, 1e-3):
        mass = sample_gaussian_mixture([{"mean": [0.0]}], n, seed=n, total=total)
        assert mass.total == float(np.full(n, total / n).sum())


def test_sampler_refuses_a_non_finite_or_non_positive_total():
    mixture = [{"mean": [0.0, 0.0, 1.0], "cov": 0.5}]
    for total, error in ((inf, RangeError), (nan, RangeError), (-1.0, ConfigurationError),
                         (0.0, ConfigurationError)):
        with pytest.raises(error):
            sample_gaussian_mixture(mixture, 500, seed=2, total=total)


def test_gaussian_mixture_sampling():
    one = sample_gaussian_mixture([{"mean": [1.0, 2.0], "weight": 1}], 1, seed=0)
    assert one.points.shape == (1, 2) and one.total == pytest.approx(1.0)

    big = sample_gaussian_mixture(
        [{"mean": [3.0, -1.0], "cov": 4.0, "weight": 1}], 100_000, seed=1
    )
    # sample mean within 5 sigma / sqrt(N) of the target, per coordinate
    bound = 5 * 2.0 / np.sqrt(100_000)
    assert np.all(np.abs(big.points.mean(axis=0) - [3.0, -1.0]) < bound)

    again = sample_gaussian_mixture(
        [{"mean": [3.0, -1.0], "cov": 4.0, "weight": 1}], 100_000, seed=1
    )
    assert np.array_equal(big.points, again.points)

    other = sample_gaussian_mixture(
        [{"mean": [3.0, -1.0], "cov": 4.0, "weight": 1}], 100_000, seed=2
    )
    assert not np.array_equal(big.points, other.points)


def test_gaussian_mixture_bad_specs():
    with pytest.raises(ConfigurationError):
        sample_gaussian_mixture([], 10, seed=0)
    with pytest.raises(ConfigurationError):
        sample_gaussian_mixture([{"mean": [0, 0], "weight": -1}], 10, seed=0)
    with pytest.raises(ConfigurationError):
        sample_gaussian_mixture([{"mean": [0, 0], "cov": -2.0}], 10, seed=0)
    with pytest.raises(ConfigurationError):
        sample_gaussian_mixture([{"mean": [0, 0]}], 0, seed=0)


inf, nan = float("inf"), float("nan")


@pytest.mark.parametrize(
    "mixture, error, match",
    [
        # the Cholesky factorisation would read only the lower triangle
        ([{"mean": [0, 0], "cov": [[1, 5], [0, 1]]}], ConfigurationError, "symmetric"),
        ([{"mean": [0, 0], "weight": inf}], ConfigurationError, "weights"),
        ([{"mean": [0, 0], "weight": nan}], ConfigurationError, "weights"),
        ([{"mean": [0, 0], "weight": 0.0}], ConfigurationError, "weights"),
        ([{"mean": [0, 0], "weight": 1e308}] * 2, ConfigurationError, "weights"),
        ([{"mean": [0, 0], "cov": [[inf, 0], [0, 1]]}], RangeError, "covariance"),
        ([{"mean": [0, 0], "cov": [[1, nan], [nan, 1]]}], RangeError, "covariance"),
        ([{"mean": [0, 0], "cov": inf}], RangeError, "covariance"),
        ([{"mean": [0, 0], "cov": nan}], RangeError, "covariance"),
        ([{"mean": [0, 0]}, {"mean": [inf, 0]}], RangeError, "means"),
    ],
)
def test_gaussian_mixture_refuses_bad_components_before_drawing(monkeypatch, mixture, error, match):
    def no_draw(seed):
        raise AssertionError("points were drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(error, match=match):
        sample_gaussian_mixture(mixture, 10, seed=0)


@st.composite
def mixtures(draw):
    """1..3 components in R^1..R^4, each with the identity, a scalar or a
    general positive definite covariance."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixture = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["I", "scalar", "matrix"]))
        if kind == "scalar":
            cov = float(rng.uniform(0.1, 3.0))
        elif kind == "matrix":
            a = rng.standard_normal((d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            cov = ((cov + cov.T) / 2).tolist()
        else:
            cov = kind
        mixture.append(
            {"mean": rng.standard_normal(d).tolist(), "cov": cov, "weight": float(rng.uniform(0.1, 2))}
        )
    return mixture


@settings(max_examples=100, deadline=None)
@given(mixtures(), st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_mixture_points_match_the_stacked_factor_formula(mixture, n, seed):
    got = sample_gaussian_mixture(mixture, n, seed).points
    assert np.array_equal(got, reference_mixture_points(mixture, n, seed))


# Fixed draws and the first 16 hex digits of sha256 over their coords,
# weights and total bytes, recorded before the sampler drew in place.
PINNED_DRAWS = [
    ([{"mean": [0.5, -1.0, 2.0], "cov": "I"}], 1_000, 11, 1.0, "6b0e5e7c482e733c"),
    ([{"mean": [3.0, -1.0], "cov": 0.25}], 1_000, 12, 1.0, "ca72addc1f6c1437"),
    (
        [
            {"mean": [-2.0], "cov": 0.5, "weight": 1.0},
            {"mean": [0.0], "cov": "I", "weight": 2.0},
            {"mean": [4.0], "cov": [[3.0]], "weight": 0.5},
        ],
        1_001,
        13,
        2.5,
        "23503d101733619d",
    ),
]


@pytest.mark.parametrize("mixture, n, seed, total, digest", PINNED_DRAWS)
def test_sampled_bytes_are_pinned(mixture, n, seed, total, digest):
    mass = sample_gaussian_mixture(mixture, n, seed, total=total)
    h = hashlib.sha256()
    for part in (mass.coords, mass.weights, np.float64(mass.total)):
        h.update(np.ascontiguousarray(part).tobytes())
    assert h.hexdigest()[:16] == digest


def test_sampler_holds_the_mass_about_once():
    # the draw goes straight into the array the mass keeps: its traced peak
    # is the normal deviates plus the mass, not a gathered copy on top
    tracemalloc.start()
    try:
        mass = sample_gaussian_mixture([{"mean": [0.0, 1.0, -1.0]}], 200_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * (mass.coords.nbytes + mass.weights.nbytes)
    assert mass.coords.flags.c_contiguous and mass.weights.strides == (0,)
    assert not (mass.coords.flags.writeable or mass.weights.flags.writeable)
    assert mass.points.base is mass.coords


def test_mixture_sampler_holds_the_mass_about_once():
    # a mixture is scattered a block of points at a time: its traced peak
    # stays under the one-component bound, with no gathered copy of its
    # deviates and a one-byte component index per point
    mixture = [{"mean": [0.0, 1.0, -1.0]}, {"mean": [2.0, 0.0, 0.0], "cov": 0.5, "weight": 2}]
    tracemalloc.start()
    try:
        mass = sample_gaussian_mixture(mixture, 200_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * (mass.coords.nbytes + mass.weights.nbytes)


def test_mixture_points_match_the_stacked_factor_formula_across_blocks():
    mixture = [
        {"mean": [-2.0, 0.0], "cov": 0.5},
        {"mean": [0.0, 1.0], "weight": 2.0},
        {"mean": [4.0, -1.0], "cov": [[3.0, 0.5], [0.5, 1.0]], "weight": 0.5},
    ]
    n = 3 * SAMPLE_BLOCK + 5
    got = sample_gaussian_mixture(mixture, n, seed=14).points
    assert np.array_equal(got, reference_mixture_points(mixture, n, seed=14))


def test_region_masses_tie_splitting():
    mass = SampledMass(points=np.zeros((1, 2)), weights=np.array([2.0]), label="1.1")
    h = HyperplaneParam.of([1.0, 0.0], 0.0)
    assert np.allclose(region_masses(mass, [h], 1), [1.0, 1.0])


def test_side_fraction_rule():
    s = np.array([1.0, -1.0, 0.0, 5e-13, -5e-13])
    assert np.array_equal(side_fractions(s, "hard"), [1.0, 0.0, 0.5, 0.5, 0.5])
    smooth = side_fractions(s, "smoothed", tau=0.5)
    assert smooth[0] > 0.5 > smooth[1] and smooth[2] == 0.5


def test_region_masses_double_tie_splits_four_ways():
    # a point on both hyperplanes spreads across all four orthants
    mass = SampledMass(
        points=np.array([[0.0, 0.0], [1.0, 1.0]]),
        weights=np.array([1.0, 1.0]),
        label="1.1",
    )
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    assert np.allclose(region_masses(mass, hs, 1), [1.25, 0.25, 0.25, 0.25])


def test_region_masses_axis_symmetry():
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mass = SampledMass(points=pts, weights=np.full(4, 0.25), label="1.1")
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    assert np.allclose(region_masses(mass, hs, 1), [0.25] * 4)
    # stage 2 uses only the second hyperplane
    assert np.allclose(region_masses(mass, hs, 2), [0.5, 0.5])


def test_region_masses_orthant_indexing():
    # single point on the positive side of plane 1, negative side of plane 2:
    # index = bit0 * (side of plane 1) + bit1 * (side of plane 2) = 2
    mass = SampledMass(points=np.array([[1.0, -1.0]]), weights=np.array([1.0]), label="1.1")
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    assert np.allclose(region_masses(mass, hs, 1), [0.0, 0.0, 1.0, 0.0])


def test_region_masses_conservation():
    rng = np.random.default_rng(3)
    mass = SampledMass(
        points=rng.standard_normal((5_000, 3)),
        weights=rng.uniform(0.1, 2.0, 5_000),
        label="1.1",
    )
    hs = [
        HyperplaneParam.of(rng.standard_normal(3), rng.standard_normal())
        for _ in range(3)
    ]
    for stage in (1, 2, 3):
        got = region_masses(mass, hs, stage)
        assert got.sum() == pytest.approx(mass.total, abs=1e-12 * mass.total)
    smooth = region_masses(mass, hs, 1, tau=0.3)
    assert smooth.sum() == pytest.approx(mass.total, abs=1e-9 * mass.total)


def test_region_masses_reflection_equivariance():
    rng = np.random.default_rng(4)
    mass = SampledMass(
        points=rng.standard_normal((2_000, 2)), weights=np.full(2_000, 1.0), label="1.1"
    )
    h1 = HyperplaneParam.of([1.0, 0.2], 0.1)
    h2 = HyperplaneParam.of([-0.3, 1.0], -0.2)
    base = region_masses(mass, [h1, h2], 1)
    flipped = region_masses(mass, [h1, HyperplaneParam(-h2.vector)], 1)
    # negating hyperplane 2 flips bit 1 of every orthant index
    perm = [idx ^ 0b10 for idx in range(4)]
    assert np.allclose(flipped, base[perm])


def test_smoothed_approaches_hard():
    rng = np.random.default_rng(5)
    mass = SampledMass(
        points=rng.standard_normal((2_000, 2)), weights=np.full(2_000, 1.0), label="1.1"
    )
    hs = [HyperplaneParam.of([1.0, 0.4], 0.3), HyperplaneParam.of([-0.2, 1.0], 0.0)]
    hard = region_masses(mass, hs, 1)
    for tau, tol in ((0.1, 20.0), (0.01, 3.0), (0.001, 0.5)):
        smooth = region_masses(mass, hs, 1, tau=tau)
        assert np.max(np.abs(smooth - hard)) < tol


@st.composite
def cut_clouds(draw):
    """Random weighted points and 1..4 hyperplanes in R^1..R^4.  Each
    hyperplane may be moved to pass exactly through point 0 or point 1
    (point 2 repeats point 0), planting ties on one or several planes."""
    d = draw(st.integers(1, 4))
    n_planes = draw(st.integers(1, 4))
    n_points = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n_points, d))
    points[2] = points[0]
    mass = SampledMass(points, rng.uniform(0.1, 2.0, n_points), "1.1")
    planes = []
    for _ in range(n_planes):
        normal = rng.standard_normal(d)
        normal /= np.linalg.norm(normal)
        anchor = draw(st.sampled_from([None, 0, 1]))
        offset = rng.standard_normal() if anchor is None else points[anchor] @ normal
        planes.append(HyperplaneParam.of(normal, offset))
    return mass, planes


TAUS = (1e-3, 0.05, 0.5, 3.0)


def vectors(planes):
    return [h.vector for h in planes]


def assert_smoothed_matches_reference(mass, planes, stage, tau):
    got = region_masses(mass, planes, stage, tau=tau)
    want = reference_region_masses(mass, vectors(planes[stage - 1 :]), "smoothed", tau)
    assert np.max(np.abs(got - want)) <= 1e-12 * mass.total
    # the masses that come with a gradient must be the same
    with_grad = region_masses(mass, planes, stage, tau=tau, cotangent=np.ones_like)
    assert np.array_equal(with_grad[0], got)


@settings(max_examples=150, deadline=None)
@given(cut_clouds(), st.data())
def test_region_masses_match_per_point_reference(cloud, data):
    mass, planes = cloud
    tol = 1e-12 * mass.total
    for stage in range(1, len(planes) + 1):
        got = region_masses(mass, planes, stage)
        want = reference_region_masses(mass, vectors(planes[stage - 1 :]), "hard")
        assert np.max(np.abs(got - want)) <= tol
        assert_smoothed_matches_reference(mass, planes, stage, data.draw(st.sampled_from(TAUS)))
        # at a tiny tau a planted tie's side turns on the rounding of its
        # signed distance, so only finiteness and conservation are checked
        got = region_masses(mass, planes, stage, tau=1e-300)
        assert np.isfinite(got).all() and abs(got.sum() - mass.total) <= tol


@pytest.mark.parametrize("n_planes", [1, 3])
def test_smoothed_region_masses_match_reference_on_a_full_size_cloud(n_planes):
    # the witness workload's shapes: 100,000 points cut by one plane or by
    # three, past the size where a threaded BLAS would split the point axis
    rng = np.random.default_rng(21)
    mass = SampledMass(rng.standard_normal((100_000, 3)), rng.uniform(0.1, 2.0, 100_000), "1.1")
    planes = [HyperplaneParam.of(rng.standard_normal(3), rng.normal(0.0, 0.3)) for _ in range(3)]
    for tau in TAUS:
        assert_smoothed_matches_reference(mass, planes[:n_planes], 1, tau)


@settings(max_examples=100, deadline=None)
@given(cut_clouds(), st.data())
def test_region_mass_gradient_matches_central_differences_of_the_reference(cloud, data):
    # the pull-back of the cotangent c * R, a function of the masses R at
    # a random c, against central differences of the per-point reference
    # in each plane-vector entry
    mass, planes = cloud
    stage = data.draw(st.integers(1, len(planes)), label="stage")
    tau = data.draw(st.sampled_from(TAUS), label="tau")
    c = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        2 ** (len(planes) - stage + 1)
    )
    got, grad = region_masses(mass, planes, stage, tau=tau, cotangent=lambda r: c * r)
    c = c * got
    V = np.array(vectors(planes[stage - 1 :]))
    step = 1e-4 * tau  # the masses bend on the scale tau
    numeric = np.empty_like(V)
    for entry in np.ndindex(V.shape):
        e = np.zeros_like(V)
        e[entry] = step
        up = reference_region_masses(mass, V + e, "smoothed", tau)
        down = reference_region_masses(mass, V - e, "smoothed", tau)
        numeric[entry] = c @ (up - down) / (2 * step)
    # bounds every entry: all the weight at a slope of 1/tau, past the steepest
    scale = np.abs(c).max() * mass.total * max(1.0, np.abs(mass.points).max()) / tau
    assert grad.shape == V.shape
    assert np.max(np.abs(grad - numeric)) <= 1e-7 * scale


def with_dense_weights(mass):
    """The same mass with its equal weights in a dense C-contiguous array,
    the layout the one-value weights are checked against."""
    dense = SampledMass(mass.points, mass.weights, mass.label)
    dense.weights = np.ascontiguousarray(mass.weights)
    return dense


@pytest.mark.parametrize("n_planes", [1, 2, 3])
def test_region_masses_of_equal_weights_match_dense_weights(n_planes):
    # with more planes than one the product tree's table is dense and the
    # masses and gradient are the same bit for bit; one plane's side-0 mass,
    # hard or smoothed, sums its fractions against a zero-stride table, in an
    # einsum loop that takes w * sum(F), not sum(w * F), and agrees to
    # rounding (4e-14 of the total at most over 2,000 to 100,000 points)
    rng = np.random.default_rng(22)
    mass = sample_gaussian_mixture([{"mean": [0.0, 0.5, -0.5]}], 20_000, seed=22, total=3.0)
    dense = with_dense_weights(mass)
    planes = [HyperplaneParam.of(rng.standard_normal(3), rng.normal(0.0, 0.3))
              for _ in range(n_planes)]
    c = rng.standard_normal(2**n_planes)
    got, want = region_masses(mass, planes, 1), region_masses(dense, planes, 1)
    if n_planes > 1:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * mass.total
    for tau in TAUS:
        got = region_masses(mass, planes, 1, tau=tau)
        want = region_masses(dense, planes, 1, tau=tau)
        grad = region_masses(mass, planes, 1, tau=tau, cotangent=lambda r: c * r)[1]
        want_grad = region_masses(dense, planes, 1, tau=tau, cotangent=lambda r: c * r)[1]
        if n_planes > 1:
            assert np.array_equal(got, want) and np.array_equal(grad, want_grad)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * mass.total
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_region_masses_tie_on_several_planes_matches_reference():
    # point 0 lies on the first three planes, point 1 on the last one only
    rng = np.random.default_rng(6)
    points = rng.standard_normal((10, 3))
    mass = SampledMass(points, rng.uniform(0.1, 2.0, 10), "1.1")
    planes = []
    for anchor in (0, 0, 0, 1):
        normal = rng.standard_normal(3)
        planes.append(HyperplaneParam.of(normal, points[anchor] @ normal))
    # and an integer grid cut along three of its lines, through a common
    # grid point: 234 to 259 of its 3,000 points lie on each plane
    grid = SampledMass(
        rng.integers(-5, 6, (3_000, 2)).astype(float), rng.uniform(0.1, 2.0, 3_000), "1.1"
    )
    grid_planes = [HyperplaneParam.of(*cut) for cut in (([1.0, 0.0], 0.0), ([0.0, 1.0], 2.0),
                                                       ([1.0, 1.0], 2.0))]
    for cloud, cuts in ((mass, planes), (grid, grid_planes)):
        for stage in range(1, len(cuts) + 1):
            got = region_masses(cloud, cuts, stage)
            want = reference_region_masses(cloud, vectors(cuts[stage - 1 :]), "hard")
            assert np.max(np.abs(got - want)) <= 1e-12 * cloud.total
    # alone, point 0 spreads evenly over the 8 orthants of the planes it is on
    alone = SampledMass(points[:1], [1.0], "1.1")
    got = region_masses(alone, planes, 1)
    assert np.count_nonzero(got) == 8 and np.allclose(got[got > 0], 0.125)


def test_one_plane_hard_masses_peak_near_the_distances_alone():
    # one plane's hard masses on a sampled mass: the signed distances turn
    # into side fractions in place, and its zero-stride weights are read as
    # they are, not copied
    mass = sample_gaussian_mixture([{"mean": [0.0, 0.5, -0.5]}], 100_000, seed=23)
    plane = HyperplaneParam.of([1.0, -0.5, 0.25], 0.1)
    tracemalloc.start()
    try:
        region_masses(mass, [plane], 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * mass.coords.shape[1]


def test_smoothed_tiny_tau_stays_finite_on_a_plane():
    mass = SampledMass(
        points=np.array([[0.0, 0.0], [1.0, 0.0], [-2.0, 1.0]]),
        weights=np.array([1.0, 2.0, 4.0]),
        label="1.1",
    )
    hs = [HyperplaneParam.of([1.0, 0.0], 0.0), HyperplaneParam.of([0.0, 1.0], 0.0)]
    for tau in (1e-300, 5e-324):
        got = region_masses(mass, hs, 1, tau=tau)
        assert np.isfinite(got).all()
        # the origin lies on both planes and splits four ways, as with hard masses
        assert np.allclose(got, region_masses(mass, hs, 1), rtol=0, atol=1e-12)


def test_region_masses_errors():
    mass = SampledMass(points=np.zeros((1, 2)), weights=np.ones(1), label="1.1")
    h = HyperplaneParam.of([1.0, 0.0], 0.0)
    with pytest.raises(RangeError):
        region_masses(mass, [h], 2)
    h3 = HyperplaneParam.of([1.0, 0.0, 0.0], 0.0)
    with pytest.raises(ShapeError):
        region_masses(mass, [h3], 1)
    # tau=None means hard masses; a temperature must be positive
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError):
            region_masses(mass, [h], 1, tau=tau)
    with pytest.raises(ConfigurationError):  # hard masses are piecewise constant
        region_masses(mass, [h], 1, cotangent=np.ones_like)


def test_load_mass_spec():
    spec = {
        "d": 2,
        "masses": [
            {"label": "1.1", "mixture": [{"mean": [0, 0], "cov": "I", "weight": 1}], "N": 50},
            {"label": "2.1", "mixture": [{"mean": [1, 1], "cov": 0.5, "weight": 1}], "N": 60},
        ],
        "points": [{"hyperplane": 2, "coords": [0.0, 0.0]}],
    }
    d, masses, points = load_mass_spec(spec, master_seed=0)
    assert d == 2 and [m.label for m in masses] == ["1.1", "2.1"]
    assert masses[0].points.shape == (50, 2) and masses[1].points.shape == (60, 2)
    assert points == [{"hyperplane": 2, "coords": [0.0, 0.0]}]
    # reproducible from the master seed
    _, again, _ = load_mass_spec(spec, master_seed=0)
    assert np.array_equal(masses[0].points, again[0].points)
    with pytest.raises(ConfigurationError):
        load_mass_spec({"masses": []}, 0)


@pytest.mark.parametrize("n", [10**12, 10**30])
def test_load_mass_spec_refuses_oversized_mass_before_sampling(n):
    # N * d past MAX_SAMPLE_VALUES is refused before any array is allocated
    spec = {"d": 2, "masses": [{"mixture": [{"mean": [0, 0]}], "N": n}]}
    with pytest.raises(RangeError, match=f"N={n} points in R\\^2"):
        load_mass_spec(spec, master_seed=0)
