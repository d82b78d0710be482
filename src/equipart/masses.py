"""Sampled masses and hyperplane geometry.

A mass is a weighted point cloud standing in for an absolutely continuous
measure.  A hyperplane is a unit vector (normal, offset) in R^(d+1); the
two closed half-spaces are side 0 = {<u, normal> >= offset} and side 1 =
its complement.  Near-zero normals would describe the degenerate
"hyperplane at infinity" and are rejected.

A `SampledMass` stores its coordinates once, coordinate-major: `coords`
is a C-contiguous (d, N) array and `points` its (N, d) transposed view.
Weights that are all equal, as a sampled mass's are, are stored as one
value: `weights` is then a read-only zero-stride view of length N.  The
rule holds however the mass is built (sampled, constructed, subsampled
or unpickled), so a mass's arithmetic does not depend on how it was
built.  `sample_gaussian_mixture` writes the mass in place: it draws
straight into the coordinate array, which the mass then keeps without a
copy.

`region_masses` is the one region-mass kernel, shared by the solver's
objective and its residuals.  It works in row layout: the n hyperplanes
in play are stacked into V (n, d+1), and one matmul over contiguous
memory gives every signed distance as S = V[:, :d] @ coords - offset, an
(n, N) array whose rows are contiguous.  S becomes, in place, the side-0
fractions F: 0.5 + 0.5 tanh(S / 2 tau) = expit(S / tau) at a temperature
tau > 0, and without one their tau -> 0 limit, the hard masses: 1 or 0
off the planes and 1/2 where |s| <= TIE_EPS.  One binary product tree
over the rows reduces F to the orthant masses; with hard fractions every
product is w * 2^-(ties), exact.  Given a cotangent dL/dR, it also
returns dL/dV for the plane vectors V by reverse-mode differentiation,
without forming the Jacobian dR/dV.  No copy of the points is made or
cached.

No reduction over the point axis goes through BLAS (a dot product or a
matrix product): OpenBLAS splits such a sum over N between its threads,
so its result, and every witness built on it, would depend on the thread
count, and on a small machine the woken threads cost more than the sum.
Those reductions are `np.einsum` loops or `sum`s, which never enter BLAS
and add in a fixed order.  BLAS keeps the signed distances, which sum
over the d coordinates only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import jsontypes
from .exceptions import ConfigurationError, RangeError, ShapeError

TIE_EPS = 1e-12
MIN_NORMAL_NORM = 1e-6
UNIT_TOL = 1e-12
# Cap on N * d, the coordinates one sampled mass holds: 10^8 float64
# values are 800 MB before any work, so a larger spec is refused before
# anything is drawn.
MAX_SAMPLE_VALUES = 10**8
# Points a mixture's components are scattered in at a time.
SAMPLE_BLOCK = 16_384


@dataclass(frozen=True)
class HyperplaneParam:
    """A point of S^d parameterizing a hyperplane in R^d."""

    vector: np.ndarray  # length d+1: (normal, offset)

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ShapeError("hyperplane parameter must be a vector in R^(d+1), d >= 1")
        if not np.isfinite(v).all():
            raise RangeError(f"hyperplane parameter has non-finite entries: {v!r}")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > UNIT_TOL:
            raise RangeError(f"hyperplane parameter must be unit length, |v| = {norm!r}")
        if float(np.linalg.norm(v[:-1])) < MIN_NORMAL_NORM:
            raise RangeError("normal part is numerically zero (hyperplane at infinity)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    def __reduce__(self):
        # a plane sent back from a worker process arrives checked and read-only
        return (HyperplaneParam, (self.vector,))

    @classmethod
    def _adopt(cls, v: np.ndarray) -> "HyperplaneParam":
        """Freeze and wrap a float vector that the caller has just built,
        keeps no other reference to, and has already normalised to unit
        length with a normal part of norm >= MIN_NORMAL_NORM.  Skips the
        checks and the copy __post_init__ makes, which the solver's
        assembly would otherwise pay on every objective evaluation."""
        v.flags.writeable = False
        h = object.__new__(cls)
        object.__setattr__(h, "vector", v)
        return h

    @classmethod
    def of(cls, normal: Sequence[float], offset: float) -> "HyperplaneParam":
        v = np.append(np.asarray(normal, dtype=float), float(offset))
        n = np.linalg.norm(v)
        if n == 0:
            raise RangeError("zero hyperplane parameter")
        return cls(v / n)

    @property
    def dim(self) -> int:
        return self.vector.size - 1

    @property
    def normal(self) -> np.ndarray:
        return self.vector[:-1]

    @property
    def offset(self) -> float:
        return float(self.vector[-1])

    def to_dict(self) -> dict:
        return {"normal": [float(x) for x in self.normal], "offset": self.offset}


@dataclass
class SampledMass:
    """Weighted point cloud; label "i.j" ties it to stage i, index j.

    The coordinates are stored once, coordinate-major: `coords` is a
    C-contiguous (d, N) array and `points` its (N, d) transposed view.
    `weights` is a length-N vector; when all its entries are equal it is
    a zero-stride view of one value, otherwise a C-contiguous copy (use
    np.ascontiguousarray for a dense array either way).  All three are
    read-only; `total` is the weight sum, taken once at construction, and
    bit for bit the sum of the dense weights."""

    points: np.ndarray
    weights: np.ndarray
    label: str
    coords: np.ndarray = field(init=False, repr=False, compare=False)
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ShapeError("points must be a non-empty (N, d) array")
        if w.shape != (pts.shape[0],):
            raise ShapeError("weights must be a length-N vector")
        self._store(np.array(pts.T, order="C"), w)

    def _store(self, coords: np.ndarray, w: np.ndarray) -> None:
        """Check and freeze a (d, N) C-contiguous float array, which this
        mass then owns, and its length-N float weights, and take the total.
        Equal weights are kept as one value in a zero-stride view, other
        weights as a copy."""
        w = np.broadcast_to(w[0], w.shape) if (w == w[0]).all() else w.copy()
        if not (np.isfinite(coords).all() and np.isfinite(w).all()):
            raise RangeError("points and weights must be finite")
        if not (w > 0).all():
            raise ConfigurationError("all weights must be positive")
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            total = float(w.sum())
        if not np.isfinite(total):
            raise RangeError(f"weights must have a finite sum, got {total}")
        coords.flags.writeable = False
        w.flags.writeable = False
        self.coords = coords
        self.points = coords.T
        self.weights = w
        self.total = total

    @classmethod
    def _adopt(cls, coords: np.ndarray, w: np.ndarray, label: str) -> "SampledMass":
        """A mass on a (d, N) C-contiguous float array that the caller has
        just built and keeps no other reference to, and its float weights,
        length N or one value for all N: the same checks as the
        constructor, without its copy of the coordinates."""
        mass = object.__new__(cls)
        mass.label = label
        mass._store(coords, np.broadcast_to(w, coords.shape[1:]))
        return mass

    def __reduce__(self):
        # pickle (for worker processes) the coordinates once and equal
        # weights as their one value; unpickling rebuilds the read-only
        # coordinate-major layout, the total, and equal weights as one value
        w = self.weights
        return (SampledMass._adopt, (self.coords, w[0] if w.strides == (0,) else w, self.label))

    @property
    def dim(self) -> int:
        return int(self.coords.shape[0])


def parse_label(label: str) -> tuple[int, int]:
    """Split "i.j" into (stage, index)."""
    try:
        i, j = label.split(".")
        return int(i), int(j)
    except ValueError as exc:
        raise ConfigurationError(f"mass label {label!r} is not of the form 'i.j'") from exc


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def _component_cov(cov, d: int) -> np.ndarray:
    if cov is None or (isinstance(cov, str) and cov.upper() == "I"):
        return np.eye(d)
    mat = np.asarray(cov, dtype=float)
    if not np.isfinite(mat).all():
        raise RangeError(f"covariance must be finite, got {mat.tolist()}")
    if mat.ndim == 0:  # a scalar; a non-positive one fails the Cholesky factorisation
        mat = float(mat) * np.eye(d)
    if mat.shape != (d, d):
        raise ConfigurationError(f"covariance must be {d}x{d}, got shape {mat.shape}")
    # to 1e-10 of its largest entry: the Cholesky factor reads only the lower triangle
    if np.abs(mat - mat.T).max() > 1e-10 * np.abs(mat).max():
        raise ConfigurationError(f"covariance must be symmetric, got {mat.tolist()}")
    return mat


def sample_gaussian_mixture(
    mixture: Sequence[dict],
    n: int,
    seed,
    label: str = "1.1",
    total: float = 1.0,
) -> SampledMass:
    """Draw n points from a Gaussian mixture, each carrying weight total/n.

    `mixture` is a list of components {"mean": [...], "cov": "I"|scalar|
    matrix, "weight": positive}.  The same seed reproduces the identical
    point list.  Every component is checked before any point is drawn.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1 samples, got {n}")
    if not mixture:
        raise ConfigurationError("mixture must have at least one component")
    means = [np.asarray(c["mean"], dtype=float) for c in mixture]
    d = means[0].size
    if any(m.size != d for m in means):
        raise ConfigurationError("all component means must share a dimension")
    if n * d > MAX_SAMPLE_VALUES:
        raise RangeError(
            f"a mass of N={n} points in R^{d} holds {n * d} coordinates, "
            f"past the cap {MAX_SAMPLE_VALUES}"
        )
    if not all(np.isfinite(m).all() for m in means):
        raise RangeError("component means must be finite")
    comp_w = np.array([float(c.get("weight", 1.0)) for c in mixture])
    with np.errstate(over="ignore"):
        w_total = comp_w.sum()
    if not ((comp_w > 0).all() and np.isfinite(w_total)):
        raise ConfigurationError(f"component weights must be positive, with a finite sum: {comp_w}")
    chols = []
    for c in mixture:
        cov = _component_cov(c.get("cov"), d)
        try:
            chols.append(np.linalg.cholesky(cov))
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("covariance is not positive definite") from exc

    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mixture), size=n, p=comp_w / w_total)
    if len(mixture) == 1:
        del idx  # drawn only to keep the stream in step
    else:  # each point's component, in the smallest integer type that holds it
        idx = idx.astype(np.min_scalar_type(len(mixture) - 1))
    z = rng.standard_normal((n, d))
    # drawn straight into the coordinate-major array the mass keeps, one
    # component at a time, so no per-point stack of factors is built
    coords = np.empty((d, n))
    if len(mixture) == 1:
        np.einsum("ij,nj->in", chols[0], z, out=coords)
        coords += means[0][:, None]
    else:
        # a mixture is scattered one block of points at a time, so each
        # component's gathered deviates last a block, not the whole draw
        for lo in range(0, n, SAMPLE_BLOCK):
            zb, ib = z[lo : lo + SAMPLE_BLOCK], idx[lo : lo + SAMPLE_BLOCK]
            out = coords[:, lo : lo + SAMPLE_BLOCK]
            for c, (mean, chol) in enumerate(zip(means, chols)):
                mask = ib == c
                block = np.einsum("ij,nj->in", chol, zb[mask])
                block += mean[:, None]
                out[:, mask] = block
    del z
    return SampledMass._adopt(coords, np.float64(total / n), label)


# ----------------------------------------------------------------------
# region masses
# ----------------------------------------------------------------------
def _checked_component(component: Any, what: str) -> dict:
    """A mixture component of a mass spec, unchanged once its fields have
    their JSON types: "mean" numbers, optional "cov" ("I", a number or
    rows of numbers) and optional "weight" a number."""
    component = jsontypes.obj(component, what, ("mean", "cov", "weight"))
    jsontypes.field(component, "mean", jsontypes.numbers, what)
    cov = component.get("cov")
    if isinstance(cov, list):
        for r, row in enumerate(cov):
            jsontypes.numbers(row, f"{what}.cov[{r}]")
    elif isinstance(cov, str):
        if cov.upper() != "I":
            raise ConfigurationError(f"{what}.cov must be \"I\", a number or a matrix, got {cov!r}")
    elif cov is not None:
        jsontypes.number(cov, f"{what}.cov")
    jsontypes.field(component, "weight", jsontypes.number, what, None)
    return component


def _checked_point(entry: Any, what: str) -> dict:
    entry = jsontypes.obj(entry, what, ("hyperplane", "coords"))
    jsontypes.field(entry, "hyperplane", jsontypes.integer, what)
    jsontypes.field(entry, "coords", jsontypes.numbers, what)
    return entry


def load_mass_spec(
    spec: Any, master_seed: int
) -> tuple[int, list[SampledMass], list[dict]]:
    """Instantiate a mass-description document.

    Expects {"d": ..., "masses": [{"label": "i.j", "mixture": [...],
    "N": ...}, ...], "points": [{"hyperplane": i, "coords": [...]}, ...]}.
    Each mass gets its own RNG stream derived from the master seed, so the
    document plus one seed pins the whole sample set.  A field of the wrong
    JSON type, or an unknown one, raises ConfigurationError.
    """
    doc = jsontypes.obj(spec, "mass spec", ("d", "masses", "points"))
    d = jsontypes.field(doc, "d", jsontypes.integer)
    masses = []
    for idx, entry in enumerate(jsontypes.field(doc, "masses", jsontypes.items)):
        what = f"masses[{idx}]"
        entry = jsontypes.obj(entry, what, ("label", "mixture", "N", "total"))
        components = jsontypes.field(entry, "mixture", jsontypes.items, what)
        seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(1, idx))
        mass = sample_gaussian_mixture(
            [_checked_component(c, f"{what}.mixture[{j}]") for j, c in enumerate(components)],
            jsontypes.field(entry, "N", jsontypes.integer, what),
            seed,
            label=jsontypes.field(entry, "label", jsontypes.text, what, f"1.{idx + 1}"),
            total=jsontypes.field(entry, "total", jsontypes.number, what, 1.0),
        )
        if mass.dim != d:
            raise ConfigurationError(
                f"mass {mass.label!r} lives in R^{mass.dim}, spec says d={d}"
            )
        masses.append(mass)
    points = jsontypes.field(doc, "points", jsontypes.items, default=[])
    points = [_checked_point(p, f"points[{idx}]") for idx, p in enumerate(points)]
    return d, masses, points


def _orthant_table(F, weights: np.ndarray) -> np.ndarray:
    """The binary product tree over the side-0 fraction rows F: one row of
    per-point weight per orthant of those planes, row index bit j the side
    of the j-th row (rows with bit j clear first).  Each level [t] becomes
    [t * f; t - t * f] in place, in the bottom rows of one buffer."""
    if not len(F):
        return weights[None, :]
    table = np.empty((2 ** len(F), weights.size))
    t = weights[None, :]
    for f in F:
        lo = len(table) - 2 * len(t)
        p = np.multiply(t, f, out=table[lo : lo + len(t)])
        np.subtract(t, p, out=table[lo + len(t) :])  # over t itself past level 0
        t = table[lo:]
    return table


def region_masses(
    mass: SampledMass,
    hyperplanes: Sequence[HyperplaneParam],
    stage: int,
    tau: float | None = None,
    cotangent: Callable | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Mass of each orthant cut out by hyperplanes stage..k.

    Returns 2^(k-stage+1) values summing to the mass total.  Orthant index:
    bit j is the side of hyperplane stage+j, so index 0 is the all-side-0
    region and flipping one hyperplane's orientation flips one bit.  A
    point of weight w puts w times the product of its side fractions (f_j
    on side 0 of plane j, 1 - f_j on side 1) in each orthant.  With
    tau > 0 the masses are smoothed: f = expit(s / tau), evaluated as
    0.5 + 0.5 tanh(s / (2 tau)), which stays finite for any tau > 0.  With
    tau=None they are hard, the tau -> 0 limit: f is 1 when s > TIE_EPS,
    0 when s < -TIE_EPS and 1/2 otherwise, so a point on a plane splits its
    weight evenly between its sides.

    With a `cotangent` (smoothed only), a function from the masses R to
    dL/dR, returns (R, dL/dV) for the (k-stage+1, d+1) plane vectors V of
    hyperplanes stage..k; R is bit for bit the same as without it.

    The product tree over all planes but the last is finished by summing
    each row of its table times the last plane's fractions in an einsum
    loop, not a matrix-vector product (see the module docstring).

    With a cotangent c = dL/dR: raising F_j at a point of weight w moves w
    times the other planes' orthant products from orthant o | 1<<j to o,
    so dL/dF_j = w h_j, h_j the differences c[o] - c[o | 1<<j] contracted
    with the other planes' fractions one plane at a time.  F_j has slope
    F_j (1 - F_j) / tau, so dL/dV = (U x, -sum U) / tau, U_j = w F_j (1 - F_j) h_j.
    """
    k = len(hyperplanes)
    if not 1 <= stage <= k:
        raise RangeError(f"stage {stage} out of range 1..{k}")
    for h in hyperplanes:
        if h.dim != mass.dim:
            raise ShapeError(f"hyperplane in R^{h.dim} against mass in R^{mass.dim}")
    if tau is None:
        if cotangent is not None:
            raise ConfigurationError("hard region masses are piecewise constant: no gradient")
    elif not tau > 0:
        raise ConfigurationError(f"smoothed region masses need tau > 0, got {tau}")
    V = np.stack([h.vector for h in hyperplanes[stage - 1 :]])
    F = V[:, :-1] @ mass.coords
    F -= V[:, -1:]
    # the signed distances become the side-0 fractions in place, by way of
    # tanh(s / 2tau) or, for hard masses, its limit: the sign of s, 0 within
    # TIE_EPS of a plane
    if tau is None:
        side1 = F < -TIE_EPS
        np.greater(F, TIE_EPS, out=F)
        F -= side1
    else:
        with np.errstate(over="ignore"):  # |s / 2tau| = inf saturates tanh, as it should
            np.divide(F, 2 * tau, out=F)
        np.tanh(F, out=F)
    F *= 0.5
    F += 0.5
    n = F.shape[0]
    table = _orthant_table(F[:-1], mass.weights)
    side0 = np.einsum("ij,j->i", table, F[-1])
    # with one plane the table is the weights, whose sum is the total, bit for bit
    regions = np.concatenate([side0, (table.sum(axis=1) if n > 1 else mass.total) - side0])
    if cotangent is None:
        return regions
    # axis a of this view of c is bit n-1-a of the orthant index
    c = np.asarray(cotangent(regions), dtype=float).reshape((2,) * n)
    # (1 - F) F, not 0.25 - (F - 0.5)^2: exact as F -> 0; a fresh table
    # (n > 1) has 2^(n-1) >= n rows and is read no more, so U takes them
    U = np.subtract(1.0, F, out=table[:n] if n > 1 else None)
    U *= F
    U *= mass.weights
    for j in range(n):
        # rows: the orthants of the other planes, the highest plane the top bit
        h = (c.take(0, n - 1 - j) - c.take(1, n - 1 - j)).reshape(-1, 1)
        for l in [l for l in range(n - 1, -1, -1) if l != j]:
            half = len(h) // 2
            h = h[half:] + (h[:half] - h[half:]) * F[l]
        U[j] *= h[0]
    grad = np.column_stack([np.einsum("jn,kn->jk", U, mass.coords), -U.sum(axis=1)])
    return regions, grad / tau
