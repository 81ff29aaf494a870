"""Sampling algorithms, the adversarial bump family, and error measurement.

A sampling algorithm is m points in [0,1]^d plus a linear stencil, the
reconstruction map that sees a function only through its values there.  The
adversarial family places signed, disjointly supported, unit-ball-certified
bumps on a regular grid of 2*ceil(m**(1/d)) centers per axis; any algorithm
with m samples must leave at least m bumps entirely unseen, which forces its
average error above an explicit power law in m.  This module measures that average
error, audits Monte Carlo budgets, and packages sweeps into reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .network import GrowthPolicy
from .hats import BumpSpec, UnitBallCertificate, scaled_unit_ball_bump, vartheta
from .rates import _growth_scan


@dataclass(frozen=True)
class SamplingAlgorithm:
    """Sample points plus a linear reconstruction map.

    ``linear_stencil`` maps a (k, d) batch of query points to (indices,
    weights), and reconstruct(values)(X) = sum_s weights[:, s] *
    values[indices[:, s]]."""

    points: np.ndarray
    linear_stencil: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    label: str

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise ValueError("points must be an (m, d) array")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def reconstruct(self, values) -> Callable[[np.ndarray], np.ndarray]:
        """The reconstruction of ``values`` at the points, a callable on
        (k, d) batches."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.m,):
            raise ValueError(f"expected {self.m} sample values")

        def evaluate(x):
            idx, w = self.linear_stencil(np.atleast_2d(np.asarray(x, dtype=np.float64)))
            return (w * values[idx]).sum(axis=1)

        return evaluate


@dataclass(frozen=True)
class MonteCarloAlgorithm:
    """Random sampling algorithm: a generator of draws plus a sample budget.

    ``generator(rng)`` returns one realized SamplingAlgorithm; the expected
    number of sample points over draws must stay within ``budget``."""

    generator: Callable[[np.random.Generator], SamplingAlgorithm]
    budget: int
    label: str = "mc"


def _int_root_floor(m: int, d: int) -> int:
    """floor(m**(1/d)) computed exactly on integers."""
    k = max(1, int(round(m ** (1.0 / d))))
    while k**d > m:
        k -= 1
    while (k + 1) ** d <= m:
        k += 1
    return k


def _int_root_ceil(m: int, d: int) -> int:
    """ceil(m**(1/d)) computed exactly on integers."""
    k = _int_root_floor(m, d)
    return k if k**d == m else k + 1


def grid_algorithm(m: int, d: int, reconstruction: str = "nearest") -> SamplingAlgorithm:
    """Uniform grid {0, 1/N, ..., (N-1)/N}^d with N = floor(m**(1/d)).

    Reconstruction is nearest-grid-point piecewise-constant (ties broken
    toward the lexicographically smaller index) or multilinear interpolation
    clamped at the upper boundary."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if reconstruction not in ("nearest", "multilinear"):
        raise ValueError(f"unknown reconstruction {reconstruction!r}")
    n_side = _int_root_floor(m, d)
    axes = [np.arange(n_side) / n_side] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([g.ravel() for g in mesh])

    if reconstruction == "nearest":

        def stencil(x):
            # nearest index with half-way points resolved downward
            q = np.ceil(x * n_side - 0.5)
            i = np.clip(q, 0, n_side - 1).astype(np.int64)
            flat = np.ravel_multi_index(i.T, (n_side,) * d)
            return flat[:, None], np.ones((len(x), 1))

    else:

        def stencil(x):
            t = x * n_side
            base = np.clip(np.floor(t), 0, max(n_side - 2, 0)).astype(np.int64)
            frac = np.clip(t - base, 0.0, 1.0)
            k = len(x)
            corners = np.arange(2**d)
            bits = (corners[None, :, None] >> np.arange(d)[None, None, :]) & 1
            if n_side == 1:
                return np.zeros((k, 1), np.int64), np.ones((k, 1))
            idx_nd = base[:, None, :] + bits
            flat = np.ravel_multi_index(
                np.moveaxis(idx_nd, -1, 0), (n_side,) * d
            )
            w = np.where(bits == 1, frac[:, None, :], 1.0 - frac[:, None, :]).prod(
                axis=2
            )
            return flat, w

    return SamplingAlgorithm(points, stencil, f"grid-{reconstruction}")


# values per array of a step: the brute-force nearest-sample search's
# distances, or the test points of a chunk of seen cells (whole cells, so at
# least one), small so that a chunk's few arrays add little to peak memory
_CHUNK_ENTRIES = 1 << 14


class _NearestSample:
    """Nearest-sample stencil: the sample at the least squared Euclidean
    distance, added up axis by axis from axis 0, the lowest index winning a
    tie.  A brute-force search, at most ``_CHUNK_ENTRIES`` distances at a
    time; it is the oracle for the cell-block search that
    ``_average_error_stencil`` runs in its place."""

    def __init__(self, points: np.ndarray):
        self.points = points

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        nearest = np.empty(len(x), np.int64)
        step = max(1, _CHUNK_ENTRIES // len(self.points))
        for start in range(0, len(x), step):
            q = x[start : start + step]
            dist = np.zeros((len(q), len(self.points)))
            for a in range(q.shape[1]):
                diff = q[:, a, None] - self.points[:, a]
                dist += diff * diff
            nearest[start : start + step] = dist.argmin(axis=1)
        return nearest[:, None], np.ones((len(x), 1))


def uniform_random_algorithm(m: int, d: int, seed: int = 0, rng=None) -> SamplingAlgorithm:
    """m uniform random points with nearest-sample-point reconstruction
    (ties go to the lowest sample index)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(m, d))
    stencil = _NearestSample(points)

    return SamplingAlgorithm(points, stencil, "uniform-random-nearest")


def zero_algorithm(m: int, d: int) -> SamplingAlgorithm:
    """Data-ignoring algorithm: grid sample points, reconstruction == 0."""
    grid = grid_algorithm(m, d, "nearest")

    def stencil(x):
        x = np.atleast_2d(x)
        return np.zeros((len(x), 1), np.int64), np.zeros((len(x), 1))

    return SamplingAlgorithm(grid.points, stencil, "zero")


def uniform_mc(m: int, d: int) -> MonteCarloAlgorithm:
    """Monte Carlo method drawing m uniform points per realization."""

    def generator(rng):
        return uniform_random_algorithm(m, d, rng=rng)

    return MonteCarloAlgorithm(generator=generator, budget=m, label="uniform-mc")


# ---------------------------------------------------------------------------
# adversarial family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarialFamily:
    """Signed bumps {nu * amplitude * vartheta_{M, y_i}} on a disjoint grid.

    Centers y_i = (2 i - 1)/M for i in {1, ..., 2 ceil(m**(1/d))}^d with
    M = 4 ceil(m**(1/d)); supports tile (0,1)^d disjointly.  ``amplitude``
    is the effective member height; ``amplitude_theoretical`` is the value
    certified by the unit-ball scaling (they differ only when an explicit
    kappa1 override is supplied for readability of plots)."""

    m: int
    d: int
    alpha: float
    gamma: float
    M: int
    per_axis: int
    centers: np.ndarray
    amplitude: float
    amplitude_theoretical: float
    kappa1: float
    kappa1_theoretical: float
    certificate: UnitBallCertificate
    # grid_resolution -> read-only (offsets, profile at them); see _support
    _supports: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_centers(self) -> int:
        return self.per_axis**self.d

    @property
    def num_members(self) -> int:
        return 2 * self.num_centers

    def member(self, i: int, nu: int) -> Callable[[np.ndarray], np.ndarray]:
        if nu not in (-1, 1):
            raise ValueError("nu must be +1 or -1")
        spec = BumpSpec(d=self.d, M=float(self.M), y=tuple(self.centers[i]), p=2)
        amp = self.amplitude * nu
        return lambda x: amp * vartheta(spec, x)

    def profile(self, offsets: np.ndarray) -> np.ndarray:
        """vartheta evaluated at offsets from any center (translation invariant)."""
        spec = BumpSpec(d=self.d, M=float(self.M), y=(0.0,) * self.d, p=2)
        return vartheta(spec, np.atleast_2d(offsets))


# test offsets per support cube, and centers per family, at most
_MAX_OFFSETS = 1 << 20


def build_adversarial_family(
    m: int,
    d: int,
    alpha: float,
    gamma: float,
    policy: GrowthPolicy,
    kappa1_override: float | None = None,
) -> AdversarialFamily:
    """Construct the hardness family for sample budget m.

    Its (2*ceil(m**(1/d)))**d centers are limited to _MAX_OFFSETS (2**20); a
    larger family raises ValueError before anything is allocated."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    # two centers per axis at least: a d of 21 or more is rejected before
    # the integer root raises anything to the power d
    too_many = d >= _MAX_OFFSETS.bit_length()
    per_axis = 2 if too_many else 2 * _int_root_ceil(m, d)
    if too_many or per_axis**d > _MAX_OFFSETS:
        raise ValueError(
            f"m={m} in d={d} gives at least {per_axis}**{d} family centers, more "
            f"than the limit of {_MAX_OFFSETS}"
        )
    M = 2 * per_axis
    axis_centers = (2.0 * np.arange(1, per_axis + 1) - 1.0) / M
    mesh = np.meshgrid(*([axis_centers] * d), indexing="ij")
    centers = np.column_stack([g.ravel() for g in mesh])
    # the unit-ball scaling is translation invariant; certify one member
    bump, cert = scaled_unit_ball_bump(alpha, gamma, float(M), centers[0], policy)
    kappa1 = cert.kappa
    scale = float(M) ** (-64.0 * alpha / (8.0 * alpha + gamma))
    kappa1_eff = kappa1 if kappa1_override is None else float(kappa1_override)
    return AdversarialFamily(
        m=m,
        d=d,
        alpha=alpha,
        gamma=gamma,
        M=M,
        per_axis=per_axis,
        centers=centers,
        amplitude=kappa1_eff * scale,
        amplitude_theoretical=kappa1 * scale,
        kappa1=kappa1_eff,
        kappa1_theoretical=kappa1,
        certificate=cert,
    )


def _locate_samples(family: AdversarialFamily, x: np.ndarray):
    """Containing-center flat index (-1 if none) and bump value per sample.

    Supports are disjoint open cubes, so each sample lies in at most one."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    M, k = family.M, family.per_axis
    cell = np.floor(x * M / 2.0).astype(np.int64)
    in_range = np.all((cell >= 0) & (cell < k), axis=1)
    cell_clipped = np.clip(cell, 0, k - 1)
    y = (2.0 * cell_clipped + 1.0) / M
    inside = in_range & np.all(np.abs(x - y) < 1.0 / M, axis=1)
    ci = np.where(
        inside, np.ravel_multi_index(cell_clipped.T, (k,) * family.d), -1
    )
    tv = np.where(inside, family.profile(x - y), 0.0)
    return ci, tv


def count_unseen(family: AdversarialFamily, algorithm: SamplingAlgorithm) -> int:
    """|Gamma_X|: centers whose bump vanishes at every sample point."""
    if algorithm.d != family.d:
        raise ValueError("algorithm and family dimensions differ")
    ci, _ = _locate_samples(family, algorithm.points)
    seen = np.bincount(ci[ci >= 0], minlength=family.num_centers)
    return family.num_centers - int(np.count_nonzero(seen))


def _support_offsets(family: AdversarialFamily, grid_resolution: int) -> np.ndarray:
    """Test offsets inside one support cube; row 0 is the center itself.

    The grid_resolution**d interior offsets are limited to _MAX_OFFSETS
    (2**20); a larger grid raises ValueError before anything is allocated."""
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    count = int(grid_resolution) ** family.d
    if count > _MAX_OFFSETS:
        raise ValueError(
            f"grid_resolution {grid_resolution} in d={family.d} gives {count} test "
            f"offsets per cell, more than the limit of {_MAX_OFFSETS}"
        )
    h = 1.0 / family.M
    axis = np.linspace(-h, h, grid_resolution + 2)[1:-1]
    mesh = np.meshgrid(*([axis] * family.d), indexing="ij")
    interior = np.column_stack([g.ravel() for g in mesh])
    return np.vstack([np.zeros((1, family.d)), interior])


def _support(family: AdversarialFamily, grid_resolution: int):
    """``_support_offsets`` and the profile at them, computed once per family
    and grid_resolution and kept on the family as read-only arrays."""
    found = family._supports.get(grid_resolution)
    if found is None:
        offsets = _support_offsets(family, grid_resolution)
        found = (offsets, family.profile(offsets))
        for array in found:
            array.flags.writeable = False
        family._supports[grid_resolution] = found
    return found


@dataclass(frozen=True)
class AverageErrorResult:
    """Average of per-member sup-norm error estimates.

    ``average`` uses refined in-support grids; ``center_only`` uses only the
    bump centers and therefore never overestimates the true average.
    ``unseen`` is ``count_unseen`` of the family and the algorithm."""

    average: float
    center_only: float
    per_member_max: float
    unseen: int


def average_error(
    family: AdversarialFamily,
    algorithm: SamplingAlgorithm,
    grid_resolution: int = 9,
    method: str = "stencil",
) -> AverageErrorResult:
    """Mean over members (i, nu) of the estimated sup-norm of f - Q(f).

    The sup is estimated on a refined grid inside each member's support cube
    plus its center; restricting to the support underestimates the true sup
    and keeps the hardness comparison one-sided.  ``method`` is "stencil" or
    "generic": the generic path reconstructs member by member and is the
    reference for the stencil path.  On the stencil path a cell that holds
    no sample reconstructs to exactly 0, so its error is
    ``amplitude * |theta(offset)|`` in closed form, and only the seen cells
    are evaluated, in chunks of whole cells of at most ``_CHUNK_ENTRIES``
    test points.  A nearest-sample stencil is not called there: a cell's
    candidates pass a bisector test against its own sample, and their
    distances are per-axis terms added in the stencil's order, so every
    index and error bit is the stencil's (``_nearest_in_seen_cells``).  The
    stencil and generic paths agree to rounding, not bit for bit: one takes
    ``amplitude * |theta - v|``, the other ``|amplitude*theta - amplitude*v|``.
    The unseen count comes with the error; the test grid and the profile on
    it are built once per family (``_support``)."""
    if algorithm.d != family.d:
        raise ValueError("algorithm and family dimensions differ")
    if method not in ("stencil", "generic"):
        raise ValueError(f"method must be 'stencil' or 'generic', not {method!r}")
    offsets, theta_off = _support(family, grid_resolution)
    if method == "stencil":
        row_max, center, unseen = _average_error_stencil(family, algorithm, offsets, theta_off)
    else:
        row_max, center = _average_error_generic(family, algorithm, offsets, theta_off)
        unseen = count_unseen(family, algorithm)
    return AverageErrorResult(
        average=float(row_max.mean()),
        center_only=float(center.mean()),
        per_member_max=float(row_max.max()),
        unseen=unseen,
    )


def _average_error_stencil(family, algorithm, offsets, theta_off):
    """Vectorized path for linear, value-scaling-equivariant reconstructions:
    per center the error maximum over the test offsets and the error at the
    center, and the number of cells without a sample.  The nu = +-1 errors
    coincide, as the reconstruction scales with the data.  Samples outside a
    member's cell are masked out, so a cell without one reconstructs to 0.
    Chunks of whole seen cells (memory O(K + chunk)) come from the stencil,
    or from ``_nearest_in_seen_cells`` for a nearest-sample stencil."""
    ci, tv = _locate_samples(family, algorithm.points)
    K, G = family.num_centers, len(offsets)
    unseen_err = family.amplitude * np.abs(theta_off)
    row_max = np.full(K, unseen_err.max())
    center = np.full(K, unseen_err[0])
    seen = np.flatnonzero(np.bincount(ci[ci >= 0], minlength=K))
    stencil = algorithm.linear_stencil
    if isinstance(stencil, _NearestSample):
        chunks = _nearest_in_seen_cells(family, stencil, ci, seen, offsets)
    else:
        chunks = _stencil_in_seen_cells(family, stencil, seen, offsets)
    for cells, idx, w in chunks:
        idx = idx.reshape(len(cells), G, -1)
        mask = ci[idx] == cells[:, None, None]
        recon = (w.reshape(idx.shape) * tv[idx] * mask).sum(axis=2)
        err = family.amplitude * np.abs(theta_off - recon)
        row_max[cells] = err.max(axis=1)
        center[cells] = err[:, 0]
    return row_max, center, K - len(seen)


def _test_points(family, cells, offsets):
    """(cells, G, d) test points: each cell's center plus every offset."""
    return family.centers[cells, None, :] + offsets[None, :, :]


def _stencil_in_seen_cells(family, stencil, seen, offsets):
    """(cells, indices, weights) of the stencil at the test points of the
    seen cells, cell-major, in calls of at most max(_CHUNK_ENTRIES, G) points."""
    step = max(1, _CHUNK_ENTRIES // len(offsets))
    for start in range(0, len(seen), step):
        cells = seen[start : start + step]
        test = _test_points(family, cells, offsets).reshape(-1, family.d)
        yield (cells, *stencil(test))


def _nearest_in_seen_cells(family, stencil, ci, seen, offsets):
    """What ``_stencil_in_seen_cells`` yields for a nearest-sample stencil,
    index for index, from a few candidate samples per cell.

    The bisector test (``_candidates``).  For s a sample in the cell and c
    another, ``|x-c|**2 - |x-s|**2`` is affine in x, so over the box of the
    test points (the offsets' half-widths around the center, rounded like
    them) it is least at a corner: per axis, at the face where its term is
    less.  c is a candidate when that least value is at most 1e-9 d h**2
    (h = 1/M).  One that fails loses to s at every test point, in floating
    point too: near a tie both distances are below 4 d h**2, and their
    rounding is far below the slack.  A cell left with s takes it everywhere.

    Separable distances.  Row 0 of ``offsets`` is the center, the rest the
    product lattice of R values per axis in C order, so axis a of a test
    point (``centers[cell, a] + offset``) takes R values.  Each candidate's
    squared terms are taken per axis, (candidates, R), and added from axis
    0 by broadcasting into the whole lattice of its cell: every sum is
    ((t0 + t1) + t2) ..., the brute-force order (from 0, and 0 + t0 == t0),
    so the distances are its bits.  The j-th candidates of a chunk's cells,
    widest first, are compared at once; one replaces the best only when
    strictly closer, so the lowest index wins a tie, as in argmin."""
    d, G, points = family.d, len(offsets), stencil.points
    R = _int_root_floor(G - 1, d)
    values = np.append(offsets[1 : R + 1, d - 1], 0.0)  # every axis's, then the center's
    coords = np.ascontiguousarray(points.T)
    for cells, row, ids in _candidates(family, coords, ci, seen, offsets):
        per = np.bincount(row, minlength=len(cells))
        # one row of candidates per cell, its first per[i] entries used
        cand = np.zeros((len(per), per.max()), np.int64)
        cand[row, np.arange(len(ids)) - (np.cumsum(per) - per)[row]] = ids
        # the cells with the most candidates first, so that those with a
        # j-th one are a prefix; cells with one come last and take it
        order = np.argsort(-per, kind="stable")
        cells, per, cand = cells[order], per[order], cand[order]
        top = cand[: np.count_nonzero(per > 1)]
        idx = np.empty((len(per), G), np.int64)
        idx[len(top) :] = cand[len(top) :, :1]
        if len(top):
            found = idx[: len(top)]
            # the candidates rank by rank: the j-th of each row that has one
            ranked = np.arange(per[0])[:, None] < per[: len(top)]
            live = np.count_nonzero(ranked, axis=1)
            ids = top.T[ranked]
            # terms[a, i, v]: axis a's squared term of candidate i at value v
            terms = family.centers[cells[ranked.nonzero()[1]]].T[:, :, None] + values
            terms -= coords[:, ids, None]
            terms *= terms
            table = np.full(ranked.shape, np.inf)
            table[ranked] = sum(terms[:, :, R])
            found[:, 0] = np.take_along_axis(top, table.argmin(axis=0)[:, None], 1)[:, 0]
            for b, head in zip(np.cumsum(live) - live, live):
                t, c = terms[:, b : b + head, :R], ids[b : b + head, None]
                # at d = 1 the first rank's distances, and so best, are a
                # view of its rows of terms; later ranks read only theirs
                dist = t[0]
                for a in range(1, d):
                    dist = (dist[:, :, None] + t[a, :, None]).reshape(head, -1)
                if b == 0:
                    best, found[:, 1:] = dist, c
                    continue
                closer = dist < best[:head]
                np.minimum(best[:head], dist, out=best[:head])
                np.copyto(found[:head, 1:], c, where=closer)
        yield cells, idx.reshape(-1, 1), np.broadcast_to(1.0, (idx.size, 1))


def _candidates(family, coords, ci, seen, offsets):
    """The seen cells in chunks of at most max(G, _CHUNK_ENTRIES) test
    points, with the samples (coords, axis by axis) that pass the bisector
    test of ``_nearest_in_seen_cells``: each one's row in the chunk and
    index, by row and index.  A candidate lies within sqrt(d) cells of the
    box, so they are screened from all samples or, when fewer cells than
    samples lie in the (2*ceil(sqrt(d)) + 1)**d cells around the cell, from
    those bucketed there, on the grid of cells padded by ceil(sqrt(d)) on
    each side, where a cell's block is its flat index plus fixed offsets."""
    (d, m), k = coords.shape, family.per_axis
    r = math.isqrt(d - 1) + 1  # ceil(sqrt(d))
    gather = (2 * r + 1) ** d < m
    if gather:
        stride = (k + 2 * r) ** np.arange(d - 1, -1, -1)
        bucket = stride @ (np.clip(np.floor(coords * k), 0, k - 1).astype(np.int64) + r)
        count = np.bincount(bucket, minlength=(k + 2 * r) ** d)
        first = np.cumsum(count) - count
        by_bucket = np.argsort(bucket, kind="stable")
        block = stride @ (np.indices((2 * r + 1,) * d).reshape(d, -1) - r)
        home = stride @ (np.stack(np.unravel_index(seen, (k,) * d)) + r)
    # the first sample s in each seen cell (after -1, the sorted cells)
    own = np.unique(ci, return_index=True)[1][-len(seen) :]
    # per axis and seen cell: the faces of the box, then s's squared terms there
    half = np.abs(offsets).max(axis=0)[:, None]
    faces = family.centers[seen].T + np.stack([-half, half])
    faces = np.concatenate([faces, (faces - coords[:, own]) ** 2])
    step = max(1, _CHUNK_ENTRIES // max(len(offsets), min((2 * r + 1) ** d, m)))
    for start in range(0, len(seen), step):
        cells = seen[start : start + step]
        n = len(cells)
        if gather:
            near = (home[start : start + step, None] + block).ravel()
            runs = count[near]
            # the ids in each block bucket, bucket after bucket, cell after cell
            ends = np.cumsum(runs)
            ids = by_bucket[np.repeat(first[near] - (ends - runs), runs) + np.arange(ends[-1])]
            runs = runs.reshape(n, -1).sum(axis=1)
        else:
            ids, runs = np.tile(np.arange(m), n), np.full(n, m)
        gap = np.repeat(faces[:, :, start : start + step], runs, axis=2)
        gap[:2] -= coords[:, ids]
        gap[:2] *= gap[:2]
        gap[:2] -= gap[2:]
        keep = np.minimum(gap[0], gap[1]).sum(axis=0) <= 1e-9 * d / family.M**2
        row, ids = np.repeat(np.arange(n), runs)[keep], ids[keep]
        yield cells, row, np.sort(row * m + ids) - row * m


def _average_error_generic(family, algorithm, offsets, theta_off):
    """Per-member path through ``algorithm.reconstruct``, the reference for
    the stencil path: its per-center maxima and center errors, to rounding."""
    K = family.num_centers
    row_max, center = np.empty(K), np.empty(K)
    amp = family.amplitude
    for i in range(K):
        test = family.centers[i] + offsets
        f_test = amp * theta_off
        values = family.member(i, 1)(algorithm.points)
        e_plus = np.abs(f_test - algorithm.reconstruct(values)(test))
        e_minus = np.abs(-f_test - algorithm.reconstruct(-values)(test))
        errs = 0.5 * (e_plus + e_minus)
        row_max[i], center[i] = errs.max(), errs[0]
    return row_max, center


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def hardness_bound(m: int, d: int, alpha: float, gamma: float, kappa1: float) -> float:
    """kappa * m**(-64 alpha / (d (8 alpha + gamma))), kappa = kappa1 / 2**(2d+24)."""
    kappa = kappa1 / 2.0 ** (2 * d + 24)
    return kappa * float(m) ** (-64.0 * alpha / (d * (8.0 * alpha + gamma)))


def reconstruction_error_bound(
    m: int, d: int, policy: GrowthPolicy, alpha: float, gamma: float
) -> float:
    """Proof-side uniform bound C2 * m**(-alpha / (d (gamma + alpha))).

    C2 = 6 + 2**(gamma+2) * C1 with C1 = d * 2**(2**L + L - 3) *
    d**((2**(L-1) - 1)/2) * C0, where C0 bounds the growth expression by
    n**gamma.  Assembled in log2 space; raises ValueError when C2 exceeds
    the float range, which deep policies reach."""
    L = policy.ell_star
    if L == math.inf:
        raise ValueError("policy must have a bounded depth allowance")
    L = int(L)
    log2_n, growth_c, growth_n = _growth_scan(policy, L)
    log2_c0 = float(np.max(growth_c + growth_n - gamma * log2_n))
    log2_c1 = (
        math.log2(d)
        + (2.0**L + L - 3.0)
        + (2.0 ** (L - 1) - 1.0) / 2.0 * math.log2(d)
        + log2_c0
    )
    log2_term = (gamma + 2.0) + log2_c1
    if log2_term >= 1024:
        raise ValueError(
            f"reconstruction error constant 2**{log2_term:.6g} exceeds the float range"
        )
    c2 = 6.0 + float(np.exp2(log2_term))
    return c2 * float(m) ** (-alpha / (d * (gamma + alpha)))


# ---------------------------------------------------------------------------
# sweeps and reports
# ---------------------------------------------------------------------------

_CSV_HEADER = "m,measured_avg_error,lower_bound,unseen_count,amplitude,pass"


@dataclass(frozen=True)
class ExperimentReport:
    """Sweep results: one row per m, plus the fitted decay exponent."""

    label: str
    params: dict
    seed: int
    rows: tuple[dict, ...]
    fitted_exponent: float
    passed: bool

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.rows:
            unseen = "" if r.get("unseen_count") is None else str(r["unseen_count"])
            lines.append(
                f"{r['m']},{r['measured_avg_error']!r},{r['lower_bound']!r},"
                f"{unseen},{r['amplitude']!r},{str(bool(r['pass'])).lower()}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # a single usable m fits no exponent: NaN, written as null
        slope = self.fitted_exponent
        doc = {
            "label": self.label,
            "params": self.params,
            "seed": self.seed,
            "rows": list(self.rows),
            "fitted_exponent": None if math.isnan(slope) else slope,
            "pass": self.passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _fit_exponent(m_values, errors) -> float:
    m_arr = np.asarray(m_values, dtype=np.float64)
    e_arr = np.asarray(errors, dtype=np.float64)
    ok = e_arr > 0
    if ok.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(np.log(m_arr[ok]), np.log(e_arr[ok]), 1)
    return float(slope)


def _sweep(m_list, row, params, seed, upper=False) -> ExperimentReport:
    """The loop shared by the sweep runners.

    ``row(m)`` measures one budget of the non-empty, strictly ascending
    m_list and returns (name, row); the first name labels the report.  A
    hardness sweep passes when every row passes and keeps its sample budget;
    an upper-bound sweep passes when the decay exponent fitted to the
    measured errors is below the slope target."""
    m_list = list(m_list)
    if not m_list or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be non-empty and strictly ascending")
    names, rows = zip(*(row(m) for m in m_list))
    slope = _fit_exponent(m_list, [r["measured_avg_error"] for r in rows])
    d, alpha, gamma = params["d"], params["alpha"], params["gamma"]
    if upper:
        target = -alpha / (d * (gamma + alpha)) + 0.1
        params = {**params, "slope_target": target}
        ok = not math.isnan(slope) and slope <= target
    else:
        decay = -64.0 * alpha / (d * (8.0 * alpha + gamma))
        params = {**params, "decay_exponent_theoretical": decay}
        ok = all(r["pass"] and r.get("budget_ok", True) for r in rows)
    return ExperimentReport(
        label=names[0],
        params=params,
        seed=seed,
        rows=rows,
        fitted_exponent=slope,
        passed=bool(ok),
    )


def _bound_check(family: AdversarialFamily, measured: float, unseen: int):
    """The hardness bound at the family's m, the measured error at the
    certified amplitude, and whether the measurement respects the bound."""
    m = family.m
    bound = hardness_bound(
        m, family.d, family.alpha, family.gamma, family.kappa1_theoretical
    )
    # the error scales linearly in the amplitude; undo any override before
    # comparing to the theoretical bound
    measured_theoretical = measured * (family.amplitude_theoretical / family.amplitude)
    ok = measured_theoretical >= bound * (1 - 1e-9) and unseen >= m
    return bound, measured_theoretical, bool(ok)


def run_hardness_sweep(
    algorithm_factory: Callable[[int], SamplingAlgorithm],
    m_list: Sequence[int],
    d: int,
    alpha: float,
    gamma: float,
    policy: GrowthPolicy,
    grid_resolution: int = 9,
    kappa1_override: float | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Average error vs the hardness bound over a sweep of sample budgets.

    The pass flag always compares against the theoretical bound (with the
    certified kappa1), even when an override rescales the reported curve."""

    def row(m):
        family = build_adversarial_family(
            m, d, alpha, gamma, policy, kappa1_override=kappa1_override
        )
        algorithm = algorithm_factory(m)
        result = average_error(family, algorithm, grid_resolution=grid_resolution)
        bound, measured_theoretical, ok = _bound_check(family, result.average, result.unseen)
        return f"hardness-{algorithm.label}", {
            "m": m,
            "measured_avg_error": result.average,
            "measured_theoretical": measured_theoretical,
            "center_only": result.center_only,
            "lower_bound": bound,
            "unseen_count": result.unseen,
            "amplitude": family.amplitude,
            "pass": ok,
        }

    params = {
        "d": d,
        "alpha": alpha,
        "gamma": gamma,
        "grid_resolution": grid_resolution,
        "kappa1_override": kappa1_override,
    }
    return _sweep(m_list, row, params, seed)


def run_mc_sweep(
    mc_factory: Callable[[int], MonteCarloAlgorithm],
    m_list: Sequence[int],
    d: int,
    alpha: float,
    gamma: float,
    policy: GrowthPolicy,
    draws: int = 30,
    grid_resolution: int = 9,
    kappa1_override: float | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Monte Carlo sweep: mean average error over independent draws per m.

    Each draw uses a stream derived from (seed, m, draw index), so results
    are reproducible regardless of evaluation order.  The realized sample
    counts are audited against the declared budget."""
    if draws < 30:
        raise ValueError("draws must be >= 30")

    def row(m):
        mc = mc_factory(m)
        family = build_adversarial_family(
            m, d, alpha, gamma, policy, kappa1_override=kappa1_override
        )
        errors = []
        unseen_counts = []
        sample_counts = []
        for k in range(draws):
            rng = np.random.default_rng([seed, m, k])
            algorithm = mc.generator(rng)
            result = average_error(family, algorithm, grid_resolution=grid_resolution)
            errors.append(result.average)
            unseen_counts.append(result.unseen)
            sample_counts.append(algorithm.m)
        mean_error = float(np.mean(errors))
        mean_count = float(np.mean(sample_counts))
        unseen = int(min(unseen_counts))
        bound, _, ok = _bound_check(family, mean_error, unseen)
        return f"mc-hardness-{mc.label}", {
            "m": m,
            "measured_avg_error": mean_error,
            "lower_bound": bound,
            "unseen_count": unseen,
            "amplitude": family.amplitude,
            "mean_sample_count": mean_count,
            "budget_ok": bool(mean_count <= mc.budget + 1e-9),
            "pass": ok,
        }

    params = {
        "d": d,
        "alpha": alpha,
        "gamma": gamma,
        "draws": draws,
        "grid_resolution": grid_resolution,
        "kappa1_override": kappa1_override,
    }
    return _sweep(m_list, row, params, seed)


def run_upper_bound_sweep(
    m_list: Sequence[int],
    d: int,
    alpha: float,
    gamma: float,
    policy: GrowthPolicy,
    reconstruction: str = "nearest",
    grid_resolution: int = 9,
    seed: int = 0,
) -> ExperimentReport:
    """Grid-algorithm error decay on unit-ball bump inputs.

    For each budget m the input is the certified unit-ball bump of the
    hardness family at that budget whose cell is central on every axis; the
    measured sup error must decay at least as fast as
    m**(-alpha/(d (gamma + alpha))) (fitted slope comparison, constants not
    enforced)."""

    def row(m):
        family = build_adversarial_family(m, d, alpha, gamma, policy)
        # an off-grid cell, so that the bump is a nontrivial input
        k = family.per_axis
        i = int(np.ravel_multi_index((k // 2,) * d, (k,) * d))
        bump = family.member(i, 1)
        algorithm = grid_algorithm(m, d, reconstruction)
        recon = algorithm.reconstruct(bump(algorithm.points))
        test = family.centers[i] + _support_offsets(family, grid_resolution)
        err = float(np.max(np.abs(bump(test) - recon(test))))
        bound = reconstruction_error_bound(m, d, policy, alpha, gamma)
        return f"upper-bound-{reconstruction}", {
            "m": m,
            "measured_avg_error": err,
            "lower_bound": bound,
            "unseen_count": None,
            "amplitude": family.amplitude,
            "pass": bool(err <= bound),
        }

    params = {
        "d": d,
        "alpha": alpha,
        "gamma": gamma,
        "reconstruction": reconstruction,
        "grid_resolution": grid_resolution,
    }
    return _sweep(m_list, row, params, seed, upper=True)
