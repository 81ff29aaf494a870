"""Sampling algorithms, the adversarial bump family, and error measurement.

A sampling algorithm is m points in [0,1]^d plus a reconstruction map that
sees a function only through its values at those points.  The adversarial
family places signed, disjointly supported, unit-ball-certified bumps on a
regular grid of 2*ceil(m**(1/d)) centers per axis; any algorithm with m
samples must leave at least m bumps entirely unseen, which forces its average
error above an explicit power law in m.  This module measures that average
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
    """Sample points plus a reconstruction map.

    ``reconstruct(values)`` returns a callable evaluating the reconstruction
    on (k, d) batches.  ``linear_stencil``, when present, expresses the
    reconstruction as a fixed linear combination of sample values: it maps a
    (k, d) batch of query points to (indices, weights) with
    reconstruction(values)(X) = sum_s weights[:, s] * values[indices[:, s]].
    It enables the vectorized average-error path."""

    points: np.ndarray
    reconstruct: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    label: str
    linear_stencil: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

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


def _stencil_reconstruct(points, stencil):
    def reconstruct(values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(points),):
            raise ValueError(f"expected {len(points)} sample values")

        def evaluate(x):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            idx, w = stencil(x)
            return (w * values[idx]).sum(axis=1)

        return evaluate

    return reconstruct


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

    return SamplingAlgorithm(
        points=points,
        reconstruct=_stencil_reconstruct(points, stencil),
        label=f"grid-{reconstruction}",
        linear_stencil=stencil,
    )


# values held at once by the nearest-sample searches: squared distances,
# or the planes and work arrays of _nearest_in_seen_cells
_CHUNK_ENTRIES = 1 << 16


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

    return SamplingAlgorithm(
        points=points,
        reconstruct=_stencil_reconstruct(points, stencil),
        label="uniform-random-nearest",
        linear_stencil=stencil,
    )


def zero_algorithm(m: int, d: int) -> SamplingAlgorithm:
    """Data-ignoring algorithm: grid sample points, reconstruction == 0."""
    grid = grid_algorithm(m, d, "nearest")

    def stencil(x):
        x = np.atleast_2d(x)
        return np.zeros((len(x), 1), np.int64), np.zeros((len(x), 1))

    return SamplingAlgorithm(
        points=grid.points,
        reconstruct=_stencil_reconstruct(grid.points, stencil),
        label="zero",
        linear_stencil=stencil,
    )


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
    method: str = "auto",
) -> AverageErrorResult:
    """Mean over members (i, nu) of the estimated sup-norm of f - Q(f).

    The sup is estimated on a refined grid inside each member's support cube
    plus its center; restricting to the support underestimates the true sup
    and keeps the hardness comparison one-sided.  On the stencil path a cell
    that holds no sample reconstructs to exactly 0, so its error is
    ``amplitude * |theta(offset)|`` in closed form; only the seen cells go
    through the stencil, at most ``max(_CHUNK_POINTS, G)`` test points per
    call, with G the number of test offsets per cell.  The stencil and
    generic paths agree to rounding, not bit for bit: one takes
    ``amplitude * |theta - v|``, the other ``|amplitude*theta - amplitude*v|``.

    The unseen count comes with the error: the stencil path has already
    located the samples and counts the cells without one; the generic path
    calls ``count_unseen``.  The test offsets and the profile at them are
    built once per family and grid_resolution (``_support``)."""
    if algorithm.d != family.d:
        raise ValueError("algorithm and family dimensions differ")
    use_stencil = method == "stencil" or (
        method == "auto" and algorithm.linear_stencil is not None
    )
    offsets, theta_off = _support(family, grid_resolution)
    if use_stencil:
        if algorithm.linear_stencil is None:
            raise ValueError("algorithm has no linear stencil")
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


# test points per stencil call on the seen cells (whole cells per chunk)
_CHUNK_POINTS = 1 << 16


def _average_error_stencil(family, algorithm, offsets, theta_off):
    """Vectorized path for linear, value-scaling-equivariant reconstructions.

    Returns the per-center error maxima over the test offsets, the error
    at each center and the number of cells that hold no sample, K minus the
    seen cells the samples were located in.  The nu = +-1 errors coincide
    because the reconstruction scales with the data, so one pass over
    centers covers all members.  The stencil masks out samples outside the
    member's cell, so a cell without a sample reconstructs to 0 and its row
    is ``amplitude * |theta_off|``; the seen cells are evaluated in chunks
    of whole cells, at most ``max(_CHUNK_POINTS, G)`` test points each, so
    memory is O(K + chunk).  A nearest-sample stencil is replaced by
    ``_nearest_in_seen_cells``, whose chunks are groups of whole cells."""
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
        mask = ci[idx] == np.repeat(cells, G)[:, None]
        recon = (w * tv[idx] * mask).sum(axis=1)
        err = family.amplitude * np.abs(np.tile(theta_off, len(cells)) - recon)
        err = err.reshape(len(cells), G)
        row_max[cells] = err.max(axis=1)
        center[cells] = err[:, 0]
    return row_max, center, K - len(seen)


def _test_points(family, cells, offsets):
    """(cells, G, d) test points: each cell's center plus every offset."""
    return family.centers[cells, None, :] + offsets[None, :, :]


def _stencil_in_seen_cells(family, stencil, seen, offsets):
    """(cells, indices, weights) of the stencil at the test points of the
    seen cells, cell-major, in calls of at most max(_CHUNK_POINTS, G) points."""
    step = max(1, _CHUNK_POINTS // len(offsets))
    for start in range(0, len(seen), step):
        cells = seen[start : start + step]
        test = _test_points(family, cells, offsets).reshape(-1, family.d)
        yield (cells, *stencil(test))


def _nearest_in_seen_cells(family, stencil, ci, seen, offsets):
    """What ``_stencil_in_seen_cells`` yields for a nearest-sample stencil,
    from a few candidate samples per cell.

    A cell's test points lie inside its box (half-width h = 1/M around its
    center), and so does a sample s of a seen cell (``ci`` gives the cell
    of each sample).  No test point is farther from s than the box corner
    farthest from s, at distance ``reach``, so a sample farther than
    ``reach`` from the box is farther than s from every test point: the
    candidates are the samples within ``reach`` of the box, sorted by index.
    They are screened from all samples or, when fewer cells than samples lie
    in the block of (2*ceil(sqrt(d)) + 1)**d cells around the cell, from the
    samples bucketed in that block (reach <= 2h*sqrt(d), so none outside it
    is a candidate); so each cell costs the smaller of the two counts.

    The distances are taken in planes, one candidate at a time.  For a group
    of cells, axis a of their test points is one (cells, G) plane, the sum
    ``centers[cells, a] + offsets[:, a]`` of ``_test_points``.  The squared
    distances to each cell's j-th candidate are added up plane by plane
    from axis 0, as in the brute-force search, and a running best takes a
    candidate only when it is strictly closer, so the lowest index wins a
    tie, as in argmin.  Cells are sorted widest first, so the j-th candidate
    touches only the prefix of a group's rows that has one; every inner loop
    runs over G test points."""
    d, k, G = family.d, family.per_axis, len(offsets)
    points, shape, h = stencil.points, (k,) * d, 1.0 / family.M
    m = len(points)
    r = math.isqrt(d - 1) + 1  # ceil(sqrt(d))
    gather = (2 * r + 1) ** d < m
    if gather:
        axis = np.arange(-r, r + 1)
        block = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
        cell_of = np.clip(np.floor(points * k), 0, k - 1).astype(np.int64)
        bucket = np.ravel_multi_index(cell_of.T, shape)
        count = np.bincount(bucket, minlength=k**d)
        first = np.cumsum(count) - count
        by_bucket = np.argsort(bucket, kind="stable")
    owner = np.empty(family.num_centers, np.int64)
    inside = np.flatnonzero(ci >= 0)
    owner[ci[inside]] = inside
    corner = np.abs(points[owner[seen]] - family.centers[seen]) + h
    # the factor keeps every sample that rounding could tie with s
    reach = (corner * corner).sum(axis=1) * (1 + 1e-9)
    step = max(1, _CHUNK_ENTRIES // max(G, len(block) if gather else m))
    # a group of cells holds at most _CHUNK_ENTRIES values in its d planes
    # and its best, dist, diff and nearest arrays, so that they stay in
    # cache; a lone cell holds at most _CHUNK_ENTRIES test points in each
    # and takes more in slices
    share = max(1, _CHUNK_ENTRIES // (d + 4))
    group = max(1, share // G)
    size = max(share, min(G, _CHUNK_ENTRIES))
    work, flags = np.empty((d + 3, size)), np.empty(size, bool)
    for start in range(0, len(seen), step):
        cells = seen[start : start + step]
        n = len(cells)
        if gather:
            near = np.stack(np.unravel_index(cells, shape), axis=1)[:, None, :] + block
            within = ((near >= 0) & (near < k)).all(axis=2)
            near = np.ravel_multi_index(np.moveaxis(np.clip(near, 0, k - 1), -1, 0), shape)
            runs = np.where(within, count[near], 0).ravel()
            # the ids in each block bucket, bucket after bucket, cell after cell
            ends = np.cumsum(runs)
            ids = by_bucket[np.repeat(first[near.ravel()] - (ends - runs), runs) + np.arange(ends[-1])]
            row = np.repeat(np.arange(n), runs.reshape(n, -1).sum(axis=1))
            ids = np.sort(row * m + ids) - row * m
        else:
            row, ids = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
        # keep the samples within reach of their cell's box
        gap = np.abs(points[ids] - family.centers[cells[row]]) - h
        np.maximum(gap, 0.0, out=gap)
        keep = (gap * gap).sum(axis=1) <= reach[start : start + step][row]
        row, ids = row[keep], ids[keep]
        per = np.bincount(row, minlength=n)
        # one row of candidates per cell, its first per[i] entries used
        lowest = np.cumsum(per) - per
        cand = np.zeros((n, per.max()), np.int64)
        cand[row, np.arange(len(ids)) - lowest[row]] = ids
        # cells with the most candidates first, so that the rows holding a
        # j-th candidate are a prefix of each group
        order = np.argsort(-per, kind="stable")
        for s in range(0, n, group):
            rows = order[s : s + group]
            width = per[rows]
            # live[j]: how many rows, a prefix, have a j-th candidate
            live = np.searchsorted(-width, -np.arange(width[0]), side="left")
            c_all = cand[rows]
            p_all = points[c_all]
            idx = np.empty((len(rows), G), np.int64)
            span = max(1, _CHUNK_ENTRIES // len(rows))
            for o in range(0, G, span):
                nearest = idx[:, o : o + span]
                # planes[a, r, g]: axis a of test point g of cell rows[r]
                planes, (best, dist, diff) = np.split(
                    work[:, : nearest.size].reshape(-1, *nearest.shape), [d]
                )
                np.add(
                    family.centers[cells[rows]].T[:, :, None],
                    offsets[o : o + span].T[:, None, :],
                    out=planes,
                )
                closer = flags[: nearest.size].reshape(nearest.shape)
                for j, head in enumerate(live):
                    c, p = c_all[:head, j], p_all[:head, j]
                    # 0 + x == x for a square x, so starting from axis 0's
                    # term gives the brute-force search's sums
                    sq, tmp = (dist[:head] if j else best), diff[:head]
                    np.subtract(planes[0, :head], p[:, 0, None], out=sq)
                    np.multiply(sq, sq, out=sq)
                    for a in range(1, d):
                        np.subtract(planes[a, :head], p[:, a, None], out=tmp)
                        np.multiply(tmp, tmp, out=tmp)
                        sq += tmp
                    if j == 0:
                        nearest[:] = c[:, None]
                        continue
                    # strictly closer only: on a tie the earlier candidate,
                    # the lower index, stays, as argmin keeps it
                    np.less(sq, best[:head], out=closer[:head])
                    np.copyto(best[:head], sq, where=closer[:head])
                    np.copyto(nearest[:head], c[:, None], where=closer[:head])
            yield cells[rows], idx.reshape(-1, 1), np.ones((idx.size, 1))


def _average_error_generic(family, algorithm, offsets, theta_off):
    """Per-member path valid for arbitrary reconstruction maps; returns the
    per-center maxima and center errors of the stencil path, to rounding."""
    K = family.num_centers
    row_max, center = np.empty(K), np.empty(K)
    amp = family.amplitude
    for i in range(K):
        test = family.centers[i] + offsets
        f_test = amp * theta_off
        spec = BumpSpec(d=family.d, M=float(family.M), y=tuple(family.centers[i]), p=2)
        values = amp * vartheta(spec, algorithm.points)
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


def _sweep(m_list, row, params, seed, label=None, upper=False) -> ExperimentReport:
    """The loop shared by the sweep runners.

    ``row(m)`` measures one budget of the non-empty, strictly ascending
    m_list and returns (name, row); the first name labels the report unless
    ``label`` is given.  A hardness sweep passes when every row passes and
    keeps its sample budget; an upper-bound sweep passes when the decay
    exponent fitted to the measured errors is below the slope target."""
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
        label=label or names[0],
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
    label: str | None = None,
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
    return _sweep(m_list, row, params, seed, label)


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
    label: str | None = None,
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
    return _sweep(m_list, row, params, seed, label)


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
