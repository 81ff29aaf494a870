"""Sparse feedforward ReQU networks and their structural operations.

A network is a sequence of affine layers (A_j, b_j); evaluation alternates
the affine maps with the elementwise rectified-quadratic activation on all
but the last layer.  Matrices are stored in coordinate-list form and the
stored-entry count is the exact l0 weight count: constructors never store
explicit zeros, and no epsilon thresholding is applied anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import BinaryIO, Iterator, Sequence

import numpy as np


class NetworkError(ValueError):
    """Raised for invalid network structure or invalid operation inputs."""


class ParseError(NetworkError):
    """Raised when a serialized network cannot be decoded.

    ``offset`` is the byte offset of the first undecodable character when
    the failure happened during JSON parsing, else None.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


def rho_p(x, p: int = 2):
    """Rectified power unit max(0, x)**p (p=2 is the ReQU activation)."""
    if p < 1:
        raise ValueError(f"power must be a positive integer, got {p}")
    return np.maximum(0.0, x) ** p


_PRODUCTS_PER_BLOCK = 1 << 16


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable COO matrix; duplicate coordinates are rejected: equal
    neighbours in the key rows * span + cols, span = cols.max() + 1, formed
    in one array and sorted in place, or in a lexsort of (row, column) where
    that int64 key could overflow."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise NetworkError("rows/cols/vals must have matching lengths")
        if rows.size:
            if rows.min(initial=0) < 0 or rows.max(initial=0) >= self.shape[0]:
                raise NetworkError("row index out of range")
            if cols.min(initial=0) < 0 or cols.max(initial=0) >= self.shape[1]:
                raise NetworkError("column index out of range")
            span = int(cols.max()) + 1
            if rows.max() < (2**63 - span) // span:
                key = rows * span
                key += cols
                key.sort()
                ranked = [key]
            else:
                order = np.lexsort((cols, rows))
                ranked = [rows[order], cols[order]]
            if np.logical_and.reduce([k[1:] == k[:-1] for k in ranked]).any():
                raise NetworkError("duplicate coordinate in sparse matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        rows, cols = np.nonzero(arr)
        return cls(arr.shape, rows, cols, arr[rows, cols])

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def max_abs(self) -> float:
        return float(np.abs(self.vals).max()) if self.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def matmul_points(self, pts: np.ndarray) -> np.ndarray:
        """Apply to a batch of row vectors: (k, shape[1]) -> (k, shape[0]).

        Each output adds its row's products to 0.0 one at a time in column
        order, as a CSR product over sorted indices does.  The products are
        formed for a block of entries at a time, about _PRODUCTS_PER_BLOCK
        values."""
        order = np.lexsort((self.cols, self.rows))
        rows, cols, vals = self.rows[order], self.cols[order], self.vals[order]
        x = np.ascontiguousarray(pts.T)
        k = x.shape[1]
        out = np.zeros(self.shape[0] * k)
        step = max(1, _PRODUCTS_PER_BLOCK // max(1, k))
        for s in range(0, self.nnz, step):
            block = slice(s, s + step)
            # np.add.at applies repeated indices one after another, in order
            flat = (rows[block, None] * k + np.arange(k)).ravel()
            np.add.at(out, flat, (vals[block, None] * x[cols[block]]).ravel())
        return out.reshape(self.shape[0], k).T


@dataclass(frozen=True)
class SparseVector:
    """Immutable sparse vector (bias storage)."""

    size: int
    idx: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=np.float64)
        if idx.shape != vals.shape:
            raise NetworkError("idx/vals must have matching lengths")
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise NetworkError("bias index out of range")
        ranked = np.sort(idx)
        if (ranked[1:] == ranked[:-1]).any():
            raise NetworkError("duplicate index in sparse vector")
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "vals", vals)

    @classmethod
    def from_dense(cls, arr) -> "SparseVector":
        arr = np.asarray(arr, dtype=np.float64).ravel()
        idx = np.nonzero(arr)[0]
        return cls(arr.size, idx, arr[idx])

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def max_abs(self) -> float:
        return float(np.abs(self.vals).max()) if self.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.size)
        out[self.idx] = self.vals
        return out


@dataclass(frozen=True)
class Layer:
    weights: SparseMatrix
    bias: SparseVector

    def __post_init__(self):
        if self.weights.shape[0] != self.bias.size:
            raise NetworkError("bias length must equal the matrix row count")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def nnz(self) -> int:
        return self.weights.nnz + self.bias.nnz

    def max_abs(self) -> float:
        return max(self.weights.max_abs(), self.bias.max_abs())

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored weight values and bias values."""
        return self.weights.vals, self.bias.vals


@dataclass(frozen=True, eq=False)
class Run:
    """Records of a few templates repeated with fixed strides.

    A template is a record's indices (a row of index) and its value.  Copy k
    of block j of a template adds k * copy_step + j * block_step to its
    indices, a step per index column; the records are ordered by block, then
    copy, then template, and copy k of block j is copy number j * copies + k.
    Templates of value 0.0 or -0.0 are left out, as from_dense stores no
    zero.  Steps are non-negative and no block starts below the last copy of
    the block before it (block_step >= (copies - 1) * copy_step), so every
    index column is non-decreasing along the run."""

    index: np.ndarray
    vals: np.ndarray
    copies: int
    blocks: int
    copy_step: np.ndarray
    block_step: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        index = np.asarray(self.index, dtype=np.int64).reshape(vals.size, -1)
        copy_step = np.asarray(self.copy_step, dtype=np.int64)
        block_step = np.asarray(self.block_step, dtype=np.int64)
        if not copy_step.shape == block_step.shape == index.shape[1:]:
            raise NetworkError("a run needs one copy step and one block step per index column")
        if min(self.copies, self.blocks) < 0 or (index < 0).any() or (copy_step < 0).any():
            raise NetworkError("a run's counts, indices and steps must be non-negative")
        if self.blocks > 1 and (block_step < max(self.copies - 1, 0) * copy_step).any():
            raise NetworkError("a run's block must start at or after the previous block's end")
        keep = vals != 0.0
        for name, value in [("index", index[keep]), ("vals", vals[keep]),
                            ("copy_step", copy_step), ("block_step", block_step)]:
            object.__setattr__(self, name, value)

    @property
    def groups(self) -> int:
        return self.copies * self.blocks

    @property
    def size(self) -> int:
        return self.vals.size * self.groups

    def last(self) -> np.ndarray:
        """The largest index of each column."""
        return (self.index.max(axis=0) + max(self.copies - 1, 0) * self.copy_step
                + max(self.blocks - 1, 0) * self.block_step)

    def offsets(self, start: int, stop: int, copy_step: int, block_step: int) -> np.ndarray:
        """k * copy_step + j * block_step for copies number start to stop - 1,
        copy k of block j: a floor division by copies and a multiply-subtract
        for the remainder, cheaper than np.divmod."""
        k = np.arange(start, stop, dtype=np.int64)
        j = k // self.copies
        k -= j * self.copies
        k *= copy_step
        j *= block_step
        k += j
        return k

    def fill(self, out: np.ndarray, base: np.ndarray, copy_step: int, block_step: int) -> None:
        """Write base[t] plus the offset of its copy into out, a record per
        entry in stored order, _RECORDS_PER_BLOCK copies at a time."""
        view = out.reshape(self.groups, base.size)
        for s in range(0, self.groups, _RECORDS_PER_BLOCK):
            e = min(s + _RECORDS_PER_BLOCK, self.groups)
            np.add(self.offsets(s, e, copy_step, block_step)[:, None], base, out=view[s:e])

    def reaching(self, base: int, column: int, bound: int) -> int:
        """The number of the first copy whose index in column, for a template
        index base, is at least bound; groups when none is."""
        cs, bs = int(self.copy_step[column]), int(self.block_step[column])
        top = base + (self.copies - 1) * cs  # the column's largest index in block 0
        if top >= bound:
            j = 0
        elif bs == 0:
            return self.groups
        else:
            j = -((top - bound) // bs)
        if j >= self.blocks:
            return self.groups
        first = base + j * bs
        return j * self.copies + (0 if first >= bound else -((first - bound) // cs))


def _fill_runs(runs: Sequence[Run], weights: Sequence[int]) -> np.ndarray:
    """The sum over index columns of index * weights, for every record of
    runs in stored order: one int64 per record, formed run by run."""
    weights = np.asarray(weights, dtype=np.int64)
    out = np.empty(sum(r.size for r in runs), dtype=np.int64)
    at = 0
    for r in runs:
        r.fill(out[at : at + r.size], r.index @ weights, int(r.copy_step @ weights),
               int(r.block_step @ weights))
        at += r.size
    return out


@dataclass(frozen=True, eq=False)
class StridedLayer:
    """A layer whose weights, (row, col) records, and bias, (index,)
    records, are runs, of which those with no record are dropped: the stored
    layer is expand().  Ranges and distinct coordinates are checked as
    SparseMatrix and SparseVector check them, on keys formed run by run.

    The keys are sorted by numpy's stable sort, which finds the ascending
    stretches of its input and merges them.  A single-template run's keys
    ascend, as its steps are non-negative and no block starts before the
    previous one ends, so for such runs the sort only merges their keys."""

    shape: tuple[int, int]
    entries: tuple[Run, ...]
    bias: tuple[Run, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(r for r in self.entries if r.size))
        object.__setattr__(self, "bias", tuple(r for r in self.bias if r.size))
        rows, cols = map(int, self.shape)
        if rows * cols >= 2**63:
            raise NetworkError("a strided layer's keys must fit in int64")
        for runs, limits, what in [(self.entries, (rows, cols), "coordinate in sparse matrix"),
                                   (self.bias, (rows,), "index in sparse vector")]:
            for r in runs:
                if r.index.shape[1] != len(limits):
                    raise NetworkError(f"a run of this layer needs {len(limits)} index columns")
                if (r.last() >= limits).any():
                    raise NetworkError("index out of range")
            keys = _fill_runs(runs, (cols, 1)[-len(limits):])
            keys.sort(kind="stable")
            if (keys[1:] == keys[:-1]).any():
                raise NetworkError(f"duplicate {what}")

    @property
    def out_dim(self) -> int:
        return self.shape[0]

    @property
    def in_dim(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return sum(r.size for r in self.entries + self.bias)

    def max_abs(self) -> float:
        return max((float(np.abs(r.vals).max()) for r in self.entries + self.bias), default=0.0)

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """The values of the weight templates and of the bias templates."""
        return tuple(np.concatenate([np.empty(0)] + [r.vals for r in runs])
                     for runs in (self.entries, self.bias))

    def expand(self) -> Layer:
        """The Layer of every record, in stored order."""

        def vals(runs):
            return np.concatenate([np.empty(0)] + [np.tile(r.vals, r.groups) for r in runs])

        e, b = self.entries, self.bias
        return Layer(
            SparseMatrix(self.shape, _fill_runs(e, (1, 0)), _fill_runs(e, (0, 1)), vals(e)),
            SparseVector(self.shape[0], _fill_runs(b, (1,)), vals(b)),
        )


class _LayerChain:
    """The dimension chain and budget figures of a sequence of layers."""

    def __post_init__(self):
        if not self.layers:
            raise NetworkError("a network needs at least one layer")
        for k in range(1, len(self.layers)):
            if self.layers[k].in_dim != self.layers[k - 1].out_dim:
                raise NetworkError(
                    f"dimension chain broken between layers {k} and {k + 1}: "
                    f"{self.layers[k].in_dim} != {self.layers[k - 1].out_dim}"
                )
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def depth(self) -> int:
        return len(self.layers)

    def weight_count(self) -> int:
        return sum(l.nnz for l in self.layers)

    def max_norm(self) -> float:
        return max(l.max_abs() for l in self.layers)


@dataclass(frozen=True)
class NeuralNetwork(_LayerChain):
    """Architecture: sequence of affine layers; depth L means L affine maps
    with L-1 activations between them."""

    layers: tuple[Layer, ...]

    @classmethod
    def from_dense(cls, mats_and_biases) -> "NeuralNetwork":
        layers = [
            Layer(SparseMatrix.from_dense(a), SparseVector.from_dense(b))
            for a, b in mats_and_biases
        ]
        return cls(tuple(layers))


@dataclass(frozen=True, eq=False)
class StridedNetwork(_LayerChain):
    """A network some of whose layers are StridedLayers.  Its budget figures
    and its encoding are read from the runs; expand() gives the
    NeuralNetwork it stores, which evaluation and the structural operations
    take."""

    layers: tuple[Layer | StridedLayer, ...]

    def expand(self) -> NeuralNetwork:
        return NeuralNetwork(tuple(
            l.expand() if isinstance(l, StridedLayer) else l for l in self.layers
        ))


def realize(net: NeuralNetwork, x) -> np.ndarray:
    """Evaluate the network at x (shape (d,) -> (d_out,) or (k, d) -> (k, d_out)).

    A hidden value beyond about 2**512 squares to inf, as IEEE arithmetic
    gives it, without a warning."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != net.input_dim:
        raise NetworkError(
            f"input has {x.shape[-1] if x.ndim else 0} components, "
            f"network expects {net.input_dim}"
        )
    z = pts
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        z = layer.weights.matmul_points(z) + layer.bias.to_dense()
        if k != last:
            with np.errstate(over="ignore"):
                z = np.maximum(0.0, z) ** 2
    return z[0] if single else z


def realize_fraction(net: NeuralNetwork, x) -> list[Fraction]:
    """Exact forward pass in rational arithmetic over the stored weights.

    Every stored double is a dyadic rational and the activation is a square,
    so the realization value is computed with zero rounding error.  Intended
    for small networks (cross-checks of gadget constructions and of the
    compressed hat-network evaluator)."""
    vec = [Fraction(float(v)) for v in np.asarray(x, dtype=np.float64).ravel()]
    if len(vec) != net.input_dim:
        raise NetworkError("input length mismatch")
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        out = [Fraction(0)] * layer.out_dim
        w = layer.weights
        for i, j, v in zip(w.rows, w.cols, w.vals):
            out[i] += Fraction(float(v)) * vec[j]
        for i, v in zip(layer.bias.idx, layer.bias.vals):
            out[i] += Fraction(float(v))
        if k != last:
            out = [u * u if u > 0 else Fraction(0) for u in out]
        vec = out
    return vec


# ---------------------------------------------------------------------------
# growth policies and membership budgets
# ---------------------------------------------------------------------------

INF = float("inf")


@dataclass(frozen=True)
class GrowthPolicy:
    """Coefficient-growth function and depth allowance.

    c(n) = max(1, ceil(scale * n**theta_c * log(2n)**kappa_c)); the depth
    allowance ell(n) is depth_cap at every n (an integer >= 5, or inf for
    unbounded depth).
    ``kind`` names this form and accepts only "parametric".
    """

    kind: str = "parametric"
    theta_c: float = 0.0
    kappa_c: float = 0.0
    scale: float = 1.0
    depth_cap: float = 5

    def __post_init__(self):
        if self.kind != "parametric":
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not all(map(math.isfinite, (self.theta_c, self.kappa_c, self.scale))):
            raise ValueError("theta_c, kappa_c and scale must be finite")
        if self.theta_c < 0:
            raise ValueError("theta_c must be >= 0")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.depth_cap != INF and (self.depth_cap < 5 or self.depth_cap != int(self.depth_cap)):
            raise ValueError("depth_cap must be an integer >= 5 or inf")

    def c(self, n) -> float:
        """Coefficient magnitude limit at weight budget n (vectorized)."""
        narr = np.asarray(n, dtype=np.float64)
        if np.any(narr < 1):
            raise ValueError("n must be >= 1")
        # a limit beyond the float range is inf
        with np.errstate(over="ignore", invalid="ignore"):
            raw = self.scale * narr**self.theta_c * np.log(2.0 * narr) ** self.kappa_c
            # n**theta_c overflowed and log(2n)**kappa_c underflowed
            # (inf * 0): the sum of the factors' logs gives the product
            if np.isnan(raw).any():
                log_raw = (
                    math.log(self.scale) + self.theta_c * np.log(narr)
                    + self.kappa_c * np.log(np.log(2.0 * narr))
                )
                raw = np.where(np.isnan(raw), np.exp(log_raw), raw)
        out = np.maximum(1.0, np.ceil(raw))
        return float(out) if np.isscalar(n) else out


@dataclass(frozen=True)
class SigmaBudget:
    """Weight/depth/magnitude budget defining one approximation set element.

    ``input_dim`` is the ambient dimension the realization must consume; when
    None the input-dimension check is skipped."""

    n: int
    policy: GrowthPolicy
    input_dim: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("budget n must be >= 1")


def check_membership(net: NeuralNetwork | StridedNetwork, budget: SigmaBudget):
    """Check the budget constraints; returns (ok, list-of-violation strings).

    Infinite depth or norm limits are vacuously satisfied."""
    violations = []
    if budget.input_dim is not None and net.input_dim != budget.input_dim:
        violations.append(
            f"input_dim {net.input_dim} != required {budget.input_dim}"
        )
    if net.output_dim != 1:
        violations.append(f"output_dim {net.output_dim} != 1")
    if net.weight_count() > budget.n:
        violations.append(f"weight_count {net.weight_count()} > n {budget.n}")
    policy = budget.policy
    if net.depth() > policy.depth_cap:
        violations.append(f"depth {net.depth()} > ell(n) {policy.depth_cap}")
    c = policy.c(budget.n)
    if net.max_norm() > c:
        violations.append(f"max_norm {net.max_norm()} > c(n) {c}")
    return (not violations, violations)


# ---------------------------------------------------------------------------
# structural operations (depth equalization, summation, dead-layer removal)
# ---------------------------------------------------------------------------

def _parallel(a: Layer, b: Layer, stack_out: bool, stack_in: bool) -> Layer:
    """The layer that applies a and b side by side.

    With stack_out, b's outputs come after a's, else the two outputs are
    added; with stack_in, b reads the inputs after a's, else both read the
    same inputs.  The entries are a's then b's, each in stored order; when
    neither side is stacked the two matrices are added densely and stored in
    row-major order without zeros.  The bias is stored as
    SparseVector.from_dense stores it."""
    wa, wb = a.weights, b.weights
    row_off = wa.shape[0] if stack_out else 0
    col_off = wa.shape[1] if stack_in else 0
    shape = (row_off + wb.shape[0], col_off + wb.shape[1])
    if stack_out or stack_in:
        weights = SparseMatrix(
            shape,
            np.concatenate([wa.rows, wb.rows + row_off]),
            np.concatenate([wa.cols, wb.cols + col_off]),
            np.concatenate([wa.vals, wb.vals]),
        )
    else:
        weights = SparseMatrix.from_dense(wa.to_dense() + wb.to_dense())
    ba, bb = a.bias.to_dense(), b.bias.to_dense()
    bias = np.concatenate([ba, bb]) if stack_out else ba + bb
    return Layer(weights, SparseVector.from_dense(bias))


# identity-passthrough gadget pair: maps (f+1, 1-f) through one activation
_GAMMA = Layer(
    SparseMatrix.from_dense([[0.25, -0.25], [-0.25, 0.25]]),
    SparseVector.from_dense([1.0, 1.0]),
)
_LAMBDA = Layer(
    SparseMatrix.from_dense([[0.25, -0.25]]),
    SparseVector.from_dense([0.0]),
)


def depth_extend(net: NeuralNetwork, target_depth: int) -> NeuralNetwork:
    """Pad a scalar-output network to an exact depth.

    The realization is unchanged on every input whose original output lies in
    [-1, 1], which the caller asserts.  The encoding routes the pair
    (f+1, 1-f) through identity gadgets and decodes at the end, so the weight
    count at most doubles plus 6 per inserted gadget layer.  The layer that
    emits the pair stacks the final layer over its negation (_parallel); at
    depth 1 the 1 is a bias, else it is read from a constant-one channel
    added to the layer before."""
    if net.output_dim != 1:
        raise NetworkError("depth_extend requires output_dim == 1")
    k = net.depth()
    if target_depth < k:
        raise NetworkError(f"target_depth {target_depth} < current depth {k}")
    if target_depth == k:
        return net

    last = net.layers[k - 1]
    a, b = last.weights, last.bias.to_dense()
    neg = SparseMatrix(a.shape, a.rows, a.cols, -a.vals)
    if k == 1:
        # single affine layer: emit (f+1, 1-f) directly
        head = []
        plus = Layer(a, SparseVector.from_dense(b + 1.0))
        minus = Layer(neg, SparseVector.from_dense(1.0 - b))
    else:
        # widen layer k-1 with a constant-one channel
        pen = net.layers[k - 2]
        constant = Layer(SparseMatrix((1, pen.in_dim), [], [], []), SparseVector.from_dense([1.0]))
        head = [*net.layers[: k - 2], _parallel(pen, constant, True, False)]
        # the final original layer, duplicated with signs, adds that channel
        add_one = Layer(SparseMatrix.from_dense([[1.0]]), SparseVector(1, [], []))
        plus = _parallel(last, add_one, False, True)
        minus = _parallel(Layer(neg, SparseVector.from_dense(-b)), add_one, False, True)
    head.append(_parallel(plus, minus, True, False))
    return NeuralNetwork(tuple(head + [_GAMMA] * (target_depth - len(head) - 1) + [_LAMBDA]))


def sum_networks(net1: NeuralNetwork, net2: NeuralNetwork) -> NeuralNetwork:
    """Parallelize two scalar-output networks into one realizing their sum.

    Both realizations must be bounded in [-1, 1] on the intended domain
    (needed only when the depths differ, for the equalization gadgets).
    The result has depth max(L1, L2) and at most 9 * max(W1, W2) weights
    for non-degenerate depths.  Layer k of the sum is _parallel of the two
    layers k: every layer but the last stacks the outputs, every layer but
    the first stacks the inputs, so a depth-1 sum adds the two layers."""
    if net1.input_dim != net2.input_dim:
        raise NetworkError(
            f"input dims differ: {net1.input_dim} != {net2.input_dim}"
        )
    if net1.output_dim != 1 or net2.output_dim != 1:
        raise NetworkError("sum_networks requires scalar outputs")
    if net1.depth() > net2.depth():
        net1, net2 = net2, net1
    if net1.depth() < net2.depth():
        net1 = depth_extend(net1, net2.depth())
    ell = net1.depth()
    return NeuralNetwork(tuple(
        _parallel(l1, l2, k < ell - 1, k > 0)
        for k, (l1, l2) in enumerate(zip(net1.layers, net2.layers))
    ))


def eliminate_dead_layers(net: NeuralNetwork) -> NeuralNetwork:
    """Truncate at all-zero layers.

    A layer with zero matrix and zero bias forces everything upstream through
    rho_2(0) = 0, so the realization equals that of the tail network fed the
    zero vector; this pass rewrites the network accordingly, shrinking the
    depth without changing the realization."""
    for j, layer in enumerate(net.layers):
        if layer.weights.nnz == 0 and layer.bias.nnz == 0:
            if j == len(net.layers) - 1:
                zero = Layer(
                    SparseMatrix((net.output_dim, net.input_dim), [], [], []),
                    SparseVector(net.output_dim, [], []),
                )
                return NeuralNetwork((zero,))
            nxt = net.layers[j + 1]
            entry = Layer(
                SparseMatrix((nxt.out_dim, net.input_dim), [], [], []),
                nxt.bias,
            )
            tail = NeuralNetwork((entry,) + net.layers[j + 2 :])
            return eliminate_dead_layers(tail)
    return net


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_RECORDS_PER_BLOCK = 1 << 15


def _digit_plane(q: np.ndarray, w: int) -> np.ndarray:
    """The (w, q.size) uint8 plane of the ASCII digits of q, non-negative
    integers below 10**w, each zero-padded to w digits: repeated floor
    divisions by 10 into a second buffer, the digit left in the first by a
    multiply-subtract (numpy divides by a scalar faster in floor_divide than
    in divmod), in uint32 when w is at most 9."""
    digits, rest = np.empty((w, q.size), np.uint8), q.astype(np.uint32 if w <= 9 else np.int64)
    quot = np.empty_like(rest)
    for k in range(w - 1, -1, -1):
        np.floor_divide(rest, 10, out=quot)
        rest -= quot * 10
        digits[k] = rest
        rest, quot = quot, rest
    digits += 48
    return digits


def _records(columns: Sequence[np.ndarray], vals: np.ndarray) -> Iterator[bytes]:
    """Yield, a block of _RECORDS_PER_BLOCK records at a time, the bytes
    json.dumps writes for the list of records zip(*columns, vals):
    non-negative integer columns, finite float values.

    A block is a NUL-padded uint8 matrix, a record per row, laid out as '['
    fields joined by ', ' ']'.  An index column's digits are a _digit_plane
    as wide as the column's widest index in the block, leading zeros NUL,
    written with one transposed assignment.  A value's text is repr of its float
    (what json.dumps writes), from an S array with an entry per distinct bit
    pattern, so 0.0 and -0.0 keep their own text; the patterns are sorted and
    kept where they differ from their neighbour, and a block finds its texts
    by binary search in them.  Dropping the NULs gives the records."""
    if not vals.size:
        yield b"[]"
        return
    bits = np.sort(vals.view(np.int64))
    bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
    texts = np.array([repr(v).encode() for v in bits.view(np.float64).tolist()])
    yield b"["
    for s in range(0, vals.size, _RECORDS_PER_BLOCK):
        ints = [c[s : s + _RECORDS_PER_BLOCK] for c in columns]
        widths = [len(str(c.max())) for c in ints] + [texts.itemsize]
        layout = b"[" + b", ".join(b"\0" * w for w in widths) + b"], "
        block = np.tile(np.frombuffer(layout, np.uint8), (len(ints[0]), 1))
        start = 1
        for q, w in zip(ints, widths):
            digits = _digit_plane(q, w)
            # a digit above the number's own is a leading zero
            digits[:-1] *= q >= 10 ** np.arange(w - 1, 0, -1, dtype=np.int64)[:, None]
            block[:, start : start + w] = digits.T
            start += w + 2
        found = np.searchsorted(bits, vals[s : s + _RECORDS_PER_BLOCK].view(np.int64))
        block[:, start : start + widths[-1]] = texts[found].view(np.uint8).reshape(-1, widths[-1])
        if s + _RECORDS_PER_BLOCK >= vals.size:
            block[-1, -2:] = 0  # the last record's ', '
        flat = block.ravel()
        yield flat[flat != 0].tobytes()
    yield b"]"


def _segment(run: Run, start: int, stop: int) -> np.ndarray:
    """The records of copies number start to stop - 1 of run, each followed
    by ', ', as a (copies, bytes) uint8 matrix; every index of a template
    column has the same number of digits in these copies.

    The row layout holds the text of each value and of each index that is
    the same in every row; each other index is a _digit_plane, computed once
    per (column, template index, width) and written at every position of
    it.  A column whose steps are both 0 is the same in every row, and its
    offsets are not formed."""
    layout, planes = [], {}
    offsets = [run.offsets(start, stop, int(cs), int(bs)) if cs or bs else np.zeros(1, np.int64)
               for cs, bs in zip(run.copy_step, run.block_step)]
    at = 0
    for t, v in enumerate(run.vals.tolist()):
        fields = []
        for c, off in enumerate(offsets):
            base = int(run.index[t, c])
            text = str(base + int(off[0])).encode()
            if off[-1] != off[0]:
                planes.setdefault((c, base, len(text)), []).append(
                    at + 1 + sum(map(len, fields)) + 2 * c)
            fields.append(text)
        record = b"[" + b", ".join(fields + [repr(v).encode()]) + b"], "
        layout.append(record)
        at += len(record)
    block = np.tile(np.frombuffer(b"".join(layout), np.uint8), (stop - start, 1))
    for (c, base, w), positions in planes.items():
        digits = _digit_plane(base + offsets[c], w).T
        for pos in positions:
            block[:, pos : pos + w] = digits
    return block


def _run_records(runs: Sequence[Run]) -> Iterator[bytes]:
    """Yield the bytes json.dumps writes for the list of the records of runs,
    in turn, a _segment at a time; no run may be empty.

    A segment ends where an index of a template column reaches a power of
    ten (Run.reaching), and holds at most _RECORDS_PER_BLOCK records."""
    if not runs:
        yield b"[]"
        return
    yield b"["
    for r in runs:
        per = max(1, _RECORDS_PER_BLOCK // r.vals.size)
        powers = [10**e for e in range(1, len(str(r.last().max())))]
        ends = {r.reaching(base, c, p)
                for row in r.index.tolist() for c, base in enumerate(row) for p in powers}
        ends.update(range(per, r.groups, per), [r.groups])
        start = 0
        for stop in sorted(e for e in ends if e > 0):
            flat = _segment(r, start, stop).reshape(-1)
            last = r is runs[-1] and stop == r.groups
            # the last record's ', '
            yield (flat[:-2] if last else flat).tobytes()
            start = stop
    yield b"]"


def encode(net: NeuralNetwork | StridedNetwork) -> Iterator[bytes]:
    """The bytes of serialize(net) as a generator of pieces, most of them
    blocks of at most _RECORDS_PER_BLOCK records, so that a caller can write
    or compare the encoding without holding all of it.  A StridedLayer is
    written from its runs, without expanding it.

    Every layer is checked first: a NaN or infinite weight or bias raises
    NetworkError here, before any piece is produced."""
    for k, layer in enumerate(net.layers):
        if not all(np.isfinite(v).all() for v in layer.values()):
            raise NetworkError(f"layer {k + 1}: a weight or bias is not finite")
    return _pieces(net)


def _pieces(net: NeuralNetwork | StridedNetwork) -> Iterator[bytes]:
    yield f'{{"input_dim": {net.input_dim}, "layers": ['.encode()
    for k, layer in enumerate(net.layers):
        if isinstance(layer, StridedLayer):
            entries, bias = _run_records(layer.entries), _run_records(layer.bias)
        else:
            w, b = layer.weights, layer.bias
            entries, bias = _records((w.rows, w.cols), w.vals), _records((b.idx,), b.vals)
        sep = ", " if k else ""
        yield f'{sep}{{"rows": {layer.out_dim}, "cols": {layer.in_dim}, "entries": '.encode()
        yield from entries
        yield b', "bias": '
        yield from bias
        yield b"}"
    yield b"]}"


def serialize(net: NeuralNetwork | StridedNetwork) -> bytes:
    """Encode as UTF-8 JSON with full double round-trip precision: the
    pieces of encode(net), joined.

    The bytes are those json.dumps writes for {"input_dim": d, "layers":
    [{"rows": r, "cols": c, "entries": [[i, j, w], ...], "bias": [[i, b],
    ...]}, ...]}, with entries and biases in stored order.  A NaN or infinite
    weight or bias, which strict JSON cannot hold, raises NetworkError."""
    return b"".join(encode(net))


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a finite number")


def _dim(value, name: str) -> int:
    if type(value) is not int or value < 0:
        raise ParseError(f"{name} must be a non-negative integer")
    return value


def _parse_records(items, width: int, name: str) -> np.ndarray:
    """A JSON list of [index, ..., value] records as a (len, width) float64
    array whose indices are integers in [0, 2**53) and whose values are
    finite."""
    if not isinstance(items, list):
        raise ParseError(f"{name} must be a list")
    if not items:
        return np.empty((0, width))
    malformed = f"each {name} record must be a list of {width} numbers"
    try:
        arr = np.array(items, dtype=np.float64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(malformed) from exc
    if arr.shape != (len(items), width):
        raise ParseError(malformed)
    # np.array also converts booleans and numeric strings
    if not set(map(type, chain.from_iterable(items))) <= {int, float}:
        raise ParseError(f"{name} holds a non-numeric or boolean value")
    if not np.isfinite(arr[:, -1]).all():
        raise ParseError(f"{name} holds a value that is not finite")
    idx = arr[:, :-1]
    # below 2**53 every integer is exact in float64 and in int64
    if not ((idx >= 0) & (idx < 2.0**53) & (idx == np.floor(idx))).all():
        raise ParseError(f"{name} holds an index that is not an integer in [0, 2**53)")
    return arr


def _parse_layer(spec, in_dim: int) -> Layer:
    if not isinstance(spec, dict) or not {"rows", "cols", "entries", "bias"} <= spec.keys():
        raise ParseError("malformed record")
    rows, cols = _dim(spec["rows"], "rows"), _dim(spec["cols"], "cols")
    if cols != in_dim:
        raise ParseError(
            f"dimension chain violated (cols {cols} != previous rows {in_dim})"
        )
    entries = _parse_records(spec["entries"], 3, "entries")
    entries = entries[entries[:, 2] != 0.0]
    bias = _parse_records(spec["bias"], 2, "bias")
    weights = SparseMatrix(
        (rows, cols),
        entries[:, 0].astype(np.int64),
        entries[:, 1].astype(np.int64),
        entries[:, 2],
    )
    return Layer(weights, SparseVector(rows, bias[:, 0].astype(np.int64), bias[:, 1]))


def deserialize(data: bytes) -> NeuralNetwork:
    """Decode a network; malformed input raises ParseError.

    A JSON syntax error carries its offset; a malformed layer is named.  NaN
    and infinite numbers, booleans, strings, non-integral or out-of-range
    indices and duplicate coordinates are rejected; explicit zero weights are
    dropped, as the constructors store none."""
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except UnicodeDecodeError as exc:
        raise ParseError("invalid UTF-8", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[: exc.pos].encode("utf-8"))  # exc.pos counts characters
        raise ParseError(f"invalid JSON: {exc.msg}", offset=offset) from exc
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:
        # an integer beyond the digit limit, or nesting beyond the stack
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "layers" not in doc or "input_dim" not in doc:
        raise ParseError("missing input_dim/layers")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise ParseError("network must have a non-empty list of layers")
    in_dim = doc["input_dim"]
    layers = []
    for k, spec in enumerate(doc["layers"]):
        try:
            if k == 0:
                _dim(in_dim, "input_dim")
            layers.append(_parse_layer(spec, in_dim))
        except NetworkError as exc:
            raise ParseError(f"layer {k + 1}: {exc}") from exc
        in_dim = layers[-1].out_dim
    return NeuralNetwork(tuple(layers))


def identical(a: NeuralNetwork, b: NeuralNetwork) -> bool:
    """True when a and b store the same arrays in the same order, which is
    when serialize writes the same bytes for both: the input dimension, the
    layer shapes, the weight coordinates and bias indices, and the bit
    patterns of the weights and biases (0.0 and -0.0 differ)."""

    def stored(layer: Layer):
        w, b = layer.weights, layer.bias
        return (w.rows, w.cols, w.vals.view(np.int64), b.idx, b.vals.view(np.int64))

    return (
        a.input_dim == b.input_dim
        and len(a.layers) == len(b.layers)
        and all(
            la.weights.shape == lb.weights.shape
            and all(map(np.array_equal, stored(la), stored(lb)))
            for la, lb in zip(a.layers, b.layers)
        )
    )


def stored_as(stream: BinaryIO, net: NeuralNetwork | StridedNetwork) -> bool:
    """True when stream, a binary reader of a serialized network, holds a
    network identical to net, or to the expansion of a StridedNetwork (see
    identical); malformed data raises ParseError.

    When every weight of net is finite and nonzero, reading the bytes
    serialize writes for net gives net back, so a stream equal to them is
    accepted without parsing.  The stream is read against the pieces of
    encode(net) as they are produced, so neither the file nor the encoding
    is held whole.  At the first difference the stream is parsed: the
    matched pieces are encoded again and the differing bytes and the rest of
    the stream follow, so the stream is read once, without a seek, and may
    be a pipe; only then is a StridedNetwork expanded.  Any stream is parsed
    when net stores a zero weight, which reading drops."""
    exact = all(
        np.isfinite(weights).all() and np.isfinite(bias).all() and (weights != 0.0).all()
        for weights, bias in (layer.values() for layer in net.layers)
    )
    matched, chunk = 0, b""
    if exact:
        for piece in encode(net):
            chunk = stream.read(len(piece))
            if chunk != piece:
                break
            matched += 1
        else:
            chunk = stream.read(1)
            if not chunk:
                return True
    prefix = b"".join(islice(encode(net), matched)) if matched else b""
    parsed = deserialize(prefix + chunk + stream.read())
    return identical(parsed, net.expand() if isinstance(net, StridedNetwork) else net)
