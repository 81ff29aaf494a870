"""Sparse feedforward ReQU networks and their structural operations.

A network is a sequence of affine layers (A_j, b_j); evaluation alternates
the affine maps with the elementwise rectified-quadratic activation on all
but the last layer.  Matrices are stored in coordinate-list form and the
stored-entry count is the exact l0 weight count: constructors never store
explicit zeros, and no epsilon thresholding is applied anywhere.
"""

from __future__ import annotations

import bisect
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Sequence

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
    """Immutable COO matrix; duplicate coordinates are rejected."""

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
            order = np.lexsort((cols, rows))
            r, c = rows[order], cols[order]
            if ((r[1:] == r[:-1]) & (c[1:] == c[:-1])).any():
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


def _hstack(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    nrows = blocks[0].shape[0]
    if any(b.shape[0] != nrows for b in blocks):
        raise NetworkError("hstack requires equal row counts")
    offs = np.cumsum([0] + [b.shape[1] for b in blocks])
    rows = np.concatenate([b.rows for b in blocks])
    cols = np.concatenate([b.cols + o for b, o in zip(blocks, offs)])
    vals = np.concatenate([b.vals for b in blocks])
    return SparseMatrix((nrows, int(offs[-1])), rows, cols, vals)


def _vstack(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    ncols = blocks[0].shape[1]
    if any(b.shape[1] != ncols for b in blocks):
        raise NetworkError("vstack requires equal column counts")
    offs = np.cumsum([0] + [b.shape[0] for b in blocks])
    rows = np.concatenate([b.rows + o for b, o in zip(blocks, offs)])
    cols = np.concatenate([b.cols for b in blocks])
    vals = np.concatenate([b.vals for b in blocks])
    return SparseMatrix((int(offs[-1]), ncols), rows, cols, vals)


def _block_diag(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    shape = (a.shape[0] + b.shape[0], a.shape[1] + b.shape[1])
    rows = np.concatenate([a.rows, b.rows + a.shape[0]])
    cols = np.concatenate([a.cols, b.cols + a.shape[1]])
    vals = np.concatenate([a.vals, b.vals])
    return SparseMatrix(shape, rows, cols, vals)


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


@dataclass(frozen=True)
class NeuralNetwork:
    """Architecture: sequence of affine layers; depth L means L affine maps
    with L-1 activations between them."""

    layers: tuple[Layer, ...]

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

    @classmethod
    def from_dense(cls, mats_and_biases) -> "NeuralNetwork":
        layers = [
            Layer(SparseMatrix.from_dense(a), SparseVector.from_dense(b))
            for a, b in mats_and_biases
        ]
        return cls(tuple(layers))

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def depth(self) -> int:
        return len(self.layers)

    def weight_count(self) -> int:
        return sum(l.weights.nnz + l.bias.nnz for l in self.layers)

    def max_norm(self) -> float:
        return max(max(l.weights.max_abs(), l.bias.max_abs()) for l in self.layers)


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
    """Depth-growth and coefficient-growth functions.

    Parametric form: c(n) = max(1, ceil(scale * n**theta_c * log(2n)**kappa_c)),
    ell(n) = depth_cap (an integer >= 5, or inf for unbounded depth).
    Tabulated form: explicit non-decreasing maps given as sorted (n, value)
    breakpoints; the value at n is the one at the largest breakpoint <= n.
    """

    kind: str = "parametric"
    theta_c: float = 0.0
    kappa_c: float = 0.0
    scale: float = 1.0
    depth_cap: float = 5
    ell_table: tuple[tuple[int, float], ...] = ()
    c_table: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind == "parametric":
            if not all(map(math.isfinite, (self.theta_c, self.kappa_c, self.scale))):
                raise ValueError("theta_c, kappa_c and scale must be finite")
            if self.theta_c < 0:
                raise ValueError("theta_c must be >= 0")
            if self.scale < 1:
                raise ValueError("scale must be >= 1")
            if self.depth_cap != INF and (self.depth_cap < 5 or self.depth_cap != int(self.depth_cap)):
                raise ValueError("depth_cap must be an integer >= 5 or inf")
        elif self.kind == "tabulated":
            for table, name in ((self.ell_table, "ell"), (self.c_table, "c")):
                if not table:
                    raise ValueError(f"tabulated policy needs a {name}_table")
                ns = [n for n, _ in table]
                vs = [v for _, v in table]
                if ns != sorted(ns) or ns[0] != 1:
                    raise ValueError(f"{name}_table must start at n=1 and be sorted")
                if any(b < a for a, b in zip(vs, vs[1:])):
                    raise ValueError(f"{name}_table must be non-decreasing")
        else:
            raise ValueError(f"unknown policy kind {self.kind!r}")

    @staticmethod
    def _lookup(table, n):
        pos = bisect.bisect_right([bp for bp, _ in table], n)
        return table[max(pos - 1, 0)][1]

    def ell(self, n: int) -> float:
        """Depth limit at weight budget n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "parametric":
            return self.depth_cap
        return self._lookup(self.ell_table, n)

    def c(self, n) -> float:
        """Coefficient magnitude limit at weight budget n (vectorized)."""
        if self.kind == "parametric":
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
        if np.isscalar(n):
            return self._lookup(self.c_table, n)
        return np.array([self._lookup(self.c_table, int(v)) for v in np.asarray(n)])

    @property
    def ell_star(self) -> float:
        if self.kind == "parametric":
            return self.depth_cap
        return self.ell_table[-1][1]

    @property
    def c_star(self) -> float:
        if self.kind == "parametric":
            if self.theta_c > 0 or self.kappa_c > 0:
                return INF
            if self.kappa_c < 0:
                return self.c(1)
            return float(max(1.0, np.ceil(self.scale)))
        return self.c_table[-1][1]


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

    @property
    def depth_limit(self) -> float:
        return self.policy.ell(self.n)

    @property
    def norm_limit(self) -> float:
        return self.policy.c(self.n)


def check_membership(net: NeuralNetwork, budget: SigmaBudget):
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
    if net.depth() > budget.depth_limit:
        violations.append(f"depth {net.depth()} > ell(n) {budget.depth_limit}")
    if net.max_norm() > budget.norm_limit:
        violations.append(f"max_norm {net.max_norm()} > c(n) {budget.norm_limit}")
    return (not violations, violations)


# ---------------------------------------------------------------------------
# structural operations (depth equalization, summation, dead-layer removal)
# ---------------------------------------------------------------------------

def _monitor_boundedness(net, domain, op, samples=64, seed=0):
    """Probabilistic check that |realization| <= 1 on a sample of the box."""
    lo, hi = (np.asarray(a, dtype=np.float64) for a in domain)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, net.input_dim))
    vals = realize(net, pts)
    worst = float(np.abs(vals).max())
    if worst > 1.0 + 1e-12:
        warnings.warn(
            f"{op}: sampled |output| reaches {worst:.3g} > 1; the identity "
            "gadgets are only exact for outputs in [-1, 1]",
            RuntimeWarning,
        )


# identity-passthrough gadget pair: maps (f+1, 1-f) through one activation
_GAMMA = Layer(
    SparseMatrix.from_dense([[0.25, -0.25], [-0.25, 0.25]]),
    SparseVector.from_dense([1.0, 1.0]),
)
_LAMBDA = Layer(
    SparseMatrix.from_dense([[0.25, -0.25]]),
    SparseVector.from_dense([0.0]),
)


def depth_extend(net: NeuralNetwork, target_depth: int, *, check_domain=None) -> NeuralNetwork:
    """Pad a scalar-output network to an exact depth.

    The realization is unchanged on every input whose original output lies in
    [-1, 1] (caller-asserted; pass ``check_domain=(lo, hi)`` for a sampled
    runtime check).  The encoding routes the pair (f+1, 1-f) through identity
    gadgets and decodes at the end, so the weight count at most doubles plus
    6 per inserted gadget layer."""
    if net.output_dim != 1:
        raise NetworkError("depth_extend requires output_dim == 1")
    k = net.depth()
    if target_depth < k:
        raise NetworkError(f"target_depth {target_depth} < current depth {k}")
    if target_depth == k:
        return net
    if check_domain is not None:
        _monitor_boundedness(net, check_domain, "depth_extend")

    if k == 1:
        # single affine layer: emit (f+1, 1-f) directly
        (lay,) = net.layers
        a, b = lay.weights, lay.bias.to_dense()
        enc_w = _vstack([a, SparseMatrix((1, a.shape[1]), -a.rows, a.cols, -a.vals)])
        enc_b = SparseVector.from_dense(np.concatenate([b + 1.0, 1.0 - b]))
        head = [Layer(enc_w, enc_b)]
        n_gadgets = target_depth - 2
    else:
        head = list(net.layers[: k - 2])
        # widen layer k-1 with a constant-one channel
        pen = net.layers[k - 2]
        wide_w = _vstack([pen.weights, SparseMatrix((1, pen.in_dim), [], [], [])])
        wide_b = SparseVector.from_dense(np.append(pen.bias.to_dense(), 1.0))
        head.append(Layer(wide_w, wide_b))
        # final original layer, duplicated with signs, consuming the 1-channel
        last = net.layers[k - 1]
        a, b = last.weights, float(last.bias.to_dense()[0])
        neg = SparseMatrix((1, a.shape[1]), a.rows, a.cols, -a.vals)
        ones = SparseMatrix.from_dense([[1.0]])
        enc_w = _vstack([_hstack([a, ones]), _hstack([neg, ones])])
        enc_b = SparseVector.from_dense([b, -b])
        head.append(Layer(enc_w, enc_b))
        n_gadgets = target_depth - k - 1

    layers = head + [_GAMMA] * n_gadgets + [_LAMBDA]
    return NeuralNetwork(tuple(layers))


def sum_networks(net1: NeuralNetwork, net2: NeuralNetwork, *, check_domain=None) -> NeuralNetwork:
    """Parallelize two scalar-output networks into one realizing their sum.

    Both realizations must be bounded in [-1, 1] on the intended domain
    (needed only when the depths differ, for the equalization gadgets).
    The result has depth max(L1, L2) and at most 9 * max(W1, W2) weights
    for non-degenerate depths."""
    if net1.input_dim != net2.input_dim:
        raise NetworkError(
            f"input dims differ: {net1.input_dim} != {net2.input_dim}"
        )
    if net1.output_dim != 1 or net2.output_dim != 1:
        raise NetworkError("sum_networks requires scalar outputs")
    if net1.depth() > net2.depth():
        net1, net2 = net2, net1
    if net1.depth() < net2.depth():
        net1 = depth_extend(net1, net2.depth(), check_domain=check_domain)
    ell = net1.depth()

    if ell == 1:
        a = _merge_rows(net1.layers[0].weights, net2.layers[0].weights)
        b = SparseVector.from_dense(
            net1.layers[0].bias.to_dense() + net2.layers[0].bias.to_dense()
        )
        return NeuralNetwork((Layer(a, b),))

    first = Layer(
        _vstack([net1.layers[0].weights, net2.layers[0].weights]),
        SparseVector.from_dense(
            np.concatenate(
                [net1.layers[0].bias.to_dense(), net2.layers[0].bias.to_dense()]
            )
        ),
    )
    mids = [
        Layer(
            _block_diag(l1.weights, l2.weights),
            SparseVector.from_dense(
                np.concatenate([l1.bias.to_dense(), l2.bias.to_dense()])
            ),
        )
        for l1, l2 in zip(net1.layers[1:-1], net2.layers[1:-1])
    ]
    l1, l2 = net1.layers[-1], net2.layers[-1]
    last = Layer(
        _hstack([l1.weights, l2.weights]),
        SparseVector.from_dense(l1.bias.to_dense() + l2.bias.to_dense()),
    )
    return NeuralNetwork(tuple([first] + mids + [last]))


def _merge_rows(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    dense = a.to_dense() + b.to_dense()
    return SparseMatrix.from_dense(dense)


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


def _records(columns: Sequence[np.ndarray], vals: np.ndarray) -> Iterator[bytes]:
    """Yield, a block of _RECORDS_PER_BLOCK records at a time, the bytes
    json.dumps writes for the list of records zip(*columns, vals):
    non-negative integer columns, finite float values.

    A block is a NUL-padded uint8 matrix, a record per row, laid out as '['
    fields joined by ', ' ']'.  Index digits are written column by column,
    leading zeros left NUL.  A value's text is repr of its float (what
    json.dumps writes), taken from a table with a row per distinct bit
    pattern, so 0.0 and -0.0 keep their own text; a block finds its rows by
    binary search in the sorted patterns.  Dropping the NULs gives the
    records."""
    if not vals.size:
        yield b"[]"
        return
    bits = np.unique(vals.view(np.int64))
    texts = np.array([repr(v).encode() for v in bits.view(np.float64).tolist()])
    table = texts.view(np.uint8).reshape(bits.size, -1)
    yield b"["
    for s in range(0, vals.size, _RECORDS_PER_BLOCK):
        ints = [c[s : s + _RECORDS_PER_BLOCK] for c in columns]
        widths = [len(str(c.max())) for c in ints] + [table.shape[1]]
        layout = b"[" + b", ".join(b"\0" * w for w in widths) + b"], "
        block = np.tile(np.frombuffer(layout, np.uint8), (len(ints[0]), 1))
        start = 1
        for q, w in zip(ints, widths):
            for k in range(start + w - 1, start - 1, -1):
                q, r = np.divmod(q, 10)
                # a digit is a leading zero when it and all above it are 0
                block[:, k] = np.where((q + r > 0) | (k == start + w - 1), r + 48, 0)
            start += w + 2
        found = np.searchsorted(bits, vals[s : s + _RECORDS_PER_BLOCK].view(np.int64))
        block[:, start : start + widths[-1]] = table[found]
        if s + _RECORDS_PER_BLOCK >= vals.size:
            block[-1, -2:] = 0  # the last record's ', '
        flat = block.ravel()
        yield flat[flat != 0].tobytes()
    yield b"]"


def encode(net: NeuralNetwork) -> Iterator[bytes]:
    """The bytes of serialize(net) as a generator of pieces, most of them
    blocks of _RECORDS_PER_BLOCK records, so that a caller can write or
    compare the encoding without holding all of it.

    Every layer is checked first: a NaN or infinite weight or bias raises
    NetworkError here, before any piece is produced."""
    for k, layer in enumerate(net.layers):
        if not (np.isfinite(layer.weights.vals).all() and np.isfinite(layer.bias.vals).all()):
            raise NetworkError(f"layer {k + 1}: a weight or bias is not finite")
    return _pieces(net)


def _pieces(net: NeuralNetwork) -> Iterator[bytes]:
    yield f'{{"input_dim": {net.input_dim}, "layers": ['.encode()
    for k, layer in enumerate(net.layers):
        w, b = layer.weights, layer.bias
        sep = ", " if k else ""
        yield f'{sep}{{"rows": {layer.out_dim}, "cols": {layer.in_dim}, "entries": '.encode()
        yield from _records((w.rows, w.cols), w.vals)
        yield b', "bias": '
        yield from _records((b.idx,), b.vals)
        yield b"}"
    yield b"]}"


def serialize(net: NeuralNetwork) -> bytes:
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


def stored_as(data: bytes, net: NeuralNetwork) -> bool:
    """True when data, the bytes of a serialized network, holds a network
    identical to net (see identical); malformed data raises ParseError.

    When every weight of net is finite and nonzero, reading the bytes
    serialize writes for net gives net back, so data equal to them is
    accepted without parsing.  data is compared with the pieces of encode(net)
    as they are produced, so the whole encoding is never held; the comparison
    stops at the first piece that differs.  Any other data is parsed and
    compared, and so is any data when net stores a zero weight, which reading
    drops."""
    exact = all(
        np.isfinite(layer.weights.vals).all()
        and np.isfinite(layer.bias.vals).all()
        and (layer.weights.vals != 0.0).all()
        for layer in net.layers
    )
    if exact:
        at = 0
        for piece in encode(net):
            if not data.startswith(piece, at):
                break
            at += len(piece)
        else:
            if at == len(data):
                return True
    return identical(deserialize(data), net)
