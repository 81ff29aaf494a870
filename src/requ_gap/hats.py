"""Closed-form bump functions and the explicit ReQU networks realizing them.

The one-dimensional building block is the indicator-like function
lambda^p_{M,y} (a hat for p=1, a C^1 bump for p=2).  Composing the sum of
coordinatewise bumps with a Heaviside-like ramp theta yields the
multidimensional bump vartheta_{M,y} with support y + (-1/M, 1/M)^d.  The
builder in this module emits the explicit five-or-more-layer sparse ReQU
architecture whose realization is

    amplitude * vartheta_{M,y},    amplitude = C**(2**L - 1) * n**((2**L - 1)/2) / (4 M**8),

together with a numerically stable evaluator and a weight-budget inventory.
The unit-ball scaling machinery turns vartheta into a function certified to
lie in the unit ball of the (alpha, infinity) approximation space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .network import (
    _LAMBDA,
    GrowthPolicy,
    Layer,
    NeuralNetwork,
    Run,
    SigmaBudget,
    SparseMatrix,
    SparseVector,
    StridedLayer,
    StridedNetwork,
    check_membership,
)
from .rates import _growth_scan

# minimum of the bump on the inner plateau cube y + [-1/(2dM), 1/(2dM)]^d
THETA_PLATEAU = (2.0 / 81.0) * (9.0 - 4.0 * math.sqrt(3.0)) ** 2

# the slope extremum of the 1-d bump lambda^2 is 8M/(3 sqrt 3), attained at
# y +- 1/(sqrt(3) M)
LAMBDA2_LIP_FACTOR = 8.0 / (3.0 * math.sqrt(3.0))

_MAX_MIDDLE_ROWS = 4_000_000

# points verify_hat draws and evaluates at a time
_POINTS_PER_CHUNK = 1 << 14

# bits of the exact gain, at most; forming 2**24 takes about a second, and
# each step of L doubles the bits
_MAX_GAIN_BITS = 1 << 24


@dataclass(frozen=True)
class BumpSpec:
    """Parameters (d, M, y, p) of a bump of width 2/M centered at y."""

    d: int
    M: float
    y: tuple[float, ...]
    p: int = 2

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if not math.isfinite(self.M):
            raise ValueError("width parameter M must be finite")
        if self.M <= 0:
            raise ValueError("width parameter M must be > 0")
        if self.p < 1:
            raise ValueError("power p must be a positive integer")
        y = tuple(float(v) for v in np.atleast_1d(np.asarray(self.y, dtype=np.float64)))
        if len(y) != self.d:
            raise ValueError(f"center has {len(y)} components, expected d={self.d}")
        if not all(map(math.isfinite, y)):
            raise ValueError("center y must be finite")
        object.__setattr__(self, "y", y)


def _lambda_1d(M, y, p, x):
    """lambda^p_{M,y} on the line, vectorized; zero outside |x-y| >= 1/M."""
    t = M * (np.asarray(x, dtype=np.float64) - y)
    inside = np.abs(t) < 1.0
    # on the support: (1 - (|t| directed)^p)^p with the sign folded so the
    # argument of the inner power is nonnegative on each half
    base = np.where(t >= 0, t, -t)
    vals = (1.0 - base**p) ** p
    return np.where(inside, vals, 0.0)


def lambda_p(spec: BumpSpec, x):
    """One-dimensional indicator-like function; requires spec.d == 1."""
    if spec.d != 1:
        raise ValueError("lambda_p is the one-dimensional profile; use vartheta for d > 1")
    return _lambda_1d(spec.M, spec.y[0], spec.p, x)


def theta_step(x):
    """Heaviside-like C^1 ramp: 0 for x <= 0, 1 for x >= 1, monotone between."""
    x = np.asarray(x, dtype=np.float64)
    r = np.maximum(0.0, x)
    r_half = np.maximum(0.0, x - 0.5)
    r_one = np.maximum(0.0, x - 1.0)
    return 2.0 * (r * r - 2.0 * r_half * r_half + r_one * r_one)


def _delta(spec: BumpSpec, pts: np.ndarray) -> np.ndarray:
    lam = np.empty_like(pts)
    for j in range(spec.d):
        lam[:, j] = _lambda_1d(spec.M, spec.y[j], 2, pts[:, j])
    return lam.sum(axis=1) - (spec.d - 1)


def vartheta(spec: BumpSpec, x):
    """Multidimensional bump theta(sum_j lambda^2(x_j) - (d-1)).

    Exactly zero outside y + (-1/M, 1/M)^d, equals 1 at x = y, and is at
    least THETA_PLATEAU on the inner cube y + [-1/(2dM), 1/(2dM)]^d."""
    if spec.p != 2:
        raise ValueError("vartheta is defined for p=2 bumps")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != spec.d:
        raise ValueError(f"points have {pts.shape[1]} coordinates, expected {spec.d}")
    out = theta_step(_delta(spec, pts))
    return float(out[0]) if single else out


def lambda_network(M: float, y: float) -> NeuralNetwork:
    """Three-layer ReQU network realizing x -> M**-4 * lambda^2_{M,y}(x)."""
    if not 1 <= M < 2.0**256:  # M**4 finite; also rejects NaN
        raise ValueError("lambda_network requires 1 <= M < 2**256 (M**4 finite)")
    l1 = Layer(
        SparseMatrix.from_dense([[1.0], [-1.0]]),
        SparseVector.from_dense([-y, y]),
    )
    l2 = Layer(
        SparseMatrix.from_dense([[-1.0, -1.0]]),
        SparseVector.from_dense([1.0 / M**2]),
    )
    l3 = Layer(SparseMatrix.from_dense([[1.0]]), SparseVector.from_dense([0.0]))
    return NeuralNetwork((l1, l2, l3))


# ---------------------------------------------------------------------------
# explicit hat architecture
# ---------------------------------------------------------------------------

def _weight_budget(n: int, d: int, L: int) -> int:
    """The weight budget t = 16 n**8 d + 7L of the hat for (n, d, L)."""
    return 16 * n**8 * d + 7 * L


@dataclass(frozen=True)
class HatBuildParams:
    """Inputs of the explicit hat construction, checked on creation.

    n is the weight-budget driver, L >= 5 the exact depth, at most the
    policy's depth_cap, and C >= 1 the amplitude base with C**8 <= c(n)."""

    n: int
    L: int
    C: float
    spec: BumpSpec
    policy: GrowthPolicy

    def __post_init__(self):
        # C**8 finite; also rejects NaN and inf
        if not self.C < 2.0**128:
            raise ValueError("amplitude base C must be < 2**128 (C**8 finite)")
        # the amplitude divides by M**8 and the layers by M**2 and M**4
        if not self.spec.M < 2.0**128:
            raise ValueError("width parameter M must be < 2**128 (M**8 finite)")
        if self.n < 1:
            raise ValueError("precondition violated: n >= 1")
        if self.L < 5:
            raise ValueError("precondition violated: L >= 5")
        cap = self.policy.depth_cap
        if self.L > cap:
            raise ValueError(
                f"precondition violated: L <= ell(n) (L={self.L}, ell({self.n})={cap})"
            )
        if self.spec.M < 1:
            raise ValueError("precondition violated: M >= 1")
        if self.C < 1:
            raise ValueError("precondition violated: C >= 1")
        c = self.policy.c(self.n)
        if self.C**8 > c:
            raise ValueError(
                f"precondition violated: C**8 <= c(n) (C**8={self.C ** 8}, c({self.n})={c})"
            )
        if self.spec.p != 2:
            raise ValueError("precondition violated: network builder requires p == 2")
        if any(v < 0.0 or v > 1.0 for v in self.spec.y):
            raise ValueError("precondition violated: y in [0,1]^d")


@dataclass(frozen=True)
class BuiltHat:
    """A built hat network plus its stable evaluator and closed form.

    ``realize`` evaluates the network's mathematical realization to near
    machine precision relative to the amplitude.  A direct float64 forward
    pass through ``network`` loses the output to cancellation once the
    internal scale constant C**(2**L-1) n**((2**L-1)/2) is large, because the
    final stage subtracts two squares of that size; the evaluator instead
    uses the algebraically equivalent factored form of the same stored
    weights (the activations in the tail provably never clip)."""

    params: HatBuildParams
    log2_amplitude: float

    @cached_property
    def amplitude(self) -> float:
        # C**(2**L-1) * n**((2**L-1)/2) / (4 M**8); may overflow to inf
        return float(np.exp2(self.log2_amplitude)) if self.log2_amplitude < 1024 else math.inf

    @cached_property
    def _constants(self):
        p = self.params
        d, M = p.spec.d, p.spec.M
        n8 = p.n**8
        inv = 1.0 / n8
        if n8 > 2**53:
            warnings.warn(
                "n**8 exceeds 2**53; the 1/n**8 layer entries are rounded doubles",
                RuntimeWarning,
            )
        zeta = math.sqrt((d - 1) / d)
        b21 = 1.0 / M**2
        b22 = zeta / M**2
        b23 = p.C**8 / math.sqrt(d)
        b33 = -1.0 / M**4
        b32 = b33 / 2.0
        h = 1.0 / (p.C * math.sqrt(p.n))
        return dict(d=d, M=M, n8=n8, inv=inv, b21=b21, b22=b22, b23=b23,
                    b32=b32, b33=b33, h=h)

    @cached_property
    def gain(self) -> Fraction:
        """Exact point-independent factor h * v4**(2**(L-5)) multiplying the
        bump channel.

        Computed in rational arithmetic over the stored double weights, so it
        is the exact constant the stored network applies.  Its size is read
        from the exact base v4, and ValueError is raised for a gain of
        2**1020 or more, where the output and the differences taken of it
        overflow double precision.  Two checks come before the power is
        formed: a log2 of 1100 or more, taken in floats, and an exact power
        of more than _MAX_GAIN_BITS bits (a gain near 1 at d >= 2, whose
        base has hundreds of bits)."""
        c = self._constants
        p = self.params
        u3 = Fraction(c["b23"]) ** 2
        s4 = p.n**8 * c["d"] * u3
        v4 = s4 * s4
        log2_gain = math.log2(c["h"]) + 2.0 ** (p.L - 5) * (
            math.log2(v4.numerator) - math.log2(v4.denominator)
        )
        if log2_gain < 1100:
            # bit_length - 1 is floor(log2), so a base of 1 costs nothing
            bits = (v4.numerator.bit_length() + v4.denominator.bit_length() - 2) << (p.L - 5)
            if bits > _MAX_GAIN_BITS:
                raise ValueError(
                    f"the exact gain at L={p.L} would have 2**{math.log2(bits):.1f} bits"
                )
            g = Fraction(c["h"]) * v4 ** (2 ** (p.L - 5))
            if g.numerator.bit_length() - g.denominator.bit_length() < 1020:
                return g
            log2_gain = math.log2(g.numerator) - math.log2(g.denominator)
        text = f"{log2_gain:.1f}" if log2_gain < 1e6 else f"{log2_gain:.3g}"
        raise ValueError(f"the network's gain 2**{text} is too large for double precision")

    @cached_property
    def strided(self) -> StridedNetwork:
        """The stored network with its two wide layers as strided runs:
        build-hat and verify-hat write, compare and budget-check this."""
        return self._describe()

    @cached_property
    def network(self) -> NeuralNetwork:
        """The stored network, expanded: the arrays serialize writes."""
        return self.strided.expand()

    def _describe(self) -> StridedNetwork:
        p = self.params
        c = self._constants
        d, n, n8 = c["d"], p.n, c["n8"]
        if 3 * n8 * d > _MAX_MIDDLE_ROWS:
            raise ValueError(
                f"middle layer would have {3 * n8 * d} rows; "
                "materialization is limited to desk-scale n"
            )
        y = np.asarray(p.spec.y)

        # layer 1: per coordinate j, n copies of the pair (x_j - y_j, y_j - x_j)
        r = np.arange(2 * n * d)
        sign = np.where(r % 2 == 0, 1.0, -1.0)
        a1 = SparseMatrix((2 * n * d, d), r, r // (2 * n), sign)
        b1 = SparseVector.from_dense(-sign * y[r // (2 * n)])

        # layer 2: per coordinate block j, n**8 row triples (bump, floor,
        # scale) at rows 3 (j n**8 + k) + (0, 1, 2); the bump row reads the
        # block's first pair, columns 2 n j and 2 n j + 1
        a2 = [Run([(0, 0), (0, 1)], [-1.0, -1.0], n8, d, (3, 0), (3 * n8, 2 * n))]
        b2 = [Run([(0,), (1,), (2,)], [c["b21"], c["b22"], c["b23"]], n8, d, (3,), (3 * n8,))]

        # layer 3: three shifted copies of the averaged bump sum (+inv on the
        # bump rows 0, 3, 6, ..., -inv on the floor rows) + the scale row
        inv = c["inv"]
        a3 = [
            Run([(row, col)], [v], n8 * d, 1, (0, 3), (0, 0))
            for row, col, v in [(0, 0, inv), (0, 1, -inv), (1, 0, inv), (1, 1, -inv),
                                (2, 0, inv), (2, 1, -inv), (3, 2, 1.0)]
        ]
        b3 = [Run([(1,), (2,)], [c["b32"], c["b33"]], 1, 1, (0,), (0,))]

        layers = [
            Layer(a1, b1),
            StridedLayer((3 * n8 * d, 2 * n * d), a2, b2),
            StridedLayer((4, 3 * n8 * d), a3, b3),
        ]
        if p.L == 5:
            d1 = SparseMatrix.from_dense(
                [[0.5, -1.0, 0.5, c["h"]], [-0.5, 1.0, -0.5, c["h"]]]
            )
            layers.append(Layer(d1, SparseVector(2, [], [])))
        else:
            d2 = SparseMatrix.from_dense(
                [[0.5, -1.0, 0.5, 0.0], [-0.5, 1.0, -0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]
            )
            alpha = SparseVector.from_dense([1.0, 1.0, 0.0])
            layers.append(Layer(d2, alpha))
            a_mid = SparseMatrix.from_dense(
                [[0.25, -0.25, 0.0], [-0.25, 0.25, 0.0], [0.0, 0.0, 1.0]]
            )
            layers.extend(Layer(a_mid, alpha) for _ in range(p.L - 6))
            kmat = SparseMatrix.from_dense(
                [[0.25, -0.25, c["h"]], [-0.25, 0.25, c["h"]]]
            )
            layers.append(Layer(kmat, SparseVector(2, [], [])))
        # the last layer is the one depth_extend ends with
        layers.append(_LAMBDA)
        return StridedNetwork(tuple(layers))

    def bump_channel(self, x) -> np.ndarray:
        """The stable O(1)-scale channel v(x); realization = gain * v(x)."""
        c = self._constants
        p = self.params
        x = np.asarray(x, dtype=np.float64)
        pts = x[None, :] if x.ndim == 1 else x
        if pts.shape[1] != c["d"]:
            raise ValueError(f"points have {pts.shape[1]} coordinates, expected {c['d']}")
        eta = pts - np.asarray(p.spec.y)
        u1 = (
            np.maximum(
                0.0, c["b21"] - np.maximum(0.0, eta) ** 2 - np.maximum(0.0, -eta) ** 2
            )
            ** 2
        )
        u2 = c["b22"] ** 2
        q = c["inv"] * c["n8"]
        s1 = q * (u1.sum(axis=1) - c["d"] * u2)
        s2 = s1 + c["b32"]
        s3 = s1 + c["b33"]
        v = 0.5 * (
            np.maximum(0.0, s1) ** 2
            - 2.0 * np.maximum(0.0, s2) ** 2
            + np.maximum(0.0, s3) ** 2
        )
        return v[0] if x.ndim == 1 else v

    def realize(self, x):
        """Accurate realization of the stored network (gain * bump channel);
        raises ValueError where gain does."""
        return self.bump_channel(x) * float(self.gain)

    def closed_form(self, x):
        """amplitude * vartheta_{M,y}(x), the target of the construction."""
        return self.amplitude * vartheta(self.params.spec, x)

    def weight_budget(self) -> int:
        p = self.params
        return _weight_budget(p.n, p.spec.d, p.L)


def build_hat(params: HatBuildParams) -> BuiltHat:
    """The hat of checked parameters, with its log2 amplitude."""
    p = params
    log2_amp = (
        (2.0**p.L - 1.0) * math.log2(p.C)
        + (2.0**p.L - 1.0) / 2.0 * math.log2(p.n)
        - 2.0
        - 8.0 * math.log2(p.spec.M)
    )
    return BuiltHat(params=p, log2_amplitude=log2_amp)


def choose_amplitude_base(policy: GrowthPolicy, n: int, d: int, L: int) -> float:
    """Largest C whose hat lies in its budget class: the largest double whose
    float C**8 is at most min(c(n), c(t)) at the weight budget
    t = 16 n**8 d + 7L, always >= 1.  c(t) is the smaller where c falls
    (negative kappa_c); the eighth root can round up (at c = 3) and steps down."""
    c = float(min(policy.c(n), policy.c(_weight_budget(n, d, L))))
    C = c**0.125
    while C**8 > c:
        C = math.nextafter(C, 0.0)
    return C


def verify_hat(hat: BuiltHat, num_points: int = 10_000, seed: int = 0) -> dict:
    """Compare the built network against its closed form on random points,
    num_points of them drawn in chunks of _POINTS_PER_CHUNK.

    Relative error is measured against the amplitude (the closed form's sup),
    since both functions vanish identically outside the support cube.  The
    pass also needs the stored network to lie in the budget class
    (check_membership at the weight budget) at exactly depth L; its weight
    count, largest weight and depth are read from ``hat.strided``, without
    expanding the runs."""
    params = hat.params
    spec = params.spec
    rng = np.random.default_rng(seed)
    half = 1.5 / spec.M
    # the draws continue one stream, so the points are those of one draw
    worst = []
    for start in range(0, num_points, _POINTS_PER_CHUNK):
        size = min(_POINTS_PER_CHUNK, num_points - start)
        pts = np.asarray(spec.y) + rng.uniform(-half, half, size=(size, spec.d))
        worst.append(np.max(np.abs(hat.realize(pts) - hat.closed_form(pts))))
    max_abs = float(np.max(worst))
    max_rel = max_abs / hat.amplitude if hat.amplitude > 0 else math.inf
    net = hat.strided
    budget = hat.weight_budget()
    member, _ = check_membership(net, SigmaBudget(budget, params.policy, input_dim=spec.d))
    depth = net.depth()
    return {
        "params": {
            "n": params.n,
            "L": params.L,
            "C": params.C,
            "M": spec.M,
            "d": spec.d,
            "y": list(spec.y),
        },
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
        "weight_count": net.weight_count(),
        "budget": budget,
        "depth": depth,
        "max_norm": net.max_norm(),
        "pass": bool(max_rel <= 1e-9 and member and depth == params.L),
    }


# ---------------------------------------------------------------------------
# unit-ball scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitBallCertificate:
    """Witnesses that kappa * M**(-64a/(8a+g)) * vartheta lies in the unit ball.

    kappa = min{ ((16d + 7L) (2 n0)**8)**(-alpha), 1/C1 } where n0 is the
    least budget whose depth allowance reaches L, which is 1 since the
    allowance is depth_cap >= L at every n, and C1 bounds
    n**gamma / (c(n)**(2**L-1) n**((2**L-1)/2)) over all n."""

    alpha: float
    gamma: float
    kappa: float
    n0: int
    n: int
    L: int
    C1: float
    d: int
    M: float


@dataclass(frozen=True)
class ScaledBump:
    """Closed-form handle for amplitude * vartheta_{M,y}."""

    spec: BumpSpec
    amplitude: float

    def __call__(self, x):
        return self.amplitude * vartheta(self.spec, x)


def _pick_depth(policy: GrowthPolicy, gamma: float) -> int:
    """Smallest usable depth L in [5, depth_cap] making the C1 supremum finite."""
    per = policy.theta_c + 0.5
    L = 5
    while gamma >= (2.0**L - 1.0) * per:
        L += 1
        if L > 60:
            raise ValueError("gamma out of range: no finite depth works")
    if L > policy.depth_cap:
        raise ValueError("gamma >= gamma_flat for this policy")
    return L


def _log2_ratio_tail(policy: GrowthPolicy, L: int, gamma: float, log2_n0: float) -> float:
    """An upper bound on log2 of n**gamma / (c(n)**e n**(e/2)), e = 2**L - 1,
    over n >= 2**log2_n0, where the scan of _growth_scan ends.

    From c(n) >= scale n**theta ln(2n)**kappa the log2 is at most
    -A log2 n + B log2 ln(2n) - e log2 scale, with A = e (theta + 1/2) - gamma,
    which _pick_depth made positive, and B = -e kappa.  In u = ln n that is
    concave for B > 0, with its maximum at u = B/A - ln 2, and decreasing
    for B <= 0; so the bound is taken at the larger of that u and the scan's
    end.  A bound past the float range (NaN from inf - inf) is inf.  From
    c(n) >= 1 the log2 is at most (gamma - e/2) log2 n, which for
    gamma <= e/2 is largest at the scan's end; the smaller bound is taken."""
    e = 2.0**L - 1.0
    a = e * (policy.theta_c + 0.5) - gamma
    b = -e * policy.kappa_c
    ln2 = math.log(2.0)
    u = max(log2_n0 * ln2, b / a - ln2)
    tail = (b * math.log(ln2 + u) - a * u) / ln2 - e * math.log2(policy.scale)
    if math.isnan(tail):
        tail = math.inf
    if gamma <= e / 2.0:
        tail = min(tail, (gamma - e / 2.0) * log2_n0)
    return tail


def _log2_ratio_gaps(policy: GrowthPolicy, L: int, gamma: float, log2_n: np.ndarray) -> float:
    """An upper bound on log2 of n**gamma / (c(n)**e n**(e/2)), e = 2**L - 1,
    over the integers inside the gaps (a, b) of the scan of _growth_scan.

    There n**(gamma - e/2) is at most its value at a or at b, and c(n) is at
    least max(1, ceil(scale a**theta ln(2m)**kappa)), m = b for kappa < 0
    and a otherwise, since n**theta never decreases and ln(2n)**kappa is
    monotone.  inf * 0 (NaN) in that product gives the bound c >= 1."""
    n = np.exp2(log2_n).round()
    gap = np.diff(n) > 1
    a, b = n[:-1][gap], n[1:][gap]
    e = 2.0**L - 1.0
    m = b if policy.kappa_c < 0 else a
    with np.errstate(over="ignore", invalid="ignore"):
        raw = policy.scale * a**policy.theta_c * np.log(2.0 * m) ** policy.kappa_c
    power = (gamma - e / 2.0) * np.log2(b if gamma > e / 2.0 else a)
    return float(np.max(power - e * np.log2(np.fmax(1.0, np.ceil(raw))), initial=-math.inf))


def scaled_unit_ball_bump(
    alpha: float,
    gamma: float,
    M: float,
    y,
    policy: GrowthPolicy,
):
    """Scale vartheta_{M,y} into the unit ball of the approximation space.

    Returns (ScaledBump, UnitBallCertificate); the amplitude is
    kappa * M**(-64 alpha / (8 alpha + gamma))."""
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise ValueError("alpha and gamma must be finite")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if M < 1:
        raise ValueError("M must be >= 1")
    y = tuple(np.atleast_1d(np.asarray(y, dtype=np.float64)))
    d = len(y)
    L = _pick_depth(policy, gamma)
    n0 = 1  # depth_cap >= L at every n
    # log2 of C1 = sup_n n**gamma / (c(n)**(2**L-1) n**((2**L-1)/2))
    log2_n, growth_c, growth_n = _growth_scan(policy, L)
    log_ratio = gamma * log2_n - growth_c - growth_n
    log2_c1 = max(
        float(log_ratio.max()),
        _log2_ratio_gaps(policy, L, gamma, log2_n),
        _log2_ratio_tail(policy, L, gamma, float(log2_n[-1])),
    )
    c1 = float(np.exp2(log2_c1)) if log2_c1 < 1024 else math.inf
    # the first term is at most 1, so clamping the exponent at 0 (no
    # overflow) leaves the minimum as it is
    kappa = min(
        ((16 * d + 7 * L) * (2 * n0) ** 8) ** (-alpha), float(np.exp2(-max(log2_c1, 0.0)))
    )
    n = n0 * math.ceil(M ** (8.0 / (8.0 * alpha + gamma)))
    amplitude = kappa * M ** (-64.0 * alpha / (8.0 * alpha + gamma))
    if not 0.0 < amplitude <= 1.0:
        raise ValueError(f"amplitude {amplitude} outside (0, 1]")
    spec = BumpSpec(d=d, M=float(M), y=y, p=2)
    cert = UnitBallCertificate(
        alpha=alpha, gamma=gamma, kappa=kappa, n0=n0, n=n, L=L, C1=c1, d=d, M=float(M)
    )
    return ScaledBump(spec=spec, amplitude=amplitude), cert


def verify_unit_ball_certificate(
    g: ScaledBump,
    cert: UnitBallCertificate,
    policy: GrowthPolicy,
    t_max: int,
) -> dict:
    """Re-check the two branches of the unit-ball argument.

    Branch 1 (t below the construction's weight budget): t**alpha * sup|g|
    must stay <= 1; it rises with t, so the largest such t is the one
    checked.  Branch 2 (t at/above the budget): the hat at the certificate's
    n passes verify_hat and its amplitude is at least g's.  Scaling its last
    layer by g.amplitude / hat.amplitude <= 1 then realizes g within the
    same weight count, depth and weight bound, so the approximation
    distance is zero."""
    threshold = _weight_budget(cert.n, cert.d, cert.L)
    t = max(1, min(t_max, threshold))
    failures = [t] if cert.alpha * math.log2(t) + math.log2(g.amplitude) > 1e-12 else []
    branch1 = {"t_checked": [t], "failures": failures, "pass": not failures}

    branch2 = {"checked": False, "pass": None}
    if t_max >= threshold:
        if 3 * cert.n**8 * cert.d > _MAX_MIDDLE_ROWS:
            branch2["skipped_reason"] = "network too large to materialize"
        else:
            C = choose_amplitude_base(policy, cert.n, cert.d, cert.L)
            hat = build_hat(HatBuildParams(n=cert.n, L=cert.L, C=C, spec=g.spec, policy=policy))
            rep = verify_hat(hat, num_points=256)
            branch2 = {
                "checked": True,
                **{k: rep[k] for k in ("max_rel_err", "weight_count", "budget", "max_norm")},
                "pass": bool(rep["pass"] and g.amplitude <= hat.amplitude),
            }
    return {
        "threshold": threshold,
        "branch1": branch1,
        "branch2": branch2,
        "pass": bool(branch1["pass"] and branch2["pass"] is not False),
    }
