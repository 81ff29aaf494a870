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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .network import (
    _LAMBDA,
    GrowthPolicy,
    Layer,
    NeuralNetwork,
    SigmaBudget,
    SparseMatrix,
    SparseVector,
    check_membership,
)
from .rates import _growth_scan

# minimum of the bump on the inner plateau cube y + [-1/(2dM), 1/(2dM)]^d
THETA_PLATEAU = (2.0 / 81.0) * (9.0 - 4.0 * math.sqrt(3.0)) ** 2

# the slope extremum of the 1-d bump lambda^2 is 8M/(3 sqrt 3), attained at
# y +- 1/(sqrt(3) M)
LAMBDA2_LIP_FACTOR = 8.0 / (3.0 * math.sqrt(3.0))

_MAX_MIDDLE_ROWS = 4_000_000


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

@dataclass(frozen=True)
class HatBuildParams:
    """Inputs of the explicit hat construction.

    n is the weight-budget driver, L >= 5 the exact depth, C >= 1 the
    amplitude base with C**8 <= c(n)."""

    n: int
    L: int
    C: float
    spec: BumpSpec
    policy: GrowthPolicy

    def __post_init__(self):
        if not math.isfinite(self.C):
            raise ValueError("amplitude base C must be finite")
        # the amplitude divides by M**8 and the layers by M**2 and M**4
        if not self.spec.M < 2.0**128:
            raise ValueError("width parameter M must be < 2**128 (M**8 finite)")


def _validate_hat_params(p: HatBuildParams):
    if p.n < 1:
        raise ValueError("precondition violated: n >= 1")
    if p.L < 5:
        raise ValueError("precondition violated: L >= 5")
    if p.L > p.policy.ell(p.n):
        raise ValueError(
            f"precondition violated: L <= ell(n) (L={p.L}, ell({p.n})={p.policy.ell(p.n)})"
        )
    if p.spec.M < 1:
        raise ValueError("precondition violated: M >= 1")
    if p.C < 1:
        raise ValueError("precondition violated: C >= 1")
    if p.C**8 > p.policy.c(p.n) * (1 + 1e-12):
        raise ValueError(
            f"precondition violated: C**8 <= c(n) (C**8={p.C ** 8}, c({p.n})={p.policy.c(p.n)})"
        )
    if p.spec.p != 2:
        raise ValueError("precondition violated: network builder requires p == 2")
    if any(v < 0.0 or v > 1.0 for v in p.spec.y):
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

    @property
    def spec(self) -> BumpSpec:
        return self.params.spec

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
        """Exact point-independent factor multiplying the bump channel.

        Computed in rational arithmetic over the stored double weights, so it
        is the exact constant the stored network applies."""
        c = self._constants
        p = self.params
        u3 = Fraction(c["b23"]) ** 2
        s4 = p.n**8 * c["d"] * u3
        v4 = s4 * s4
        return Fraction(c["h"]) * v4 ** (2 ** (p.L - 5))

    @cached_property
    def network(self) -> NeuralNetwork:
        return self._materialize()

    def _materialize(self) -> NeuralNetwork:
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

        # layer 2: per coordinate block, n**8 row triples (bump, floor, scale)
        rr = np.arange(3 * n8 * d)
        block = rr // (3 * n8)
        kind = rr % 3
        t1 = rr[kind == 0]
        a2 = SparseMatrix(
            (3 * n8 * d, 2 * n * d),
            np.repeat(t1, 2),
            np.tile([0, 1], t1.size) + 2 * n * np.repeat(block[kind == 0], 2),
            np.full(2 * t1.size, -1.0),
        )
        bias2 = np.choose(kind, [c["b21"], c["b22"], c["b23"]])
        b2 = SparseVector.from_dense(bias2)

        # layer 3: three shifted copies of the averaged bump sum (+inv on the
        # bump rows, -inv on the floor rows) + the scale row
        a3 = SparseMatrix(
            (4, 3 * n8 * d),
            np.repeat(np.arange(4), [2 * n8 * d] * 3 + [n8 * d]),
            np.concatenate([rr[0::3], rr[1::3]] * 3 + [rr[2::3]]),
            np.repeat([c["inv"], -c["inv"]] * 3 + [1.0], n8 * d),
        )
        b3 = SparseVector.from_dense([0.0, c["b32"], c["b33"], 0.0])

        layers = [Layer(a1, b1), Layer(a2, b2), Layer(a3, b3)]
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
        return NeuralNetwork(tuple(layers))

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
        """Accurate realization of the stored network (gain * bump channel).

        Raises ValueError once the gain reaches about 2**1020, where the
        output and the differences taken of it overflow double precision.  A
        gain far past that is rejected on its log2 taken in floats, before
        the exact power, of about 2**(L + 5) bits, is formed."""
        c, p = self._constants, self.params
        log2_gain = math.log2(c["h"]) + 2.0 ** (p.L - 4) * (
            8 * math.log2(p.n) + math.log2(c["d"]) + 2 * math.log2(c["b23"])
        )
        if log2_gain < 1100:
            g = self.gain
            if g.numerator.bit_length() - g.denominator.bit_length() < 1020:
                return self.bump_channel(x) * float(g)
            log2_gain = math.log2(g.numerator) - math.log2(g.denominator)
        text = f"{log2_gain:.1f}" if log2_gain < 1e6 else f"{log2_gain:.3g}"
        raise ValueError(f"the network's gain 2**{text} is too large for double precision")

    def closed_form(self, x):
        """amplitude * vartheta_{M,y}(x), the target of the construction."""
        return self.amplitude * vartheta(self.params.spec, x)

    def weight_budget(self) -> int:
        p = self.params
        return 16 * p.n**8 * p.spec.d + 7 * p.L


def build_hat(params: HatBuildParams) -> BuiltHat:
    """Validate the construction's preconditions and assemble the hat."""
    _validate_hat_params(params)
    p = params
    log2_amp = (
        (2.0**p.L - 1.0) * math.log2(p.C)
        + (2.0**p.L - 1.0) / 2.0 * math.log2(p.n)
        - 2.0
        - 8.0 * math.log2(p.spec.M)
    )
    return BuiltHat(params=p, log2_amplitude=log2_amp)


def build_hat_network(params: HatBuildParams) -> NeuralNetwork:
    """The explicit sparse architecture (materialized layer list)."""
    return build_hat(params).network


def choose_amplitude_base(policy: GrowthPolicy, n: int) -> float:
    """Largest admissible C: c(n)**(1/8) (always >= 1 since c >= 1)."""
    return float(policy.c(n)) ** 0.125


def verify_hat(hat: BuiltHat, num_points: int = 10_000, seed: int = 0) -> dict:
    """Compare the built network against its closed form on random points.

    Relative error is measured against the amplitude (the closed form's sup),
    since both functions vanish identically outside the support cube.  The
    budget, depth and norm checks read ``hat.network``, which is materialized
    once per hat."""
    params = hat.params
    spec = params.spec
    rng = np.random.default_rng(seed)
    half = 1.5 / spec.M
    pts = np.asarray(spec.y) + rng.uniform(-half, half, size=(num_points, spec.d))
    approx = hat.realize(pts)
    exact = hat.closed_form(pts)
    max_abs = float(np.max(np.abs(approx - exact)))
    max_rel = max_abs / hat.amplitude if hat.amplitude > 0 else math.inf
    net = hat.network
    budget = hat.weight_budget()
    w = net.weight_count()
    ok = (
        max_rel <= 1e-9
        and w <= budget
        and net.depth() == params.L
        and net.max_norm() <= params.policy.c(params.n) * (1 + 1e-12)
    )
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
        "weight_count": w,
        "budget": budget,
        "depth": net.depth(),
        "max_norm": net.max_norm(),
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# unit-ball scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitBallCertificate:
    """Witnesses that kappa * M**(-64a/(8a+g)) * vartheta lies in the unit ball.

    kappa = min{ ((16d + 7L) (2 n0)**8)**(-alpha), 1/C1 } where n0 is the
    least budget whose depth allowance reaches L and C1 bounds
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
    """Smallest usable depth L in [5, ell*] making the C1 supremum finite."""
    if policy.kind == "parametric":
        per = policy.theta_c + 0.5
        L = 5
        while gamma >= (2.0**L - 1.0) * per:
            L += 1
            if L > 60:
                raise ValueError("gamma out of range: no finite depth works")
        if policy.ell_star != math.inf and L > policy.ell_star:
            raise ValueError("gamma >= gamma_flat for this policy")
        return L
    L = policy.ell_star
    if L == math.inf or L < 5:
        raise ValueError("tabulated policy must have a finite depth limit >= 5")
    return int(L)


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
    n0 = 1
    while policy.ell(n0) < L:
        n0 += 1
        if n0 > 10**7:
            raise ValueError("no budget reaches the required depth")
    # log2 of C1 = sup_n n**gamma / (c(n)**(2**L-1) n**((2**L-1)/2))
    log2_n, growth_c, growth_n = _growth_scan(policy, L)
    log_ratio = gamma * log2_n - growth_c - growth_n
    best = int(np.argmax(log_ratio))
    # tail check: the ratio must be non-increasing toward the end of the scan;
    # for a parametric policy _pick_depth chose L with gamma < (2**L-1)(theta+1/2)
    if policy.kind != "parametric" and best >= log2_n.size - 2:
        warnings.warn(
            "supremum attained at the scan boundary n = 10**6 for a tabulated "
            "policy; the supremum may lie beyond it",
            RuntimeWarning,
        )
    log2_c1 = float(log_ratio[best])
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
    must stay <= 1.  Branch 2 (t at/above the budget): the scaled hat network
    realizes g exactly within float tolerance while fitting the budget, so the
    approximation distance is zero."""
    threshold = 16 * cert.n**8 * cert.d + 7 * cert.L
    sup_g = g.amplitude
    t_grid = np.unique(
        np.clip(np.geomspace(1, max(1, min(t_max, threshold)), 64).round(), 1, None)
    ).astype(np.int64)
    failures = [
        int(t) for t in t_grid if cert.alpha * math.log2(t) + math.log2(sup_g) > 1e-12
    ]
    branch1 = {
        "t_checked": [int(t) for t in t_grid],
        "failures": failures,
        "pass": not failures,
    }

    branch2 = {"checked": False, "pass": None}
    if t_max >= threshold:
        if 3 * cert.n**8 * cert.d > _MAX_MIDDLE_ROWS:
            branch2 = {
                "checked": False,
                "pass": None,
                "skipped_reason": "network too large to materialize",
            }
        else:
            C = choose_amplitude_base(policy, cert.n)
            hat = build_hat(
                HatBuildParams(n=cert.n, L=cert.L, C=C, spec=g.spec, policy=policy)
            )
            # amplitude rescaling factor in [0, 1]
            log2_factor = math.log2(g.amplitude) - hat.log2_amplitude
            factor = float(np.exp2(log2_factor))
            net = hat.network
            last = net.layers[-1]
            scaled_last = Layer(
                SparseMatrix(
                    last.weights.shape,
                    last.weights.rows,
                    last.weights.cols,
                    last.weights.vals * factor,
                ),
                last.bias,
            )
            scaled = NeuralNetwork(net.layers[:-1] + (scaled_last,))
            ok_member, violations = check_membership(
                scaled, SigmaBudget(threshold, policy, input_dim=cert.d)
            )
            rng = np.random.default_rng(0)
            half = 1.2 / g.spec.M
            pts = np.asarray(g.spec.y) + rng.uniform(
                -half, half, size=(256, cert.d)
            )
            approx = hat.realize(pts) * factor
            rel = float(np.max(np.abs(approx - g(pts)))) / g.amplitude
            branch2 = {
                "checked": True,
                "member": ok_member,
                "violations": violations,
                "max_rel_err": rel,
                "pass": bool(ok_member and rel <= 1e-9),
            }

    overall = branch1["pass"] and (branch2["pass"] is not False)
    return {
        "threshold": threshold,
        "branch1": branch1,
        "branch2": branch2,
        "pass": bool(overall),
    }
