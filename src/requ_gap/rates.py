"""Growth-exponent, Lipschitz and rate-window calculators.

The central quantity is the growth exponent gamma of the expression
c(n)**(2**L - 1) * n**((2**L - 1)/2) over admissible depths L; it caps the
achievable sampling rate regardless of the approximation exponent alpha.
All doubly-exponential bound formulas are computed in log2 space and exposed
as :class:`BoundValue` so that overflow is an explicit flag, never a wrapped
or silently infinite number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import INF, GrowthPolicy, NeuralNetwork, realize


@dataclass(frozen=True)
class BoundValue:
    """A bound given both in raw form (possibly inf) and as log2."""

    value: float
    log2: float
    overflow: bool

    @classmethod
    def from_log2(cls, log2_value: float) -> "BoundValue":
        if log2_value >= 1024.0:
            return cls(value=math.inf, log2=log2_value, overflow=True)
        return cls(value=float(np.exp2(log2_value)), log2=log2_value, overflow=False)


@dataclass(frozen=True)
class RateWindow:
    """Lower and upper sampling-rate exponents for given (alpha, d, gamma)."""

    alpha: float
    d: int
    gamma_flat: float
    gamma_sharp: float
    lower_rate: float
    upper_rate: float
    degenerate: bool = False


@dataclass(frozen=True)
class LipschitzBoundInput:
    """Inputs of the depth-L Lipschitz bound.

    norm selects the metric: 'l1', 'linf', or the unit-cube variants that
    substitute R = sqrt(d) (the l2 radius of [0,1]^d)."""

    L: int
    C: float
    n: int
    R: float
    d: int
    norm: str = "l1"

    def __post_init__(self):
        if not (math.isfinite(self.C) and math.isfinite(self.R)):
            raise ValueError("coefficient bound C and domain radius R must be finite")
        if self.L < 1:
            raise ValueError("depth L must be >= 1")
        if self.C < 1:
            raise ValueError("coefficient bound C must be >= 1")
        if self.n < 1:
            raise ValueError("weight budget n must be >= 1")
        if self.R < 1:
            raise ValueError("domain radius R must be >= 1")
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.norm not in ("l1", "linf", "unit-cube-l1", "unit-cube-linf"):
            raise ValueError(f"unknown norm {self.norm!r}")


def gamma_closed_form(policy: GrowthPolicy) -> tuple[float, float]:
    """(gamma_flat, gamma_sharp) for a parametric policy.

    Both equal (2**ell_star - 1) * (theta_c + 1/2); (inf, inf) when the depth
    allowance is unbounded."""
    if policy.kind != "parametric":
        raise ValueError("closed form applies to parametric policies; use gamma_numeric")
    if policy.ell_star == INF:
        return (INF, INF)
    g = (2.0**policy.ell_star - 1.0) * (policy.theta_c + 0.5)
    return (g, g)


def gamma_numeric(policy: GrowthPolicy, n_max: int) -> tuple[float, float]:
    """Estimate the growth exponent by regression over a geometric n grid.

    Fits log2 of max_{L <= ell(n)} c(n)**(2**L - 1) * n**((2**L - 1)/2)
    against [log2 n, log2 log2(2n), 1]; the extra slowly-varying regressor
    absorbs the log factor of policies with kappa_c != 0 so that the leading
    exponent is recovered cleanly."""
    if n_max < 100:
        raise ValueError("n_max must be >= 100")
    grid = np.unique(np.geomspace(100, n_max, 400).round()).astype(np.int64)
    ells = np.array([policy.ell(int(n)) for n in grid], dtype=np.float64)
    if np.any(~np.isfinite(ells)):
        raise ValueError("unbounded depth allowance: the exponent is infinite")
    cvals = np.asarray(policy.c(grid), dtype=np.float64)
    # the inner max over L <= ell(n) is attained at L = ell(n) since c, n >= 1
    e = 2.0**ells - 1.0
    y = e * np.log2(cvals) + (e / 2.0) * np.log2(grid)
    if np.allclose(y, y[0]):
        raise ValueError("degenerate policy: growth expression is constant")
    design = np.column_stack(
        [np.log2(grid), np.log2(np.log2(2.0 * grid)), np.ones(grid.size)]
    )
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    est = float(coef[0])
    return (est, est)


def _growth_scan(policy: GrowthPolicy, L: int):
    """The n-grid of the log-space supremum scans over the growth term.

    The grid is 1..4096 plus 600 rounded geometric points up to 10**6.
    Returns log2 n and the two parts of the growth term
    (2**L-1) log2 c(n) + (2**L-1)/2 log2 n on it; they are kept apart so
    that each caller fixes its own floating-point operation order."""
    small = np.arange(1, 4097, dtype=np.float64)
    tail = np.geomspace(4096, 1_000_000, 600).round()
    grid = np.concatenate([small, tail])  # ascending: drop the repeats
    grid = grid[np.diff(grid, prepend=0.0) > 0]
    e = 2.0**L - 1.0
    log2_n = np.log2(grid)
    log2_c = np.log2(np.asarray(policy.c(grid), dtype=np.float64))
    return log2_n, e * log2_c, (e / 2.0) * log2_n


def radius_recursion(R0: float, C: float, n: int, j: int) -> BoundValue:
    """Closed form (2 sqrt(n) C)**(2**j - 1) * R0**(2**(j-1)).

    Equals the iteration R_j = 2 sqrt(n) C R_{j-1}**2 started at R_0."""
    if R0 < 1 or C < 1 or n < 1:
        raise ValueError("requires R0 >= 1, C >= 1, n >= 1")
    if j < 1:
        raise ValueError("j must be >= 1")
    log2_base = 1.0 + 0.5 * math.log2(n) + math.log2(C)
    log2_r = (2.0**j - 1.0) * log2_base + 2.0 ** (j - 1) * math.log2(R0)
    return BoundValue.from_log2(log2_r)


def lipschitz_log2(inp: LipschitzBoundInput) -> float:
    R = math.sqrt(inp.d) if inp.norm.startswith("unit-cube") else inp.R
    log2_v = (
        (2.0**inp.L + inp.L - 3.0)
        + (2.0 ** (inp.L - 1) - 1.0) * math.log2(R)
        + (2.0**inp.L - 1.0) * math.log2(inp.C)
        + (2.0**inp.L - 1.0) / 2.0 * math.log2(inp.n)
    )
    if inp.norm in ("linf", "unit-cube-linf"):
        log2_v += math.log2(inp.d)
    return log2_v


def lipschitz_bound(inp: LipschitzBoundInput) -> BoundValue:
    """Worst-case Lipschitz constant of any realization within the budget:
    2**(2**L + L - 3) * R**(2**(L-1) - 1) * C**(2**L - 1) * n**((2**L - 1)/2),
    times d in the sup-norm variants."""
    return BoundValue.from_log2(lipschitz_log2(inp))


def rate_window(alpha: float, d: int, policy: GrowthPolicy) -> RateWindow:
    """lower = alpha/(d (alpha + gamma_sharp)), upper = 64 alpha/(d (8 alpha + gamma_flat))."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    if policy.kind == "parametric":
        gamma_flat, gamma_sharp = gamma_closed_form(policy)
    else:
        gamma_flat, gamma_sharp = gamma_numeric(policy, n_max=10_000)
    # an infinite exponent, or a NaN one from overflowing growth terms: no window
    degenerate = not (math.isfinite(gamma_flat) and math.isfinite(gamma_sharp))
    return RateWindow(
        alpha=alpha,
        d=d,
        gamma_flat=gamma_flat,
        gamma_sharp=gamma_sharp,
        lower_rate=0.0 if degenerate else alpha / (d * (alpha + gamma_sharp)),
        upper_rate=0.0 if degenerate else 64.0 * alpha / (d * (8.0 * alpha + gamma_flat)),
        degenerate=degenerate,
    )


def empirical_lipschitz(
    net,
    domain,
    samples: int = 1000,
    norm: str = "l1",
    seed: int = 0,
) -> float:
    """Sampled lower estimate of the Lipschitz constant on a box domain.

    ``net`` may be a NeuralNetwork or any callable mapping a (k, d) batch of
    points to values.  Uses random far pairs plus axis-aligned small-offset
    pairs (finite differences) to catch steep local slopes."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    if norm not in ("l1", "linf"):
        raise ValueError("norm must be 'l1' or 'linf'")
    lo, hi = (np.asarray(a, dtype=np.float64) for a in domain)
    d = lo.size
    f = net if callable(net) and not isinstance(net, NeuralNetwork) else (
        lambda pts: realize(net, pts)
    )
    rng = np.random.default_rng(seed)

    def slope(a, b):
        fa = np.asarray(f(a), dtype=np.float64).reshape(len(a), -1)
        fb = np.asarray(f(b), dtype=np.float64).reshape(len(b), -1)
        num = np.abs(fa - fb).max(axis=1)
        diff = np.abs(a - b)
        den = diff.sum(axis=1) if norm == "l1" else diff.max(axis=1)
        ok = den > 0
        return float((num[ok] / den[ok]).max(initial=0.0))

    a = rng.uniform(lo, hi, size=(samples, d))
    b = rng.uniform(lo, hi, size=(samples, d))
    best = slope(a, b)
    step = 1e-4 * (hi - lo)
    for axis in range(d):
        base = rng.uniform(lo, hi, size=(samples, d))
        shifted = base.copy()
        shifted[:, axis] = np.minimum(shifted[:, axis] + step[axis], hi[axis])
        best = max(best, slope(base, shifted))
    return best
