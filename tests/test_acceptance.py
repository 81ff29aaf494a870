"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each test prints "criterion N: PASS|FAIL - <description>" so that the full
run doubles as a human-readable report of the package's core guarantees.
"""

import math

import numpy as np
import pytest

from requ_gap.hats import (
    LAMBDA2_LIP_FACTOR,
    BumpSpec,
    HatBuildParams,
    build_hat,
    lambda_network,
    lambda_p,
    vartheta,
)
from requ_gap.network import (
    GrowthPolicy,
    NeuralNetwork,
    SparseMatrix,
    SparseVector,
    Layer,
    depth_extend,
    deserialize,
    identical,
    realize,
    serialize,
    sum_networks,
)
from requ_gap.rates import (
    LipschitzBoundInput,
    empirical_lipschitz,
    gamma_numeric,
    lipschitz_bound,
    radius_recursion,
    rate_window,
)
from requ_gap.sampling import (
    grid_algorithm,
    run_hardness_sweep,
    run_upper_bound_sweep,
    uniform_random_algorithm,
    zero_algorithm,
)

# policy generous enough to admit the whole (n, L, C, M, d) desk matrix
MATRIX_POLICY = GrowthPolicy(kind="parametric", scale=256.0, depth_cap=7)
POLICY5 = GrowthPolicy(kind="parametric", depth_cap=5)
ALPHA = 1.0
GAMMA = 15.0  # depth-5 growth exponent 15.5 minus 0.5


def report(num: int, ok: bool, description: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def desk_matrix():
    for n in (1, 2):
        for L in (5, 6, 7):
            for C in (1.0, 2.0):  # C**8 in {1, 256} <= c(n) = 256
                for M in (1.0, 2.0, 4.0):
                    for d in (1, 2, 3):
                        spec = BumpSpec(d=d, M=M, y=tuple([0.5] * d))
                        yield HatBuildParams(
                            n=n, L=L, C=C, spec=spec, policy=MATRIX_POLICY
                        )


def test_criterion_1_hat_network_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for params in desk_matrix():
        hat = build_hat(params)
        spec = params.spec
        pts = np.asarray(spec.y) + rng.uniform(
            -1.5 / spec.M, 1.5 / spec.M, size=(10_000, spec.d)
        )
        err = np.abs(hat.realize(pts) - hat.closed_form(pts)).max()
        worst = max(worst, err / hat.amplitude)
        count += 1
    ok = worst <= 1e-9 and count == 108
    report(
        1,
        ok,
        f"hat realization matches amplitude*bump on the {count}-case matrix "
        f"(worst relative error {worst:.3e} <= 1e-9)",
    )


def test_criterion_2_complexity_budget():
    ok = True
    for params in desk_matrix():
        hat = build_hat(params)
        net = hat.network
        n, L, d = params.n, params.L, params.spec.d
        n8 = n**8
        counts = [layer.weights.nnz for layer in net.layers]
        inventory_ok = counts[0] <= 2 * n * d and counts[1] == 2 * n8 * d
        inventory_ok &= counts[2] == 7 * n8 * d
        if L == 5:
            inventory_ok &= counts[3] == 8 and counts[4] == 2
        else:
            inventory_ok &= counts[3] == 7
            inventory_ok &= all(c == 5 for c in counts[4:-2])
            inventory_ok &= counts[-2] == 6 and counts[-1] == 2
        ok &= (
            net.weight_count() <= 16 * n8 * d + 7 * L
            and net.depth() == L
            and net.max_norm() <= params.policy.c(n)
            and inventory_ok
        )
    report(
        2,
        ok,
        "every built hat satisfies W <= 16 n^8 d + 7L, depth = L, "
        "max_norm <= c(n), and the exact per-matrix sparsity inventory",
    )


def test_stored_hat_weights_read_back_exactly():
    # verify-hat accepts build-hat's bytes without parsing them only because
    # a hat stores no zero weight, so reading its bytes gives it back
    for params in desk_matrix():
        net = build_hat(params).network
        assert all((layer.weights.vals != 0.0).all() for layer in net.layers), params
        assert identical(deserialize(serialize(net)), net), params


def test_criterion_3_bump_properties():
    rng = np.random.default_rng(3)
    ok = True
    for d, M in [(1, 1.0), (2, 2.0), (3, 1.0), (2, 4.0)]:
        y = np.full(d, 0.5)
        spec = BumpSpec(d=d, M=M, y=tuple(y))
        # exact support containment on 10^4 exterior points
        pts = rng.uniform(-3, 4, size=(40_000, d))
        ext = pts[np.max(np.abs(pts - 0.5), axis=1) >= 1.0 / M][:10_000]
        assert len(ext) >= 10_000 or d == 1
        ok &= bool(np.all(vartheta(spec, ext) == 0.0))
        # L^p norms via grid quadrature over the support
        axes = np.linspace(0.5 - 1 / M, 0.5 + 1 / M, 61)
        grid = np.stack(np.meshgrid(*([axes] * d), indexing="ij"), axis=-1)
        vals = vartheta(spec, grid.reshape(-1, d))
        cell = (axes[1] - axes[0]) ** d
        for p in (1, 2):
            est = (np.sum(vals**p) * cell) ** (1.0 / p)
            ok &= est <= (2.0 / M) ** (d / p) * 1.02
        ok &= vals.max() <= 1.0 * 1.02
        # plateau on the inner cube
        T = 1.0 / (2 * d * M)
        in_axes = np.linspace(-T, T, 9)
        in_grid = np.stack(np.meshgrid(*([in_axes] * d), indexing="ij"), axis=-1)
        ok &= bool(vartheta(spec, in_grid.reshape(-1, d) + y).min() >= 0.10598)
    report(
        3,
        ok,
        "bump support exact, L^p norms <= (2/M)^(d/p) (+2%), and "
        "value >= 0.10598 on the inner cube, for all tested (d, M)",
    )


def test_criterion_4_lambda_squared_lipschitz():
    ok = True
    slopes = {}
    for M in (1.0, 2.0, 4.0):
        spec = BumpSpec(d=1, M=M, y=(0.5,))
        x_star = 0.5 + 1.0 / (math.sqrt(3.0) * M)
        xs = np.linspace(x_star - 0.02 / M, x_star + 0.02 / M, 20_001)
        s = np.abs(np.diff(lambda_p(spec, xs)) / np.diff(xs)).max()
        bound = LAMBDA2_LIP_FACTOR * M
        slopes[M] = float(s / bound)
        ok &= 0.95 * bound <= s <= bound * (1 + 1e-9)
    report(
        4,
        ok,
        "empirical max slope of the 1-d bump is in [0.95, 1.0] x 8M/(3 sqrt 3) "
        f"for M in (1, 2, 4): ratios {[round(v, 5) for v in slopes.values()]}",
    )


def test_criterion_5_lipschitz_audit():
    ok = True
    # built hat networks from a small sub-matrix
    for n, L, d, M in [(1, 5, 1, 1.0), (1, 5, 2, 2.0), (1, 6, 1, 1.0), (2, 5, 1, 2.0)]:
        params = HatBuildParams(
            n=n, L=L, C=1.0,
            spec=BumpSpec(d=d, M=M, y=tuple([0.5] * d)),
            policy=MATRIX_POLICY,
        )
        hat = build_hat(params)
        emp = empirical_lipschitz(
            hat.realize, (np.zeros(d), np.ones(d)), samples=1000, norm="l1"
        )
        bound = lipschitz_bound(
            LipschitzBoundInput(
                L=L, C=1.0, n=hat.weight_budget(), R=1.0, d=d, norm="unit-cube-l1"
            )
        )
        ok &= emp <= bound.value or math.log2(max(emp, 1e-300)) <= bound.log2
    # random small networks respecting a depth-3 budget
    rng = np.random.default_rng(5)
    for _ in range(10):
        layers = []
        dims = [2, 3, 2, 1]
        for i in range(3):
            a = rng.uniform(-1, 1, size=(dims[i + 1], dims[i]))
            b = rng.uniform(-1, 1, size=dims[i + 1])
            layers.append((a, b))
        net = NeuralNetwork.from_dense(layers)
        emp = empirical_lipschitz(net, (np.zeros(2), np.ones(2)), samples=500)
        bound = lipschitz_bound(
            LipschitzBoundInput(
                L=3, C=1.0, n=max(net.weight_count(), 1), R=1.0, d=2,
                norm="unit-cube-l1",
            )
        )
        ok &= emp <= bound.value
    # radius recursion closed form == defining iteration for j <= 8
    for R0, C, n in [(1.0, 1.0, 1), (2.0, 1.5, 4), (1.5, 2.0, 9)]:
        r = R0
        for j in range(1, 9):
            r = 2.0 * math.sqrt(n) * C * (r if j == 1 else r * r)
            got = radius_recursion(R0, C, n, j)
            val = got.log2 if got.overflow else math.log2(got.value)
            ok &= abs(val - math.log2(r)) <= 1e-9 * max(1.0, abs(math.log2(r)))
    report(
        5,
        ok,
        "empirical Lipschitz <= bound for built and random networks; "
        "radius recursion closed form equals its iteration for j <= 8",
    )


def test_criterion_6_gamma_closed_form():
    ok = True
    results = {}
    for theta_c in (0.0, 1.0):
        for ell in (5, 6):
            pol = GrowthPolicy(kind="parametric", theta_c=theta_c, depth_cap=ell)
            est, _ = gamma_numeric(pol, n_max=100_000)
            closed = (2.0**ell - 1.0) * (theta_c + 0.5)
            results[(theta_c, ell)] = est - closed
            ok &= abs(est - closed) <= 0.05
    report(
        6,
        ok,
        "gamma_numeric at n_max=1e5 within 0.05 of (2^L - 1)(theta_c + 1/2) "
        f"for four policies (max dev {max(abs(v) for v in results.values()):.2e})",
    )


M_LIST = [4, 16, 64, 256, 1024]


def test_criterion_7_hardness_inequality():
    ok = True
    factories = {
        "grid": lambda m, d: grid_algorithm(m, d),
        "random": lambda m, d: uniform_random_algorithm(m, d, seed=11),
        "zero": lambda m, d: zero_algorithm(m, d),
    }
    for d in (1, 2):
        for name, make in factories.items():
            rep = run_hardness_sweep(
                lambda m: make(m, d), M_LIST, d, ALPHA, GAMMA, POLICY5
            )
            ok &= rep.passed
            ok &= all(r["unseen_count"] >= r["m"] for r in rep.rows)
            ok &= all(
                r["measured_avg_error"] >= r["lower_bound"] * (1 - 1e-9)
                for r in rep.rows
            )
    report(
        7,
        ok,
        "measured average error >= kappa * m^(-64a/(d(8a+g))) and "
        "unseen-bump count >= m for grid/random/zero algorithms, d in (1, 2)",
    )


def test_criterion_8_decay_exponent():
    ok = True
    slopes = {}
    for d in (1, 2):
        rep = run_hardness_sweep(
            lambda m: zero_algorithm(m, d), M_LIST, d, ALPHA, GAMMA, POLICY5
        )
        target = -64.0 * ALPHA / (d * (8.0 * ALPHA + GAMMA))
        slopes[d] = (rep.fitted_exponent, target)
        ok &= abs(rep.fitted_exponent - target) <= 0.15 * abs(target)
    report(
        8,
        ok,
        "zero-algorithm amplitude curve slope matches -64a/(d(8a+g)) +- 15%: "
        + ", ".join(f"d={d}: {s:.4f} vs {t:.4f}" for d, (s, t) in slopes.items()),
    )


def test_criterion_9_upper_bound_behavior():
    rep = run_upper_bound_sweep(
        [16, 64, 256, 1024, 4096], 1, ALPHA, GAMMA, POLICY5
    )
    target = -ALPHA / (1 * (GAMMA + ALPHA)) + 0.1
    ok = rep.passed and rep.fitted_exponent <= target
    report(
        9,
        ok,
        f"grid-algorithm error on in-budget hat inputs decays with slope "
        f"{rep.fitted_exponent:.4f} <= {target:.4f}",
    )


def test_criterion_10_appendix_operations():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1.0, 2.0, size=(1000, 1))
    ok = True
    # depth extension preserves [-1, 1]-bounded realizations
    for M, y, target in [(1.0, 0.25, 5), (2.0, 0.75, 6), (4.0, 0.5, 7)]:
        net = lambda_network(M, y)
        ext = depth_extend(net, target)
        ok &= np.abs(realize(ext, x) - realize(net, x)).max() <= 1e-12
        ok &= ext.depth() == target
    # summation preserves realizations and the weight bound
    pairs = [
        (lambda_network(1.0, 0.2), lambda_network(2.0, 0.8)),
        (lambda_network(4.0, 0.5), lambda_network(4.0, 0.5)),
        (depth_extend(lambda_network(1.0, 0.4), 5), lambda_network(2.0, 0.6)),
    ]
    for n1, n2 in pairs:
        s = sum_networks(n1, n2)
        ok &= (
            np.abs(realize(s, x) - realize(n1, x) - realize(n2, x)).max() <= 1e-12
        )
        ok &= s.weight_count() <= 9 * max(n1.weight_count(), n2.weight_count())
    report(
        10,
        ok,
        "sum_networks and depth_extend preserve realizations within 1e-12 "
        "on 10^3 points and W(sum) <= 9 max(W1, W2)",
    )


def test_criterion_11_rate_window():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 50.0))
        d = int(rng.integers(1, 7))
        theta_c = float(rng.uniform(0.0, 2.0))
        cap = int(rng.integers(5, 9))
        pol = GrowthPolicy(kind="parametric", theta_c=theta_c, depth_cap=cap)
        w = rate_window(alpha, d, pol)
        gamma = (2.0**cap - 1.0) * (theta_c + 0.5)
        ok &= w.lower_rate == pytest.approx(alpha / (d * (alpha + gamma)))
        ok &= w.upper_rate == pytest.approx(64.0 * alpha / (d * (8.0 * alpha + gamma)))
        ok &= w.lower_rate <= w.upper_rate + 1e-12
    worked = rate_window(1.0, 1, POLICY5)
    ok &= worked.lower_rate == pytest.approx(0.06060606060606061)
    ok &= worked.upper_rate == pytest.approx(2.723404255319149)
    report(
        11,
        ok,
        "rate window lower <= upper over 100 random parameter draws; worked "
        f"value (a=1, d=1, g=15.5) = ({worked.lower_rate:.6f}, {worked.upper_rate:.6f})",
    )
