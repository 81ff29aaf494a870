"""Tests for growth-exponent, Lipschitz, and rate-window calculators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from requ_gap.hats import HatBuildParams, BumpSpec, build_hat, scaled_unit_ball_bump
from requ_gap.network import GrowthPolicy
from requ_gap.rates import (
    _growth_scan,
    BoundValue,
    LipschitzBoundInput,
    empirical_lipschitz,
    gamma_closed_form,
    gamma_numeric,
    lipschitz_bound,
    radius_recursion,
    rate_window,
)
from requ_gap.sampling import reconstruction_error_bound


class TestGammaClosedForm:
    def test_depth_five_base(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        assert gamma_closed_form(pol) == (15.5, 15.5)

    def test_linear_coefficient_growth(self):
        pol = GrowthPolicy(kind="parametric", theta_c=1.0, depth_cap=5)
        assert gamma_closed_form(pol) == (46.5, 46.5)

    def test_depth_six(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=6)
        assert gamma_closed_form(pol) == (31.5, 31.5)

    def test_unbounded_depth(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=float("inf"))
        assert gamma_closed_form(pol) == (float("inf"), float("inf"))

    @pytest.mark.parametrize("theta_c", [0.0, 1.0])
    def test_depth_past_the_float_range_gives_infinite_exponent(self, theta_c):
        # 2.0**1100 raises OverflowError; the limit is +inf, as theta_c >= 0
        pol = GrowthPolicy(kind="parametric", theta_c=theta_c, depth_cap=1100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gamma_closed_form(pol) == (math.inf, math.inf)
            w = rate_window(1.0, 1, pol)
        assert w.degenerate and w.gamma_flat == w.gamma_sharp == math.inf
        assert w.lower_rate == 0.0 and w.upper_rate == 0.0


class TestGammaNumeric:
    def test_matches_closed_form_plain(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        lo, hi = gamma_numeric(pol, n_max=100_000)
        assert lo == hi
        assert lo == pytest.approx(15.5, abs=0.05)

    def test_matches_closed_form_with_growth(self):
        pol = GrowthPolicy(kind="parametric", theta_c=1.0, depth_cap=5)
        lo, _ = gamma_numeric(pol, n_max=100_000)
        assert lo == pytest.approx(46.5, abs=0.1)

    def test_log_factor_absorbed(self):
        pol = GrowthPolicy(kind="parametric", theta_c=0.0, kappa_c=1.0, depth_cap=5)
        lo, _ = gamma_numeric(pol, n_max=10_000)
        assert lo == pytest.approx(15.5, abs=0.5)

    def test_rejects_unbounded_depth(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=float("inf"))
        with pytest.raises(ValueError):
            gamma_numeric(pol, n_max=1000)

    @pytest.mark.parametrize("n_max", [100, 101])
    def test_fewer_than_three_grid_points_give_no_estimate(self, n_max):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = gamma_numeric(pol, n_max=n_max)
        assert math.isnan(lo) and math.isnan(hi)

    def test_three_grid_points_determine_the_fit(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        assert gamma_numeric(pol, n_max=102)[0] == pytest.approx(15.5, abs=1e-6)

    # 2**1023 is finite, the growth term is not; 2**2000 overflows, also
    # where it meets log2 c = 0 (scale 1)
    @pytest.mark.parametrize("depth_cap", [1023, 2000])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_overflowing_growth_term_gives_infinite_exponent(self, depth_cap, scale):
        pol = GrowthPolicy(kind="parametric", scale=scale, depth_cap=depth_cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gamma_numeric(pol, n_max=10_000) == (math.inf, math.inf)

    def test_rejects_small_n_max(self):
        with pytest.raises(ValueError):
            gamma_numeric(GrowthPolicy(kind="parametric", depth_cap=5), n_max=50)


SCAN_CASES = {
    "parametric": (
        GrowthPolicy(kind="parametric", theta_c=0.5, kappa_c=0.5, scale=2.0, depth_cap=5),
        20.0,
    ),
    # c falls like log(2n)**-2 from 2082 at n=1: the C1 supremum sits near
    # n = 3.6e4, inside the scan, and the bound past the scan lies below it
    "inner-supremum": (
        GrowthPolicy(kind="parametric", kappa_c=-2.0, scale=1000.0, depth_cap=5),
        10.0,
    ),
}

# policies whose C1 supremum lies past the scan's end, n = 10**6
BEYOND_SCAN = {
    # c(n) = 1 from n = 2.7e13, where n**-0.5 reaches 2**-22.3; the scan's
    # largest value is 2**-81.7, near n = 7e5
    "kappa-c-2": (GrowthPolicy(kind="parametric", kappa_c=-2.0, scale=1000.0, depth_cap=5), 15.0),
    # c(n) = 1 until n**0.5 > log(2n)**50; the supremum is about 2**4203,
    # near n = 1e281
    "kappa-c-50": (GrowthPolicy(kind="parametric", theta_c=0.5, kappa_c=-50.0, depth_cap=5), 20.0),
}


def _log2_ratio_far(policy, L, gamma):
    """The largest log2 of n**gamma / (c(n)**e n**(e/2)), e = 2**L - 1, by
    a plain loop over 1..4096 and 20,000 geometric points up to 1e300."""
    grid = [*range(1, 4097), *(float(v) for v in np.geomspace(4096, 1e300, 20_000).round())]
    e = 2.0**L - 1.0
    return max(
        gamma * math.log2(n) - e * math.log2(policy.c(n)) - e / 2.0 * math.log2(n) for n in grid
    )


def _loop_scan(policy, L, gamma, n_scan=1_000_000):
    """The n-grid and the C0/C1 log suprema by a plain loop over it."""
    tail = np.geomspace(4096, n_scan, 600).round()
    grid = sorted({*range(1, 4097), *(int(v) for v in tail)})
    e = 2.0**L - 1.0
    c0 = c1 = -math.inf
    for n in grid:
        growth = e * math.log2(policy.c(n)) + e / 2.0 * math.log2(n)
        c0 = max(c0, growth - gamma * math.log2(n))
        c1 = max(c1, gamma * math.log2(n) - growth)
    return grid, c0, c1


def _loop_gaps(policy, L, gamma, grid):
    """The largest bound on the C1 log ratio over the gaps of more than one
    integer between the grid's points, by a plain loop: n**(gamma - e/2) at
    whichever end of the gap it is larger, and c(n) at least max(1,
    ceil(scale a**theta ln(2m)**kappa)), m = b for kappa < 0 and a otherwise."""
    e = 2.0**L - 1.0
    best = -math.inf
    for a, b in zip(grid, grid[1:]):
        if b - a > 1:
            m = b if policy.kappa_c < 0 else a
            raw = policy.scale * a**policy.theta_c * math.log(2.0 * m) ** policy.kappa_c
            power = max((gamma - e / 2.0) * math.log2(a), (gamma - e / 2.0) * math.log2(b))
            best = max(best, power - e * math.log2(max(1.0, math.ceil(raw))))
    return best


class TestGrowthScan:
    @pytest.mark.parametrize("policy, gamma", SCAN_CASES.values(), ids=SCAN_CASES.keys())
    def test_c0_and_c1_match_loop(self, policy, gamma):
        L = int(policy.depth_cap)
        grid, c0, c1 = _loop_scan(policy, L, gamma)
        # the certificate also bounds the integers the grid steps over
        c1 = max(c1, _loop_gaps(policy, L, gamma, grid))
        log2_n, growth_c, growth_n = _growth_scan(policy, L)
        assert log2_n.tolist() == pytest.approx([math.log2(n) for n in grid], rel=1e-12)
        growth = [(2.0**L - 1.0) * (math.log2(policy.c(n)) + math.log2(n) / 2.0) for n in grid]
        assert (growth_c + growth_n).tolist() == pytest.approx(growth, rel=1e-12)
        # C0 through the upper bound at m=1, d=1:
        # C2 = 6 + 2**(gamma + 2 + 2**L + L - 3) * C0
        c2 = reconstruction_error_bound(1, 1, policy, 1.0, gamma)
        log2_c0 = math.log2(c2 - 6.0) - (gamma + 2.0) - (2.0**L + L - 3.0)
        assert log2_c0 == pytest.approx(c0, rel=1e-12)
        # C1 through the unit-ball certificate, which must pick the same depth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, cert = scaled_unit_ball_bump(1.0, gamma, 4.0, [0.5], policy)
        assert cert.L == L
        assert math.log2(cert.C1) == pytest.approx(c1, rel=1e-12)

    @pytest.mark.parametrize("policy, gamma", BEYOND_SCAN.values(), ids=BEYOND_SCAN.keys())
    def test_c1_bounds_the_supremum_past_the_scan(self, policy, gamma):
        L = int(policy.depth_cap)
        far = _log2_ratio_far(policy, L, gamma)
        _, _, c1_scan = _loop_scan(policy, L, gamma)
        assert c1_scan < far - 50
        try:
            _, cert = scaled_unit_ball_bump(1.0, gamma, 4.0, [0.5], policy)
        except ValueError as exc:
            # kappa = 1/C1 is no double
            assert far > 1074 and "amplitude 0.0 outside" in str(exc)
        else:
            assert math.log2(cert.C1) >= far

    # the inner-supremum and parametric cases, and a c that falls, then rises,
    # whose supremum lies at n = 20,902
    DENSE_CASES = {
        **SCAN_CASES,
        "falls-then-rises": (
            GrowthPolicy(theta_c=0.5, kappa_c=-3.0, scale=50.0, depth_cap=5),
            22.5,
        ),
    }

    @pytest.mark.parametrize("policy, gamma", DENSE_CASES.values(), ids=DENSE_CASES.keys())
    def test_c1_bounds_a_dense_scan(self, policy, gamma):
        # every integer up to the scan's end, 10**6, then 400,000 geometric
        # points up to 10**8
        n = np.concatenate(
            [np.arange(1, 10**6 + 1.0), np.geomspace(10**6, 10**8, 400_000).round()]
        )
        e = 2.0**policy.depth_cap - 1.0
        log2_n = np.log2(n)
        dense = np.max(gamma * log2_n - e * np.log2(policy.c(n)) - e / 2.0 * log2_n)
        _, cert = scaled_unit_ball_bump(1.0, gamma, 4.0, [0.5], policy)
        assert math.log2(cert.C1) >= dense

    def test_c1_past_the_scan_uses_c_at_least_one(self):
        policy, gamma = BEYOND_SCAN["kappa-c-2"]
        _, cert = scaled_unit_ball_bump(1.0, gamma, 4.0, [0.5], policy)
        # c(n) >= 1 bounds the ratio by n**(gamma - e/2) = n**-0.5 past the
        # scan's end, 10**6; the supremum, where c reaches 1, is 2**-22.3
        assert math.log2(cert.C1) == pytest.approx(-0.5 * math.log2(1e6), rel=1e-12)
        assert math.log2(cert.C1) >= _log2_ratio_far(policy, cert.L, gamma)
        # C1 < 1: kappa is the budget term
        assert cert.kappa == ((16 + 7 * cert.L) * 2**8) ** -1.0


class TestRadiusRecursion:
    def test_single_step(self):
        # R1 = 2 sqrt(n) C R0^2 = 2 with everything at 1
        assert radius_recursion(1.0, 1.0, 1, 1).value == 2.0

    def test_three_steps(self):
        # (2)^7 * 1 = 128 at R0 = C = n = 1
        assert radius_recursion(1.0, 1.0, 1, 3).value == 128.0

    @pytest.mark.parametrize("R0,C,n", [(1.0, 1.0, 1), (2.0, 1.5, 4), (1.5, 2.0, 9)])
    def test_closed_form_equals_iteration(self, R0, C, n):
        # defining iteration: first step is linear, squaring starts at j = 2
        r = R0
        for j in range(1, 9):
            r = 2.0 * math.sqrt(n) * C * (r if j == 1 else r * r)
            got = radius_recursion(R0, C, n, j)
            if not got.overflow:
                assert got.value == pytest.approx(r, rel=1e-12)
            else:
                assert got.log2 == pytest.approx(math.log2(r), rel=1e-12)

    def test_overflow_flagged(self):
        big = radius_recursion(2.0, 2.0, 16, 12)
        assert big.overflow
        assert big.value == math.inf
        assert math.isfinite(big.log2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            radius_recursion(0.5, 1.0, 1, 1)
        with pytest.raises(ValueError):
            radius_recursion(1.0, 1.0, 1, 0)


class TestLipschitzBound:
    def test_base_case(self):
        # 2^(2^5 + 5 - 3) = 2^34 with R = C = n = 1
        b = lipschitz_bound(LipschitzBoundInput(L=5, C=1.0, n=1, R=1.0, d=3, norm="l1"))
        assert b.value == 2.0**34

    def test_sup_norm_multiplies_by_dimension(self):
        l1 = lipschitz_bound(LipschitzBoundInput(L=5, C=1.0, n=1, R=1.0, d=3, norm="l1"))
        linf = lipschitz_bound(LipschitzBoundInput(L=5, C=1.0, n=1, R=1.0, d=3, norm="linf"))
        assert linf.value == pytest.approx(3 * l1.value)

    def test_unit_cube_uses_sqrt_d_radius(self):
        # unit-cube-l1 with d=4 replaces R by sqrt(4)=2: factor 2^(2^(L-1)-1) = 2^15
        base = lipschitz_bound(LipschitzBoundInput(L=5, C=1.0, n=1, R=1.0, d=4, norm="l1"))
        cube = lipschitz_bound(
            LipschitzBoundInput(L=5, C=1.0, n=1, R=7.0, d=4, norm="unit-cube-l1")
        )
        assert cube.log2 == pytest.approx(base.log2 + 15.0)

    def test_overflow_flagged(self):
        b = lipschitz_bound(LipschitzBoundInput(L=10, C=2.0, n=4, R=2.0, d=1))
        assert b.overflow and b.value == math.inf

    def test_rejects_unknown_norm(self):
        with pytest.raises(ValueError):
            LipschitzBoundInput(L=5, C=1.0, n=1, R=1.0, d=1, norm="l2")


class TestRateWindow:
    def test_worked_example(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        w = rate_window(1.0, 1, pol)
        assert w.lower_rate == pytest.approx(1.0 / 16.5)
        assert w.upper_rate == pytest.approx(64.0 / 23.5)
        assert not w.degenerate

    def test_large_alpha_limit(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        w = rate_window(1e9, 2, pol)
        assert w.upper_rate == pytest.approx(8.0 / 2.0, rel=1e-6)
        assert w.lower_rate == pytest.approx(1.0 / 2.0, rel=1e-6)

    def test_dimension_halves_both_rates(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=5)
        w1 = rate_window(2.0, 1, pol)
        w2 = rate_window(2.0, 2, pol)
        assert w2.lower_rate == pytest.approx(w1.lower_rate / 2)
        assert w2.upper_rate == pytest.approx(w1.upper_rate / 2)

    def test_unbounded_depth_degenerates(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=float("inf"))
        w = rate_window(1.0, 1, pol)
        assert w.degenerate
        assert w.lower_rate == 0.0 and w.upper_rate == 0.0

    @given(
        alpha=st.floats(0.1, 50.0),
        d=st.integers(1, 6),
        theta=st.floats(0.0, 2.0),
        cap=st.integers(5, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_lower_never_exceeds_upper(self, alpha, d, theta, cap):
        pol = GrowthPolicy(kind="parametric", theta_c=theta, depth_cap=cap)
        w = rate_window(alpha, d, pol)
        assert w.lower_rate <= w.upper_rate + 1e-12

    @given(j=st.integers(1, 8), n=st.integers(1, 16), c=st.floats(1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_radius_identity(self, j, n, c):
        direct = radius_recursion(1.0, c, n, j)
        # log identity: log2 R_j = (2^j - 1)(1 + log2 c + log2(n)/2)
        want = (2.0**j - 1.0) * (1.0 + math.log2(c) + 0.5 * math.log2(n))
        assert direct.log2 == pytest.approx(want, rel=1e-12)


class TestEmpiricalLipschitz:
    def test_affine_slope(self):
        f = lambda pts: 2.0 * pts[:, 0] - 1.0
        got = empirical_lipschitz(f, (np.array([0.0]), np.array([1.0])))
        assert got == pytest.approx(2.0, rel=1e-3)

    def test_constant_is_zero(self):
        f = lambda pts: np.zeros(len(pts)) + 0.7
        assert empirical_lipschitz(f, (np.array([0.0, 0.0]), np.array([1.0, 1.0]))) == 0.0

    def test_hat_network_within_bound(self):
        pol = GrowthPolicy(kind="parametric", scale=256.0, depth_cap=7)
        hat = build_hat(
            HatBuildParams(
                n=1, L=5, C=1.0, spec=BumpSpec(d=2, M=2.0, y=(0.5, 0.5)), policy=pol
            )
        )
        emp = empirical_lipschitz(
            hat.realize, (np.zeros(2), np.ones(2)), samples=2000, norm="l1"
        )
        bound = lipschitz_bound(
            LipschitzBoundInput(L=5, C=1.0, n=67, R=1.0, d=2, norm="unit-cube-l1")
        )
        assert emp <= bound.value
        assert emp > 0.0

    def test_rejects_few_samples(self):
        with pytest.raises(ValueError):
            empirical_lipschitz(lambda p: p[:, 0], (np.zeros(1), np.ones(1)), samples=10)
