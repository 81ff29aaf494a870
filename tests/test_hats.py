"""Tests for bump functions, explicit hat networks, and unit-ball scaling."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from requ_gap import hats
from requ_gap.hats import (
    LAMBDA2_LIP_FACTOR,
    THETA_PLATEAU,
    BumpSpec,
    HatBuildParams,
    ScaledBump,
    build_hat,
    choose_amplitude_base,
    lambda_network,
    lambda_p,
    scaled_unit_ball_bump,
    theta_step,
    vartheta,
    verify_hat,
    verify_unit_ball_certificate,
)
from requ_gap.network import (
    GrowthPolicy,
    Layer,
    NeuralNetwork,
    SparseVector,
    realize,
    realize_fraction,
)

POLICY5 = GrowthPolicy(kind="parametric", depth_cap=5)


def spec1(M=1.0, y=0.5, p=2):
    return BumpSpec(d=1, M=M, y=(y,), p=p)


class TestLambdaP:
    def test_peak_is_one(self):
        assert lambda_p(spec1(M=3.0, y=0.4), 0.4) == 1.0

    def test_support_boundary_zero(self):
        s = spec1(M=2.0, y=0.5)
        assert lambda_p(s, 0.0) == 0.0
        assert lambda_p(s, 1.0) == 0.0
        assert lambda_p(s, -3.0) == 0.0

    def test_quarter_width_value(self):
        # (1 - (2*(0.25-0))^2)^2 = (3/4)^2
        assert lambda_p(spec1(M=2.0, y=0.0), 0.25) == pytest.approx(0.5625)

    def test_general_power(self):
        # p=3 at offset 1/(2M): (1 - (1/2)^3)^3 = (7/8)^3
        assert lambda_p(spec1(M=1.0, y=0.0, p=3), 0.5) == pytest.approx((7 / 8) ** 3)

    def test_requires_one_dimension(self):
        with pytest.raises(ValueError):
            lambda_p(BumpSpec(d=2, M=1.0, y=(0.5, 0.5)), np.array([0.5, 0.5]))

    @given(x=st.floats(-3.0, 3.0), M=st.floats(1.0, 8.0), y=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_range_and_support(self, x, M, y):
        v = lambda_p(spec1(M=M, y=y), x)
        assert 0.0 <= v <= 1.0
        if abs(x - y) >= 1.0 / M:
            assert v == 0.0


class TestThetaStep:
    def test_saturation(self):
        assert theta_step(0.0) == 0.0
        assert theta_step(1.0) == 1.0
        assert theta_step(-2.0) == 0.0
        assert theta_step(5.0) == 1.0

    def test_midpoint(self):
        assert theta_step(0.5) == pytest.approx(0.5)

    def test_plateau_constant(self):
        x = 1.0 - 4.0 / (3.0 * math.sqrt(3.0))
        assert theta_step(x) == pytest.approx(THETA_PLATEAU, rel=1e-14)
        assert THETA_PLATEAU == pytest.approx(0.10598, abs=5e-6)

    @given(x=st.floats(-2.0, 3.0), dx=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, x, dx):
        assert theta_step(x + dx) >= theta_step(x) - 1e-12


class TestVartheta:
    def test_center_value(self):
        s = BumpSpec(d=3, M=2.0, y=(0.25, 0.5, 0.75))
        assert vartheta(s, np.array([0.25, 0.5, 0.75])) == 1.0

    def test_face_is_zero(self):
        s = BumpSpec(d=2, M=2.0, y=(0.5, 0.5))
        assert vartheta(s, np.array([1.0, 0.5])) == 0.0

    def test_inner_cube_corner_value(self):
        # d=2, M=1, offset (1/4, 1/4): lam = (15/16)^2 each,
        # delta = 2 lam - 1, value = theta(delta)
        s = BumpSpec(d=2, M=1.0, y=(0.5, 0.5))
        v = vartheta(s, np.array([0.75, 0.75]))
        lam = (1.0 - 0.25**2) ** 2
        assert v == pytest.approx(theta_step(2 * lam - 1), rel=1e-14)
        assert v >= 0.10598

    def test_plateau_on_inner_cube(self):
        for d, M in [(1, 1.0), (2, 1.0), (2, 4.0), (3, 2.0)]:
            y = tuple([0.5] * d)
            s = BumpSpec(d=d, M=M, y=y)
            T = 1.0 / (2 * d * M)
            axes = np.linspace(-T, T, 7)
            grid = np.stack(np.meshgrid(*([axes] * d), indexing="ij"), axis=-1)
            pts = grid.reshape(-1, d) + np.asarray(y)
            assert vartheta(s, pts).min() >= 0.10598

    def test_support_exact_zero_exterior(self):
        rng = np.random.default_rng(7)
        s = BumpSpec(d=2, M=2.0, y=(0.5, 0.5))
        pts = rng.uniform(-4, 5, size=(10_000, 2))
        outside = np.max(np.abs(pts - 0.5), axis=1) >= 0.5
        pts = pts[outside]
        assert pts.shape[0] > 5000
        assert np.all(vartheta(s, pts) == 0.0)

    @pytest.mark.parametrize("p_norm", [1, 2, np.inf])
    def test_lp_norm_upper_bound(self, p_norm):
        for d, M in [(1, 1.0), (2, 2.0), (3, 1.0)]:
            s = BumpSpec(d=d, M=M, y=tuple([0.5] * d))
            axes = np.linspace(0.5 - 1 / M, 0.5 + 1 / M, 81)
            grid = np.stack(np.meshgrid(*([axes] * d), indexing="ij"), axis=-1)
            vals = vartheta(s, grid.reshape(-1, d))
            cell = (axes[1] - axes[0]) ** d
            if p_norm == np.inf:
                est = vals.max()
            else:
                est = (np.sum(vals**p_norm) * cell) ** (1.0 / p_norm)
            bound = (2.0 / M) ** (d / p_norm) if p_norm != np.inf else 1.0
            assert est <= bound * 1.02


class TestLambdaSquaredLipschitz:
    @pytest.mark.parametrize("M", [1.0, 2.0, 4.0])
    def test_empirical_slope_matches_bound(self, M):
        y = 0.5
        s = spec1(M=M, y=y)
        # the slope extremum sits at y +- 1/(sqrt(3) M); sample densely there
        x_star = y + 1.0 / (math.sqrt(3.0) * M)
        xs = np.linspace(x_star - 0.02 / M, x_star + 0.02 / M, 20_001)
        vals = lambda_p(s, xs)
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        bound = LAMBDA2_LIP_FACTOR * M
        assert slopes.max() <= bound + 1e-6
        assert slopes.max() >= 0.95 * bound

    def test_global_slope_never_exceeds_bound(self):
        s = spec1(M=3.0, y=0.3)
        xs = np.linspace(-1, 2, 300_001)
        slopes = np.abs(np.diff(lambda_p(s, xs)) / np.diff(xs))
        assert slopes.max() <= LAMBDA2_LIP_FACTOR * 3.0 + 1e-6


class TestLambdaNetwork:
    def test_peak(self):
        net = lambda_network(1.0, 0.0)
        assert realize(net, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-14)

    def test_outside_support(self):
        net = lambda_network(2.0, 0.5)
        assert realize(net, np.array([1.5]))[0] == 0.0

    def test_interior_value(self):
        net = lambda_network(2.0, 0.0)
        assert realize(net, np.array([0.25]))[0] == pytest.approx(0.03515625, abs=1e-14)

    def test_matches_closed_form_on_grid(self):
        for M, y in [(1.0, 0.3), (2.0, 0.7), (4.0, 0.0)]:
            net = lambda_network(M, y)
            xs = np.linspace(y - 2.0 / M, y + 2.0 / M, 4001)
            got = realize(net, xs[:, None])[:, 0]
            want = lambda_p(spec1(M=M, y=y), xs) / M**4
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_small_width(self):
        with pytest.raises(ValueError):
            lambda_network(0.5, 0.0)

    @pytest.mark.parametrize("M", [2.0**256, 1e300, math.inf, math.nan])
    def test_rejects_width_whose_fourth_power_overflows(self, M):
        with pytest.raises(ValueError, match="M\\*\\*4 finite"):
            lambda_network(M, 0.5)


def hat_params(n=1, L=5, C=1.0, M=1.0, d=1, policy=None, y=None):
    policy = policy or GrowthPolicy(kind="parametric", scale=256.0, depth_cap=7)
    y = y if y is not None else tuple([0.5] * d)
    return HatBuildParams(n=n, L=L, C=C, spec=BumpSpec(d=d, M=M, y=y), policy=policy)


class TestBuildHat:
    def test_amplitude_base_case(self):
        assert build_hat(hat_params()).amplitude == pytest.approx(0.25)

    def test_amplitude_width_scaling(self):
        assert build_hat(hat_params(M=2.0)).amplitude == pytest.approx(1.0 / 1024.0)

    def test_amplitude_formula(self):
        hat = build_hat(hat_params(n=2, L=6, C=1.5, M=2.0, d=2))
        want = 1.5**63 * 2.0**31.5 / (4.0 * 2.0**8)
        assert hat.amplitude == pytest.approx(want, rel=1e-12)

    def test_precondition_rejections(self):
        with pytest.raises(ValueError, match="L >= 5"):
            build_hat(hat_params(L=4))
        with pytest.raises(ValueError, match="n >= 1"):
            build_hat(hat_params(n=0))
        with pytest.raises(ValueError, match="M >= 1"):
            build_hat(hat_params(M=0.5))
        with pytest.raises(ValueError, match="C >= 1"):
            build_hat(hat_params(C=0.5))
        with pytest.raises(ValueError, match=r"C\*\*8 <= c"):
            build_hat(hat_params(C=3.0, policy=POLICY5, L=5))
        with pytest.raises(ValueError, match=r"L <= ell"):
            build_hat(hat_params(L=6, policy=POLICY5))

    def test_weight_budget_and_depth(self):
        for n, L, d in [(1, 5, 1), (1, 6, 2), (2, 7, 3)]:
            hat = build_hat(hat_params(n=n, L=L, d=d))
            net = hat.network
            assert net.depth() == L
            assert net.weight_count() <= 16 * n**8 * d + 7 * L
            assert net.max_norm() <= hat.params.policy.c(n)

    def test_materialized_hat_holds_little_besides_its_arrays(self):
        # 72,209 weights; the traced peak was 1.88 times the arrays with
        # the full-length index temporaries and a sorted copy of the key
        hat = build_hat(hat_params(n=3, L=7, d=1))
        tracemalloc.start()
        try:
            net = hat.network
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = sum(
            a.nbytes
            for layer in net.layers
            for a in (layer.weights.rows, layer.weights.cols, layer.weights.vals,
                      layer.bias.idx, layer.bias.vals)
        )
        assert peak < 1.5 * arrays

    def test_per_matrix_sparsity_inventory(self):
        n, d = 2, 2
        n8 = n**8
        hat5 = build_hat(hat_params(n=n, L=5, d=d))
        counts5 = [layer.weights.nnz for layer in hat5.network.layers]
        assert counts5[0] <= 2 * n * d
        assert counts5[1] == 2 * n8 * d
        assert counts5[2] == 7 * n8 * d
        assert counts5[3] == 8  # final collapse stage, depth-5 variant
        assert counts5[4] == 2
        hat7 = build_hat(hat_params(n=n, L=7, d=d))
        counts7 = [layer.weights.nnz for layer in hat7.network.layers]
        assert counts7[0] <= 2 * n * d
        assert counts7[1] == 2 * n8 * d
        assert counts7[2] == 7 * n8 * d
        assert counts7[3] == 7  # depth-extension entry stage
        assert counts7[4] == 5  # squaring repeat stage
        assert counts7[5] == 6  # exit stage
        assert counts7[6] == 2

    def test_realize_matches_closed_form(self):
        hat = build_hat(hat_params(n=1, L=5, M=2.0, d=2))
        rng = np.random.default_rng(11)
        pts = 0.5 + rng.uniform(-0.75, 0.75, size=(2000, 2))
        err = np.abs(hat.realize(pts) - hat.closed_form(pts))
        assert err.max() <= 1e-9 * hat.amplitude

    def test_network_support_containment(self):
        hat = build_hat(hat_params(M=2.0, d=2))
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2, 3, size=(10_000, 2))
        outside = np.max(np.abs(pts - 0.5), axis=1) >= 0.5
        vals = hat.realize(pts[outside])
        assert np.abs(vals).max() <= 1e-12 * hat.amplitude

    def test_realize_agrees_with_exact_rational_pass(self):
        hat = build_hat(hat_params(n=1, L=5, C=1.0, M=1.0, d=2))
        rng = np.random.default_rng(17)
        pts = 0.5 + rng.uniform(-0.9, 0.9, size=(50, 2))
        exact = np.array([float(realize_fraction(hat.network, p)[0]) for p in pts])
        np.testing.assert_allclose(hat.realize(pts), exact, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    def test_realize_agrees_with_exact_rational_pass_at_n2(self, d):
        # C = 256**(1/8) = 2: 2,836 stored weights at d = 1, 6,172 at d = 2
        C = choose_amplitude_base(GrowthPolicy(kind="parametric", scale=256.0), 2, d, 5)
        hat = build_hat(hat_params(n=2, L=5, C=C, M=2.0, d=d))
        rng = np.random.default_rng(19)
        pts = 0.5 + rng.uniform(-0.4, 0.4, size=(4, d))

        def exact(net):
            return np.array([float(realize_fraction(net, p)[0]) for p in pts])

        amp = hat.amplitude
        np.testing.assert_allclose(hat.realize(pts), exact(hat.network), rtol=0, atol=1e-13 * amp)
        # the exact pass reads the stored weights: scaling the bias of
        # layer-2 row 0 by 1.5 moves it far past rounding
        layers = list(hat.network.layers)
        bias = layers[1].bias
        mutated = SparseVector(bias.size, bias.idx, np.where(bias.idx == 0, 1.5, 1.0) * bias.vals)
        layers[1] = Layer(layers[1].weights, mutated)
        moved = np.abs(exact(NeuralNetwork(tuple(layers))) - hat.realize(pts)).max()
        assert moved > 1e-3 * amp

    def test_float64_forward_pass_small_case(self):
        # for tiny gain constants the plain forward pass is also accurate
        hat = build_hat(hat_params(n=1, L=5, C=1.0, M=1.0, d=1))
        xs = np.linspace(-0.5, 1.5, 501)[:, None]
        np.testing.assert_allclose(
            realize(hat.network, xs)[:, 0], hat.closed_form(xs), atol=1e-12
        )

    def test_choose_amplitude_base(self):
        pol = GrowthPolicy(kind="parametric", scale=256.0, depth_cap=7)
        C = choose_amplitude_base(pol, 1, 1, 5)
        assert C == pytest.approx(256.0 ** (1 / 8))
        assert C**8 <= pol.c(1) * (1 + 1e-12)

    @given(scale=st.floats(1.0, 1e6), theta=st.floats(0.0, 2.0), n=st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_amplitude_base_is_the_largest_double_that_fits(self, scale, theta, n):
        pol = GrowthPolicy(theta_c=theta, scale=scale, depth_cap=7)
        C, c = choose_amplitude_base(pol, n, 1, 5), pol.c(n)
        assert C**8 <= c < math.nextafter(C, math.inf) ** 8

    def test_amplitude_base_meets_c_at_the_weight_budget_where_c_falls(self):
        # c(1) = 2082, but the n = 1 hat has a weight budget of 51, and c(51) = 47
        pol = GrowthPolicy(kappa_c=-2.0, scale=1000.0, depth_cap=5)
        C = choose_amplitude_base(pol, 1, 1, 5)
        assert pol.c(51) == 47
        assert C**8 <= 47 < math.nextafter(C, math.inf) ** 8
        rep = verify_hat(build_hat(hat_params(C=C, M=2.0, policy=pol)), num_points=500)
        assert rep["budget"] == 51 and rep["max_norm"] <= 47
        assert rep["pass"]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 0}, "n >= 1"),
            ({"L": 4}, "L >= 5"),
            ({"L": 8}, "L <= ell"),
            ({"M": 0.5}, "M >= 1"),
            ({"C": 0.5}, "C >= 1"),
            ({"C": 2.5}, r"C\*\*8 <= c"),
            ({"y": (1.5,)}, r"y in \[0,1\]\^d"),
        ],
    )
    def test_params_are_checked_on_creation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            hat_params(**kwargs)

    # 1e300**8 overflows a float: it raised OverflowError, not ValueError
    @pytest.mark.parametrize("C", [1e300, 2.0**128, math.inf, math.nan])
    def test_C_whose_eighth_power_is_not_finite_is_rejected(self, C):
        with pytest.raises(ValueError, match=r"C must be < 2\*\*128"):
            hat_params(C=C)

    def test_gain_past_double_precision_raises(self):
        # the hat of `lipschitz --L 10 --depth-cap 10 --scale 256`: C = 2
        pol = GrowthPolicy(scale=256.0, depth_cap=10)
        hat = build_hat(hat_params(L=10, C=2.0, policy=pol))
        with pytest.raises(ValueError, match=r"gain 2\*\*1023\.0 is too large"):
            hat.gain

    def test_gain_far_past_double_precision_raises_before_the_power(self):
        # its exact power would have about 2**45 bits
        pol = GrowthPolicy(scale=256.0, depth_cap=40)
        hat = build_hat(hat_params(L=40, C=2.0, M=2.0, policy=pol))
        with pytest.raises(ValueError, match=r"gain 2\*\*1\.1e\+12 is too large"):
            hat.gain


class TestVerifyHat:
    def test_fails_outside_the_budget_class(self):
        # c falls like log(2n)**-2: C**8 = c(1) = 2082, but the n = 1 hat has
        # up to 51 weights, and c(51) = 47
        pol = GrowthPolicy(kappa_c=-2.0, scale=1000.0, depth_cap=5)
        # one ulp below c(1)**(1/8), which rounds up
        C = math.nextafter(pol.c(1) ** 0.125, 0.0)
        hat = build_hat(HatBuildParams(n=1, L=5, C=C, spec=spec1(M=2.0), policy=pol))
        rep = verify_hat(hat, num_points=500)
        assert rep["max_rel_err"] <= 1e-9 and rep["depth"] == 5
        assert rep["max_norm"] > pol.c(rep["budget"])
        assert not rep["pass"]

    def test_passes_on_valid_params(self):
        rep = verify_hat(build_hat(hat_params(n=1, L=6, C=1.0, M=2.0, d=2)), num_points=2000)
        assert rep["pass"]
        assert rep["max_rel_err"] <= 1e-9
        assert rep["weight_count"] <= rep["budget"]
        assert rep["depth"] == 6

    def test_deterministic_given_seed(self):
        p = hat_params(n=1, L=5, M=1.0, d=1)
        assert verify_hat(build_hat(p), num_points=500, seed=3) == verify_hat(
            build_hat(p), num_points=500, seed=3
        )

    def test_points_drawn_in_chunks_give_the_one_chunk_report(self, monkeypatch):
        hat = build_hat(hat_params(n=1, L=6, C=1.0, M=2.0, d=2))
        whole = verify_hat(hat, num_points=1000, seed=5)
        # four chunks of 600 coordinates, the last of 100 points
        monkeypatch.setattr(hats, "_COORDS_PER_CHUNK", 600)
        assert verify_hat(hat, num_points=1000, seed=5) == whole

    @pytest.mark.parametrize("d", [3000, 20000])
    def test_chunks_are_bounded_by_coordinates(self, d, monkeypatch):
        # 2**14 coordinates make 5 points of d = 3000 and one point of
        # d = 20000, more than 2**14 coordinates on its own
        hat = build_hat(hat_params(n=1, L=5, M=2.0, d=d))
        seen = []
        realize = hats.BuiltHat.realize

        def counting(self, x):
            seen.append(np.asarray(x).size)
            return realize(self, x)

        monkeypatch.setattr(hats.BuiltHat, "realize", counting)
        report = verify_hat(hat, num_points=7, seed=2)
        assert sum(seen) == 7 * d and max(seen) <= max(2**14, d)
        seen.clear()
        monkeypatch.setattr(hats, "_COORDS_PER_CHUNK", 7 * d)
        assert verify_hat(hat, num_points=7, seed=2) == report and seen == [7 * d]


class TestUnitBallScaling:
    def test_amplitude_is_kappa_at_unit_width(self):
        g, cert = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), POLICY5)
        assert g.amplitude == pytest.approx(cert.kappa)

    def test_vanishing_supremum_raises_no_overflow_warning(self):
        # log2 C1 is far below -1024 here, and 2**-log2(C1) is no double
        pol = GrowthPolicy(kind="parametric", scale=256, depth_cap=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, cert = scaled_unit_ball_bump(1.0, 100.0, 2.0, (0.5,), pol)
        assert cert.C1 == 0.0
        assert cert.kappa == ((16 + 7 * cert.L) * (2 * cert.n0) ** 8) ** -1.0

    def test_width_scaling_ratio(self):
        g1, _ = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), POLICY5)
        g16, _ = scaled_unit_ball_bump(1.0, 1.0, 16.0, (0.5,), POLICY5)
        assert g16.amplitude / g1.amplitude == pytest.approx(16.0 ** (-64.0 / 9.0))

    def test_kappa_budget_component(self):
        g, cert = scaled_unit_ball_bump(0.5, 2.0, 4.0, (0.5, 0.5), POLICY5)
        assert cert.kappa <= ((16 * 2 + 7 * cert.L) * (2 * cert.n0) ** 8) ** (-0.5)
        assert cert.kappa <= 1.0 / cert.C1 * (1 + 1e-12)

    def test_rejects_gamma_at_or_above_depth_allowance(self):
        # depth cap 5, theta_c = 0: the allowance is (2^5-1)*(0+1/2) = 15.5
        with pytest.raises(ValueError):
            scaled_unit_ball_bump(1.0, 15.5, 1.0, (0.5,), POLICY5)

    def test_picks_deeper_network_when_allowed(self):
        pol = GrowthPolicy(kind="parametric", depth_cap=7)
        _, cert = scaled_unit_ball_bump(1.0, 20.0, 1.0, (0.5,), pol)
        assert cert.L == 6  # smallest depth with 20 < (2^L - 1)/2

    @given(
        theta=st.floats(0.0, 4.0),
        scale=st.floats(1.0, 256.0),
        cap=st.one_of(st.integers(5, 40), st.just(math.inf)),
        gamma=st.floats(1e-3, 1e6),
        k=st.integers(5, 24),
        on_boundary=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_certified_depth_keeps_gamma_below_its_allowance(
        self, theta, scale, cap, gamma, k, on_boundary
    ):
        # what makes a re-check of the parametric tail needless: the depth
        # that is certified has gamma < (2**L - 1) (theta_c + 1/2), in floats
        if on_boundary:
            gamma = (2.0**k - 1.0) * (theta + 0.5)
        pol = GrowthPolicy(kind="parametric", theta_c=theta, scale=scale, depth_cap=cap)
        try:
            _, cert = scaled_unit_ball_bump(1.0, gamma, 2.0, (0.5,), pol)
        except ValueError:
            assume(False)
        assert gamma < (2.0**cert.L - 1.0) * (theta + 0.5)

    def test_call_evaluates_scaled_bump(self):
        g, _ = scaled_unit_ball_bump(1.0, 1.0, 2.0, (0.25, 0.25), POLICY5)
        assert g(np.array([0.25, 0.25])) == pytest.approx(g.amplitude)
        assert g(np.array([0.9, 0.9])) == 0.0


class TestVerifyUnitBallCertificate:
    def test_both_branches_pass(self):
        g, cert = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), POLICY5)
        threshold = 16 * cert.n**8 * cert.d + 7 * cert.L
        rep = verify_unit_ball_certificate(g, cert, POLICY5, t_max=threshold + 10)
        assert rep["branch1"]["pass"]
        assert rep["branch2"]["checked"]
        assert rep["branch2"]["pass"]
        assert rep["pass"]

    def test_oversized_amplitude_fails_branch1(self):
        g, cert = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), POLICY5)
        bad = ScaledBump(spec=g.spec, amplitude=1.0)
        rep = verify_unit_ball_certificate(bad, cert, POLICY5, t_max=1000)
        assert rep["branch1"]["failures"]
        assert not rep["pass"]

    # c(1)**(1/8) rounds up at these scales: its float eighth power is
    # above c(1), and the hat stored 3.0000000000000004 at scale 3
    @pytest.mark.parametrize("scale", [3, 5, 6, 7, 11, 13])
    def test_both_branches_pass_where_the_eighth_root_rounds_up(self, scale):
        pol = GrowthPolicy(scale=float(scale), depth_cap=5)
        g, cert = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), pol)
        threshold = 16 * cert.n**8 * cert.d + 7 * cert.L
        rep = verify_unit_ball_certificate(g, cert, pol, t_max=threshold)
        assert rep["branch2"]["checked"]
        assert rep["branch2"]["max_norm"] <= scale
        assert rep["pass"]

    def test_amplitude_above_the_hats_fails_branch2(self):
        g, cert = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), POLICY5)
        hat = build_hat(
            HatBuildParams(n=cert.n, L=cert.L, C=1.0, spec=g.spec, policy=POLICY5)
        )
        above = ScaledBump(spec=g.spec, amplitude=math.nextafter(hat.amplitude, 1.0))
        threshold = 16 * cert.n**8 * cert.d + 7 * cert.L
        rep = verify_unit_ball_certificate(above, cert, POLICY5, t_max=threshold)
        # the hat itself verifies; only the amplitude check fails
        assert rep["branch2"]["checked"] and rep["branch2"]["max_rel_err"] <= 1e-9
        assert not rep["branch2"]["pass"]
        assert not rep["pass"]

    def test_small_t_max_skips_branch2(self):
        g, cert = scaled_unit_ball_bump(1.0, 1.0, 1.0, (0.5,), POLICY5)
        threshold = 16 * cert.n**8 * cert.d + 7 * cert.L
        rep = verify_unit_ball_certificate(g, cert, POLICY5, t_max=threshold - 1)
        assert rep["branch1"]["pass"]
        assert not rep["branch2"]["checked"]
        assert rep["pass"]
