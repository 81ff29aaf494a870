"""Tests for the sparse network data model and structural operations."""

import hashlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from requ_gap import network
from requ_gap.network import (
    GrowthPolicy,
    Layer,
    NeuralNetwork,
    NetworkError,
    ParseError,
    Run,
    SigmaBudget,
    SparseMatrix,
    SparseVector,
    StridedLayer,
    StridedNetwork,
    check_membership,
    depth_extend,
    deserialize,
    eliminate_dead_layers,
    identical,
    realize,
    realize_fraction,
    rho_p,
    serialize,
    stored_as,
    sum_networks,
)
from requ_gap.hats import (
    BumpSpec,
    HatBuildParams,
    build_hat,
    choose_amplitude_base,
    lambda_network,
)


def net_from_dense(*layers):
    return NeuralNetwork.from_dense([(np.atleast_2d(a), np.atleast_1d(b)) for a, b in layers])


class TestRhoP:
    def test_negative_input(self):
        assert rho_p(-1.0, 2) == 0.0

    def test_square_of_positive(self):
        assert rho_p(2.0, 2) == 4.0

    def test_cube(self):
        assert rho_p(0.5, 3) == 0.125

    def test_vectorized(self):
        np.testing.assert_allclose(rho_p(np.array([-2.0, 0.0, 3.0]), 2), [0.0, 0.0, 9.0])

    def test_bad_power(self):
        with pytest.raises(ValueError):
            rho_p(1.0, 0)


class TestRealize:
    def test_affine_identity(self):
        net = net_from_dense(([[1.0]], [0.0]))
        assert realize(net, np.array([3.0]))[0] == 3.0

    def test_activation_kills_negative(self):
        net = net_from_dense(([[1.0]], [0.0]), ([[1.0]], [0.0]))
        assert realize(net, np.array([-2.0]))[0] == 0.0

    def test_activation_squares(self):
        net = net_from_dense(([[1.0]], [0.0]), ([[1.0]], [0.0]))
        assert realize(net, np.array([3.0]))[0] == 9.0

    def test_far_bump_squares_to_inf_without_a_warning(self):
        # (y - x)**2 overflows; the next layer's ReQU of -inf gives 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert realize(lambda_network(1.0, 1e300), np.array([0.5]))[0] == 0.0

    def test_batch_shape(self):
        net = net_from_dense(([[1.0, 2.0]], [0.5]))
        out = realize(net, np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out[:, 0], [3.5, 0.5])

    def test_dimension_mismatch(self):
        net = net_from_dense(([[1.0, 2.0]], [0.0]))
        with pytest.raises(NetworkError):
            realize(net, np.array([1.0]))

    def test_matches_exact_rational_pass(self):
        rng = np.random.default_rng(0)
        net = net_from_dense(
            (rng.normal(size=(3, 2)), rng.normal(size=3)),
            (rng.normal(size=(1, 3)), rng.normal(size=1)),
        )
        x = rng.normal(size=2)
        exact = float(realize_fraction(net, x)[0])
        assert realize(net, x)[0] == pytest.approx(exact, abs=1e-12)


class TestComplexityMetrics:
    def test_identity_metrics(self):
        net = net_from_dense((np.eye(2), [0.0, 0.0]))
        assert net.weight_count() == 2
        assert net.depth() == 1
        assert net.max_norm() == 1.0

    def test_all_zero_layer(self):
        net = NeuralNetwork(
            (Layer(SparseMatrix((1, 1), [], [], []), SparseVector(1, [], [])),)
        )
        assert net.weight_count() == 0

    def test_no_explicit_zeros_stored(self):
        net = net_from_dense(([[1.0, 0.0], [0.0, 0.0]], [0.0, 5.0]))
        assert net.weight_count() == 2

    def test_hat_network_budget(self):
        policy = GrowthPolicy(kind="parametric", depth_cap=5)
        spec = BumpSpec(d=2, M=1.0, y=(0.5, 0.5))
        net = build_hat(HatBuildParams(n=1, L=5, C=1.0, spec=spec, policy=policy)).network
        assert net.weight_count() <= 16 * 1 * 2 + 7 * 5  # = 67


class TestMembership:
    def test_hat_network_membership(self):
        policy = GrowthPolicy(kind="parametric", depth_cap=5)
        spec = BumpSpec(d=2, M=1.0, y=(0.5, 0.5))
        net = build_hat(HatBuildParams(n=1, L=5, C=1.0, spec=spec, policy=policy)).network
        ok, violations = check_membership(net, SigmaBudget(67, policy, input_dim=2))
        assert ok, violations

    def test_weight_budget_violated(self):
        net = net_from_dense(([[1.0, 1.0]], [1.0]))
        ok, violations = check_membership(
            net, SigmaBudget(2, GrowthPolicy(kind="parametric", depth_cap=5))
        )
        assert not ok
        assert any("weight_count" in v for v in violations)

    def test_norm_violation_flagged(self):
        net = net_from_dense(([[3.0]], [0.0]))
        policy = GrowthPolicy(kind="parametric", scale=2.0, depth_cap=5)
        ok, violations = check_membership(net, SigmaBudget(10, policy))
        assert not ok
        assert any("max_norm" in v for v in violations)

    def test_infinite_limits_vacuous(self):
        net = net_from_dense(([[7.0]], [0.0]))
        policy = GrowthPolicy(kind="parametric", theta_c=1.0, depth_cap=float("inf"))
        ok, _ = check_membership(net, SigmaBudget(10, policy))
        assert ok

    @given(
        extra_n=st.integers(0, 100),
        extra_scale=st.floats(0.0, 50.0),
        n=st.integers(2, 40),
    )
    @settings(max_examples=50, deadline=None)
    def test_membership_monotone(self, extra_n, extra_scale, n):
        net = net_from_dense(([[1.0, -2.0]], [0.5]))
        small = SigmaBudget(n, GrowthPolicy(kind="parametric", scale=2.0, depth_cap=5))
        big = SigmaBudget(
            n + extra_n,
            GrowthPolicy(kind="parametric", scale=2.0 + extra_scale, depth_cap=6),
        )
        ok_small, _ = check_membership(net, small)
        ok_big, _ = check_membership(net, big)
        if ok_small:
            assert ok_big


class TestDepthExtend:
    def test_same_depth_is_identity(self):
        net = lambda_network(1.0, 0.3)
        assert depth_extend(net, net.depth()) is net

    def test_two_layer_half(self):
        # realizes x/2 on [-1, 1] (output within [-1/2, 1/2])
        net = net_from_dense(([[1.0], [-1.0]], [0.0, 0.0]), ([[0.5, -0.5]], [0.0]))
        ext = depth_extend(net, 5)
        assert ext.depth() == 5
        x = np.random.default_rng(0).uniform(-1, 1, (1000, 1))
        np.testing.assert_allclose(realize(ext, x), realize(net, x), atol=1e-12)
        assert ext.weight_count() <= net.weight_count() + 7 * (5 - net.depth())
        assert ext.max_norm() <= max(net.max_norm(), 1.0)

    def test_constant_network(self):
        net = net_from_dense(([[0.0]], [0.3]))
        ext = depth_extend(net, 7)
        assert ext.depth() == 7
        x = np.linspace(-5, 5, 100)[:, None]
        np.testing.assert_allclose(realize(ext, x)[:, 0], 0.3, atol=1e-12)

    def test_depth_one_source(self):
        net = net_from_dense(([[0.5]], [0.25]))
        ext = depth_extend(net, 4)
        x = np.random.default_rng(1).uniform(-1, 1, (500, 1))
        np.testing.assert_allclose(realize(ext, x), realize(net, x), atol=1e-12)

    def test_rejects_shrinking(self):
        net = lambda_network(1.0, 0.5)
        with pytest.raises(NetworkError):
            depth_extend(net, 2)

    def test_rejects_vector_output(self):
        net = net_from_dense((np.eye(2), [0.0, 0.0]))
        with pytest.raises(NetworkError):
            depth_extend(net, 3)


class TestSumNetworks:
    def test_additive_identity(self):
        net = lambda_network(1.0, 0.4)
        zero = net_from_dense(([[0.0]], [0.0]))
        s = sum_networks(net, zero)
        x = np.random.default_rng(2).uniform(-1, 2, (1000, 1))
        np.testing.assert_allclose(realize(s, x), realize(net, x), atol=1e-12)

    def test_disjoint_bumps(self):
        n1 = lambda_network(4.0, 0.25)
        n2 = lambda_network(4.0, 0.75)
        s = sum_networks(n1, n2)
        x = np.linspace(0, 1, 2001)[:, None]
        np.testing.assert_allclose(
            realize(s, x), realize(n1, x) + realize(n2, x), atol=1e-12
        )

    def test_doubling(self):
        # f bounded in [-1/2, 1/2]: a half-height bump
        f = net_from_dense(
            ([[1.0], [-1.0]], [-0.5, 0.5]),
            ([[-1.0, -1.0]], [1.0]),
            ([[0.5]], [0.0]),
        )
        s = sum_networks(f, f)
        x = np.random.default_rng(3).uniform(-1, 2, (1000, 1))
        np.testing.assert_allclose(realize(s, x), 2 * realize(f, x), atol=1e-12)

    def test_weight_bound(self):
        n1 = lambda_network(1.0, 0.2)
        n2 = lambda_network(2.0, 0.8)
        s = sum_networks(n1, n2)
        assert s.weight_count() <= 9 * max(n1.weight_count(), n2.weight_count())
        assert s.depth() == max(n1.depth(), n2.depth())

    def test_unequal_depths(self):
        shallow = net_from_dense(([[0.5]], [0.0]))  # x/2, bounded on [-1,1]
        deep = lambda_network(1.0, 0.5)
        s = sum_networks(shallow, deep)
        assert s.depth() == deep.depth()
        x = np.random.default_rng(4).uniform(-1, 1, (1000, 1))
        np.testing.assert_allclose(
            realize(s, x), realize(shallow, x) + realize(deep, x), atol=1e-12
        )

    def test_depth_one_pair(self):
        a = net_from_dense(([[2.0]], [1.0]))
        b = net_from_dense(([[-1.0]], [0.5]))
        s = sum_networks(a, b)
        assert s.depth() == 1
        x = np.array([[1.5]])
        np.testing.assert_allclose(realize(s, x), realize(a, x) + realize(b, x))

    def test_input_dim_mismatch(self):
        a = net_from_dense(([[1.0, 1.0]], [0.0]))
        b = net_from_dense(([[1.0]], [0.0]))
        with pytest.raises(NetworkError):
            sum_networks(a, b)


class TestStructureIsPinned:
    """The stored order of summed and extended networks, byte for byte."""

    PINNED = {
        "sum-check-default": (
            lambda: sum_networks(
                depth_extend(lambda_network(1.0, 0.25), 5), lambda_network(2.0, 0.75)
            ),
            "0629c015eb3b2605dde1333bac9d8b1850c3cf53a850c17f840c3398202b3ab6",
        ),
        # weight and bias cancel, so the summed layer stores fewer entries
        "sum-depth-1-cancelling": (
            lambda: sum_networks(
                net_from_dense(([[2.0, 1.0]], [1.0])), net_from_dense(([[-2.0, 0.5]], [-1.0]))
            ),
            "0e1a180ebeabf07db3054c2c6ae191b201834122cd79b3d45b106f021ee73809",
        ),
        "sum-unequal-depths": (
            lambda: sum_networks(net_from_dense(([[0.5]], [0.0])), lambda_network(1.0, 0.5)),
            "d48fea05d6ff14845672fcd383ade71f9e16e9fb380d677a30dbd24c00355eac",
        ),
        "extend-depth-1": (
            lambda: depth_extend(net_from_dense(([[0.5, -0.25]], [0.125])), 4),
            "0783e35d7833afe01f80af8f74fb41496a40cf39545fd9b1d21d99754b2f6999",
        ),
        "extend-lambda": (
            lambda: depth_extend(lambda_network(4.0, 0.5), 6),
            "068b4bb7ee5502232b95e8578bef827ef4152b4e285f2908be02d523722da21b",
        ),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_bytes_are_pinned(self, case):
        build, digest = self.PINNED[case]
        assert hashlib.sha256(serialize(build())).hexdigest() == digest


class TestEliminateDeadLayers:
    def test_truncates_at_zero_layer(self):
        # layer 2 all-zero: realization is the tail applied to 0
        net = net_from_dense(
            ([[1.0]], [2.0]),
            ([[0.0]], [0.0]),
            ([[1.0]], [0.25]),
        )
        reduced = eliminate_dead_layers(net)
        assert reduced.depth() < net.depth()
        x = np.linspace(-3, 3, 50)[:, None]
        np.testing.assert_allclose(realize(reduced, x), realize(net, x), atol=1e-12)

    def test_zero_final_layer(self):
        net = net_from_dense(([[1.0]], [1.0]), ([[0.0]], [0.0]))
        reduced = eliminate_dead_layers(net)
        assert reduced.depth() == 1
        np.testing.assert_allclose(realize(reduced, np.array([[2.0]])), 0.0)

    def test_no_dead_layers_unchanged(self):
        net = lambda_network(1.0, 0.5)
        assert eliminate_dead_layers(net) is net


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        net = net_from_dense(
            (rng.normal(size=(3, 2)), rng.normal(size=3)),
            (rng.normal(size=(2, 3)), rng.normal(size=2)),
            (rng.normal(size=(1, 2)), rng.normal(size=1)),
        )
        back = deserialize(serialize(net))
        assert back.depth() == net.depth()
        for l1, l2 in zip(net.layers, back.layers):
            np.testing.assert_array_equal(l1.weights.to_dense(), l2.weights.to_dense())
            np.testing.assert_array_equal(l1.bias.to_dense(), l2.bias.to_dense())
        # bit-exact round trip
        assert serialize(back) == serialize(net)

    def test_empty_stream(self):
        with pytest.raises(ParseError):
            deserialize(b"")

    def test_parse_error_has_offset(self):
        try:
            deserialize(b'{"input_dim": 1, "layers": [!]}')
        except ParseError as exc:
            assert exc.offset is not None
        else:
            pytest.fail("expected ParseError")

    def test_parse_error_offset_counts_bytes(self):
        data = '{"\u00e9\u20ac": !}'.encode()
        with pytest.raises(ParseError) as info:
            deserialize(data)
        assert info.value.offset == data.index(b"!")

    def test_dimension_chain_violation_names_layer(self):
        doc = (
            b'{"input_dim": 1, "layers": ['
            b'{"rows": 2, "cols": 1, "entries": [[0,0,1.0]], "bias": []},'
            b'{"rows": 1, "cols": 3, "entries": [[0,0,1.0]], "bias": []}]}'
        )
        with pytest.raises(ParseError, match="layer 2"):
            deserialize(doc)


def json_dumps_encoder(net: NeuralNetwork) -> bytes:
    """The per-entry json.dumps encoder that serialize replaced: the oracle
    for its bytes."""
    layers = [
        {
            "rows": layer.out_dim,
            "cols": layer.in_dim,
            "entries": [
                [int(i), int(j), float(v)]
                for i, j, v in zip(layer.weights.rows, layer.weights.cols, layer.weights.vals)
            ],
            "bias": [[int(i), float(v)] for i, v in zip(layer.bias.idx, layer.bias.vals)],
        }
        for layer in net.layers
    ]
    return json.dumps({"input_dim": net.input_dim, "layers": layers}).encode("utf-8")


def without_zero_weights(net: NeuralNetwork) -> NeuralNetwork:
    """net as deserialize returns it: explicit zero weights dropped."""
    layers = []
    for layer in net.layers:
        w = layer.weights
        keep = w.vals != 0.0
        layers.append(
            Layer(SparseMatrix(w.shape, w.rows[keep], w.cols[keep], w.vals[keep]), layer.bias)
        )
    return NeuralNetwork(tuple(layers))


# both signed zeros, subnormals, and both sides of repr's switch to exponent
# form below 1e-4 and at 1e16
WIRE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e-05, 9.999999999999999e-05, 0.0001,
    9999999999999998.0, 1e16, -1e16, 1.0000000000000002e16, 0.1, -1.0, 1e300,
]


@st.composite
def wire_networks(draw):
    """Networks with every coordinate either absent or holding a wire value,
    stored in shuffled order; layers may have no rows, entries or biases."""
    values = st.one_of(
        st.sampled_from(WIRE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
    )
    dims = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5))
    layers = []
    for cols, rows in zip(dims, dims[1:]):
        cells = draw(st.permutations([(i, j) for i in range(rows) for j in range(cols)]))
        cells = cells[: draw(st.integers(0, len(cells)))]
        vals = draw(st.lists(values, min_size=len(cells), max_size=len(cells)))
        idx = draw(st.permutations(range(rows)))[: draw(st.integers(0, rows))]
        bias = draw(st.lists(values, min_size=len(idx), max_size=len(idx)))
        weights = SparseMatrix(
            (rows, cols),
            np.array([i for i, _ in cells], dtype=np.int64),
            np.array([j for _, j in cells], dtype=np.int64),
            np.array(vals, dtype=np.float64),
        )
        layers.append(Layer(weights, SparseVector(rows, idx, bias)))
    return NeuralNetwork(tuple(layers))


SIGNED_ZEROS = NeuralNetwork(
    (
        Layer(
            SparseMatrix((2, 2), [1, 0, 0], [0, 1, 0], [-0.0, 0.0, 1e-05]),
            SparseVector(2, [1, 0], [0.0, -0.0]),
        ),
        Layer(SparseMatrix((0, 2), [], [], []), SparseVector(0, [], [])),
    )
)


class TestWireFormat:
    @given(net=wire_networks())
    @example(net=SIGNED_ZEROS)
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_json_dumps_and_round_trip(self, net):
        data = serialize(net)
        assert data == json_dumps_encoder(net)
        back = deserialize(data)
        assert identical(back, without_zero_weights(net))
        assert serialize(back) == json_dumps_encoder(without_zero_weights(net))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["weight", "bias"])
    def test_serialize_rejects_non_finite(self, bad, where):
        w, b = ([bad, 1.0], [1.0]) if where == "weight" else ([1.0, 1.0], [bad])
        layer = Layer(SparseMatrix((1, 2), [0, 0], [0, 1], w), SparseVector(1, [0], b))
        net = NeuralNetwork((layer,))
        with pytest.raises(NetworkError, match="layer 1"):
            serialize(net)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["weight", "bias"])
    def test_deserialize_rejects_non_finite_constants(self, constant, where):
        w, b = (constant, "1.0") if where == "weight" else ("1.0", constant)
        doc = (
            '{"input_dim": 1, "layers": [{"rows": 1, "cols": 1, '
            f'"entries": [[0, 0, {w}]], "bias": [[0, {b}]]}}]}}'
        ).encode()
        with pytest.raises(ParseError, match=constant.lstrip("-")):
            deserialize(doc)

    def test_multi_digit_indices(self):
        # each side of every digit-count step up to the block's widest index:
        # the largest index deserialize accepts, either side of 9 digits, and
        # 10 digits past 2**32
        for widest in (2**53 - 1, 10**9 - 1, 10**9, 10**10 - 1):
            steps = [10**k + e for k in range(16) for e in (-1, 0)]
            idx = np.array([i for i in steps if i < widest] + [widest])
            vals = np.resize(WIRE_VALUES, idx.size)
            wide = 2**53
            net = NeuralNetwork(
                (
                    Layer(
                        SparseMatrix((wide, 3), idx, idx % 3, vals),
                        SparseVector(wide, idx[::-1], vals),
                    ),
                    Layer(SparseMatrix((7, wide), idx % 7, idx, -vals), SparseVector(7, [], [])),
                )
            )
            data = serialize(net)
            assert data == json_dumps_encoder(net)
            assert identical(deserialize(data), without_zero_weights(net))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_record_counts_at_block_edges(self, offset):
        count = network._RECORDS_PER_BLOCK + offset
        rng = np.random.default_rng(count)
        rows = rng.permutation(count)  # indices of 1 to 5 digits in every block
        vals = np.concatenate([WIRE_VALUES, rng.normal(size=count)])[:count]
        layer = Layer(
            SparseMatrix((count, 1), rows, np.zeros(count, np.int64), vals),
            SparseVector(count, rows, vals[::-1]),
        )
        net = NeuralNetwork((layer,))
        assert serialize(net) == json_dumps_encoder(net)
        pieces = list(network.encode(net))
        assert b"".join(pieces) == serialize(net)
        # no piece holds more than a block of records
        assert max(piece.count(b"[") for piece in pieces) <= network._RECORDS_PER_BLOCK

    def test_encode_rejects_a_non_finite_last_layer_before_any_piece(self):
        first = Layer(SparseMatrix((1, 1), [0], [0], [2.0]), SparseVector(1, [], []))
        last = Layer(SparseMatrix((1, 1), [0], [0], [np.inf]), SparseVector(1, [], []))
        # encode raises when called, not when its first piece is asked for
        with pytest.raises(NetworkError, match="layer 2"):
            network.encode(NeuralNetwork((first, last)))

    def test_empty_entries_next_to_bias(self):
        layer = Layer(SparseMatrix((2, 3), [], [], []), SparseVector(2, [1], [0.5]))
        last = Layer(SparseMatrix((1, 2), [0], [1], [2.0]), SparseVector(1, [], []))
        net = NeuralNetwork((layer, last))
        assert serialize(net) == json_dumps_encoder(net)
        assert b'"entries": [], "bias": [[1, 0.5]]' in serialize(net)

    def test_materialized_hat_bytes_equal_json_dumps(self):
        # n=3, L=5, d=1: real hat structure, indices of up to 5 digits
        params = HatBuildParams(
            n=3, L=5, C=1.0, spec=BumpSpec(d=1, M=2.0, y=(0.5,)), policy=GrowthPolicy()
        )
        net = build_hat(params).network
        assert net.weight_count() == 72_195
        assert serialize(net) == json_dumps_encoder(net)


def layer2_doc(**layer2) -> bytes:
    """A two-layer document whose second layer takes the given fields."""
    second = {"rows": 1, "cols": 2, "entries": [[0, 0, 1.0], [0, 1, -1.0]], "bias": [[0, 0.5]]}
    first = {"rows": 2, "cols": 1, "entries": [[0, 0, 1.0], [1, 0, 2.0]], "bias": []}
    return json.dumps({"input_dim": 1, "layers": [first, {**second, **layer2}]}).encode()


class TestDeserializeHardening:
    CASES = {
        "entry-of-two": dict(entries=[[0, 0]]),
        "entry-of-four": dict(entries=[[0, 0, 1.0, 2.0]]),
        "ragged-entries": dict(entries=[[0, 0, 1.0], [0, 1]]),
        "bias-of-three": dict(bias=[[0, 0.5, 1.0]]),
        "bias-of-one": dict(bias=[[0]]),
        "string-value": dict(entries=[[0, 0, "1.0"]]),
        "string-index": dict(entries=[["0", 0, 1.0]]),
        "boolean-value": dict(entries=[[0, 0, True]]),
        "boolean-index": dict(bias=[[False, 0.5]]),
        "null-value": dict(bias=[[0, None]]),
        "nested-value": dict(entries=[[0, 0, [1.0]]]),
        "object-entry": dict(entries=[{"i": 0, "j": 0, "v": 1.0}]),
        "entries-not-a-list": dict(entries={"0": 1.0}),
        "fractional-index": dict(entries=[[0, 0.5, 1.0]]),
        "negative-index": dict(entries=[[-1, 0, 1.0]]),
        "huge-index": dict(entries=[[1e300, 0, 1.0]]),
        "index-out-of-range": dict(entries=[[1, 0, 1.0]]),
        "overflowing-value": dict(entries=[[0, 0, 10**400]]),
        "duplicate-coordinate": dict(entries=[[0, 1, 1.0], [0, 0, 1.0], [0, 1, 2.0]]),
        "duplicate-bias-index": dict(bias=[[0, 1.0], [0, 2.0]]),
        "float-rows": dict(rows=1.0),
        "negative-rows": dict(rows=-1),
        "string-cols": dict(cols="2"),
        "boolean-rows": dict(rows=True),
        "missing-bias": dict(bias=None),
    }

    @pytest.mark.parametrize("layer2", CASES.values(), ids=CASES.keys())
    def test_malformed_layer_is_named(self, layer2):
        with pytest.raises(ParseError, match="layer 2"):
            deserialize(layer2_doc(**layer2))

    def test_integral_float_index_accepted(self):
        net = deserialize(layer2_doc(entries=[[0.0, 1.0, 3.0]]))
        assert net.layers[1].weights.cols.tolist() == [1]

    def test_explicit_zero_weight_dropped(self):
        net = deserialize(layer2_doc(entries=[[0, 0, 0.0], [0, 1, -0.0], [0, 1, 2.0]]))
        assert net.layers[1].weights.vals.tolist() == [2.0]

    @pytest.mark.parametrize("input_dim", [1.0, -1, "1", None, True])
    def test_bad_input_dim_names_layer_1(self, input_dim):
        doc = json.loads(layer2_doc())
        doc["input_dim"] = input_dim
        with pytest.raises(ParseError, match="layer 1: input_dim"):
            deserialize(json.dumps(doc).encode())

    DOCUMENTS = {
        "not-an-object": b"[1, 2]",
        "layers-not-a-list": b'{"input_dim": 1, "layers": 5}',
        "nested-too-deep": b"[" * 100_000,
        "integer-beyond-digit-limit": b"1" * 5000,
    }

    @pytest.mark.parametrize("data", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    def test_malformed_document(self, data):
        with pytest.raises(ParseError):
            deserialize(data)


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(), st.text(max_size=3)
)
json_values = st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
fuzz_layers = st.fixed_dictionaries(
    {"rows": json_values, "cols": json_values, "entries": json_values, "bias": json_values}
)
fuzz_documents = st.builds(
    lambda input_dim, layers: json.dumps({"input_dim": input_dim, "layers": layers}).encode(),
    json_values,
    st.one_of(json_values, st.lists(fuzz_layers, max_size=3)),
)


class TestDeserializeFuzz:
    @given(data=st.one_of(st.binary(max_size=200), fuzz_documents))
    @settings(max_examples=400, deadline=None)
    def test_any_bytes_give_a_network_or_a_parse_error(self, data):
        try:
            net = deserialize(data)
        except ParseError:
            return
        assert isinstance(net, NeuralNetwork)


class TestDuplicateCoordinates:
    def test_unsorted_distinct_coordinates_accepted(self):
        w = SparseMatrix((3, 3), [2, 0, 2, 0], [0, 2, 2, 0], [1.0, 2.0, 3.0, 4.0])
        assert w.nnz == 4
        assert SparseVector(4, [3, 0, 2], [1.0, 2.0, 3.0]).nnz == 3

    def test_duplicate_matrix_coordinate_rejected(self):
        # (1, 2) twice; the row and column values also repeat elsewhere
        with pytest.raises(NetworkError, match="duplicate"):
            SparseMatrix((3, 3), [1, 2, 1, 0], [2, 1, 2, 1], [1.0, 2.0, 3.0, 4.0])

    def test_duplicate_rejected_where_the_sort_key_would_overflow(self):
        # rows * (cols.max() + 1) + cols would pass 2**63
        top = 2**53 - 1
        with pytest.raises(NetworkError, match="duplicate"):
            SparseMatrix((2**53, 2**53), [top, 0, top], [top, top, top], [1.0, 2.0, 3.0])

    def test_distinct_coordinates_accepted_where_the_sort_key_would_overflow(self):
        # (top, 0) and (2047, 0) have equal keys modulo 2**64
        top = 2**53 - 1
        w = SparseMatrix((2**53, 2**53), [top, 2047, 0, top], [0, 0, top, top], [1.0] * 4)
        assert w.nnz == 4

    def test_duplicate_vector_index_rejected(self):
        with pytest.raises(NetworkError, match="duplicate"):
            SparseVector(4, [3, 0, 3], [1.0, 2.0, 3.0])


def one_layer(weights: SparseMatrix, bias: SparseVector | None = None) -> NeuralNetwork:
    return NeuralNetwork((Layer(weights, bias or SparseVector(1, [], [])),))


class TestIdentical:
    def test_compares_stored_order_and_bit_patterns(self):
        base = SparseMatrix((1, 2), [0, 0], [0, 1], [1.0, 0.0])
        assert identical(one_layer(base), one_layer(base))
        variants = [
            one_layer(SparseMatrix((1, 2), [0, 0], [1, 0], [0.0, 1.0])),  # entries swapped
            one_layer(SparseMatrix((1, 2), [0, 0], [0, 1], [1.0, -0.0])),  # signed zero
            one_layer(SparseMatrix((1, 2), [0, 0], [0, 1], [np.nextafter(1.0, 2.0), 0.0])),
            one_layer(base, SparseVector(1, [0], [0.0])),  # extra bias entry
            one_layer(SparseMatrix((1, 3), [0, 0], [0, 1], [1.0, 0.0])),  # wider input
        ]
        for other in variants:
            assert not identical(one_layer(base), other)


class ReadOnly:
    """A binary reader that has read and nothing else: no seek, no tell, as
    a pipe gives at most; each read returns what was asked, or less at the
    end."""

    def __init__(self, data: bytes):
        self._stream = io.BytesIO(data)

    def read(self, size=-1):
        return self._stream.read(size)


class TestStoredAs:
    @given(net=wire_networks())
    @example(net=SIGNED_ZEROS)
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_parsing(self, net):
        data = serialize(net)
        parsed = identical(deserialize(data), net)
        assert stored_as(io.BytesIO(data), net) == parsed
        reformatted = json.dumps(json.loads(data), indent=1).encode()
        assert stored_as(io.BytesIO(reformatted), net) == parsed

    def test_malformed_data_raises_parse_error(self):
        net = one_layer(SparseMatrix((1, 1), [0], [0], [2.0]))
        with pytest.raises(ParseError):
            stored_as(io.BytesIO(serialize(net)[:-1]), net)

    @staticmethod
    def _three_block_net() -> NeuralNetwork:
        count = 3 * network._RECORDS_PER_BLOCK
        rows = np.arange(count)
        return one_layer(
            SparseMatrix((count, 1), rows, np.zeros(count, np.int64), 0.5 * (rows + 1)),
            SparseVector(count, [], []),
        )

    def _edits(self, net):
        """The bytes of net with trailing whitespace, and with its middle
        block of records given extra whitespace or one value changed."""
        data = serialize(net)
        pieces = list(network.encode(net))
        blocks = [k for k, piece in enumerate(pieces) if piece.count(b"[") > 1]
        assert len(blocks) == 3
        k = blocks[1]
        at = sum(map(len, pieces[:k]))
        middle = pieces[k]
        end = middle.index(b"]")  # the end of the block's first record
        yield data + b"\n "
        yield data[:at] + middle.replace(b", ", b",  ", 1) + data[at + len(middle) :]
        yield data[:at] + middle[:end] + b"1" + data[at + end :]

    def test_edited_bytes_give_what_parsing_gives(self):
        net = self._three_block_net()
        for data, parsed in zip(self._edits(net), [True, True, False]):
            for reader in (io.BytesIO, ReadOnly):
                assert stored_as(reader(data), net) == identical(deserialize(data), net) == parsed

    def test_matching_bytes_are_compared_without_a_whole_copy(self, tmp_path):
        # the n=4, L=7 hat of the benchmark: 720,938 weights, 18.2 MB
        params = HatBuildParams(
            n=4,
            L=7,
            C=2.0,
            spec=BumpSpec(d=1, M=2.0, y=(0.5,)),
            policy=GrowthPolicy(scale=256, depth_cap=7),
        )
        net = build_hat(params).network
        path = tmp_path / "hat.json"
        path.write_bytes(serialize(net))
        with open(path, "rb") as stream:
            tracemalloc.start()
            try:
                assert stored_as(stream, net)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # net was made before tracing began, so peak is what stored_as
        # allocated
        assert peak < path.stat().st_size / 2


def run_records(run: Run) -> list[tuple]:
    """The records of run, from plain loops over its blocks, copies and
    templates: the oracle for Run."""
    return [
        (*(int(i) + k * int(cs) + j * int(bs)
           for i, cs, bs in zip(index, run.copy_step, run.block_step)), float(v))
        for j in range(run.blocks)
        for k in range(run.copies)
        for index, v in zip(run.index, run.vals)
    ]


@st.composite
def runs(draw, columns: int):
    """A run with up to three templates of `columns` indices, some near a
    power of ten, and wire values (zeros among them)."""
    count = draw(st.integers(1, 3))
    near = st.sampled_from([0, 1, 8, 9, 10, 97, 99, 100, 998, 999, 1000, 9999])
    index = draw(st.lists(st.lists(st.one_of(near, st.integers(0, 120)),
                                   min_size=columns, max_size=columns),
                          min_size=count, max_size=count))
    vals = draw(st.lists(st.sampled_from(WIRE_VALUES), min_size=count, max_size=count))
    copies, blocks = draw(st.integers(0, 40)), draw(st.integers(0, 6))
    copy_step = draw(st.lists(st.integers(0, 40), min_size=columns, max_size=columns))
    block_step = [max(copies - 1, 0) * cs + draw(st.integers(0, 60)) for cs in copy_step]
    return Run(index, vals, copies, blocks, copy_step, block_step)


class TestStridedRuns:
    @given(entries=runs(2), bias=runs(1), spare=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_its_records(self, entries, bias, spare):
        records = run_records(entries)
        idx = run_records(bias)
        rows = 1 + spare + max([i for i, _, _ in records] + [i for i, _ in idx], default=0)
        cols = 1 + spare + max([j for _, j, _ in records], default=0)
        try:
            want = Layer(
                SparseMatrix((rows, cols), *np.array(records, ndmin=2).reshape(-1, 3).T),
                SparseVector(rows, *np.array(idx, ndmin=2).reshape(-1, 2).T),
            )
        except NetworkError:
            with pytest.raises(NetworkError, match="duplicate"):
                StridedLayer((rows, cols), [entries], [bias])
            return
        net = StridedNetwork((StridedLayer((rows, cols), [entries], [bias]),))
        expected = NeuralNetwork((want,))
        assert identical(net.expand(), expected)
        assert serialize(net) == json_dumps_encoder(expected)
        assert net.weight_count() == expected.weight_count()
        assert net.max_norm() == expected.max_norm()
        assert stored_as(io.BytesIO(serialize(expected)), net)

    def test_zero_templates_are_left_out(self):
        run = Run([(0,), (1,), (2,)], [1.0, 0.0, -0.0], 4, 1, (3,), (0,))
        assert run.size == 4
        assert run_records(run) == [(3 * k, 1.0) for k in range(4)]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(copy_step=(-1, 0)), "non-negative"),
        (dict(block_step=(5, 1)), "previous block"),
        (dict(copy_step=(1,)), "one copy step"),
    ])
    def test_bad_steps_are_rejected(self, kwargs, message):
        args = dict(index=[(0, 0)], vals=[1.0], copies=3, blocks=2,
                    copy_step=(3, 0), block_step=(9, 1))
        with pytest.raises(NetworkError, match=message):
            Run(**{**args, **kwargs})

    def test_layer_checks_ranges_and_coordinates(self):
        run = Run([(0, 0), (0, 1)], [1.0, 2.0], 3, 2, (3, 0), (9, 2))
        StridedLayer((16, 4), [run], [])
        with pytest.raises(NetworkError, match="out of range"):
            StridedLayer((15, 4), [run], [])
        with pytest.raises(NetworkError, match="duplicate coordinate"):
            StridedLayer((16, 4), [run, Run([(12, 3)], [1.0], 1, 1, (0, 0), (0, 0))], [])
        with pytest.raises(NetworkError, match="duplicate index"):
            StridedLayer((16, 4), [run], [Run([(1,)], [1.0], 2, 1, (0,), (0,))])

    def test_segments_hold_at_most_a_block_of_records(self):
        count = network._RECORDS_PER_BLOCK + 7
        run = Run([(0, 0), (0, 1)], [0.5, -1.0], count, 1, (1, 0), (0, 0))
        net = StridedNetwork((StridedLayer((count, 2), [run], []),))
        pieces = list(network.encode(net))
        assert b"".join(pieces) == json_dumps_encoder(net.expand())
        assert max(piece.count(b"[") for piece in pieces) <= network._RECORDS_PER_BLOCK

    # (d, n, L) covers every pair of d, n and L in {1, 2, 3}, {1, 2, 3} and
    # {5, 6, 8} once; C is chosen or given, y may hold a 0 or a 1, whose
    # layer-1 bias entries drop
    HATS = [
        (1, 1, 5, None, (0.5,)),
        (1, 2, 6, 1.5, (0.0,)),
        (1, 3, 8, None, (1.0,)),
        (2, 1, 6, None, (0.0, 1.0)),
        (2, 2, 8, 1.25, (0.5, 0.25)),
        (2, 3, 5, None, (0.5, 0.5)),
        (3, 1, 8, 2.0, (1.0, 0.5, 0.0)),
        (3, 2, 5, None, (0.5, 0.5, 0.5)),
        (3, 3, 6, None, (0.25, 0.0, 0.75)),
        (2000, 1, 5, None, None),
    ]

    @pytest.mark.parametrize("d, n, L, C, y", HATS)
    def test_hat_pieces_equal_serialize_and_json_dumps(self, d, n, L, C, y):
        policy = GrowthPolicy(scale=256, depth_cap=8)
        if C is None:
            C = choose_amplitude_base(policy, n, d, L)
        y = (0.5,) * d if y is None else y
        hat = build_hat(HatBuildParams(n=n, L=L, C=C, spec=BumpSpec(d=d, M=2.0, y=y), policy=policy))
        data = b"".join(network.encode(hat.strided))
        assert data == serialize(hat.network) == json_dumps_encoder(hat.network)
        assert hat.strided.weight_count() == hat.network.weight_count()
        assert hat.strided.max_norm() == hat.network.max_norm()


def matmul_loop(m: SparseMatrix, pts: np.ndarray) -> np.ndarray:
    """Each output adds its row's products to 0.0 in (row, col) order: the
    reference for matmul_points."""
    out = [[0.0] * m.shape[0] for _ in range(len(pts))]
    for i, j, v in sorted(zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist())):
        for p, x in enumerate(pts.tolist()):
            out[p][i] += v * x[j]
    return np.array(out).reshape(len(pts), m.shape[0])


class TestMatmulPoints:
    @given(net=wire_networks(), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_the_sequential_loop(self, net, seed, k):
        rng = np.random.default_rng(seed)
        for layer in net.layers:
            w = layer.weights
            # values below 1e100 keep every product and sum finite
            small = SparseMatrix(w.shape, w.rows, w.cols, np.clip(w.vals, -1e100, 1e100))
            pts = rng.normal(size=(k, w.shape[1])) * 10.0 ** rng.integers(-8, 8, (k, w.shape[1]))
            got = small.matmul_points(pts)
            assert np.array_equal(got.view(np.int64), matmul_loop(small, pts).view(np.int64))

    def test_entries_span_several_blocks(self, monkeypatch):
        monkeypatch.setattr(network, "_PRODUCTS_PER_BLOCK", 8)
        rng = np.random.default_rng(3)
        flat = rng.permutation(60)[:40]
        m = SparseMatrix((6, 10), flat // 10, flat % 10, rng.normal(size=40))
        pts = rng.normal(size=(3, 10))
        got = m.matmul_points(pts)
        assert np.array_equal(got.view(np.int64), matmul_loop(m, pts).view(np.int64))


class TestStructuralInvariants:
    @given(t=st.floats(0.1, 4.0), x0=st.floats(-2.0, 2.0), x1=st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_two_homogeneity_bias_free(self, t, x0, x1):
        rng = np.random.default_rng(6)
        net = net_from_dense(
            (rng.normal(size=(3, 2)), np.zeros(3)),
            (rng.normal(size=(1, 3)), np.zeros(1)),
        )
        x = np.array([x0, x1])
        lhs = realize(net, t * x)[0]
        rhs = t**2 * realize(net, x)[0]
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(0, 1000), target=st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_depth_extend_preserves_bounded_nets(self, seed, target):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(2, 1))
        b = rng.uniform(-0.5, 0.5, size=2)
        c = rng.uniform(-0.2, 0.2, size=(1, 2))
        net = net_from_dense((a, b), (c, [0.0]))  # output bounded well inside [-1,1]
        x = rng.uniform(-1, 1, (200, 1))
        assert np.abs(realize(net, x)).max() <= 1.0
        ext = depth_extend(net, target)
        np.testing.assert_allclose(realize(ext, x), realize(net, x), atol=1e-12)

    def test_depth_reducible_when_depth_exceeds_weight_count(self):
        # a net with more layers than weights necessarily has a dead layer
        net = net_from_dense(([[1.0]], [1.0]), ([[0.0]], [0.0]), ([[0.0]], [0.5]))
        assert net.depth() == 3
        reduced = eliminate_dead_layers(net)
        assert reduced.depth() <= net.weight_count()
        x = np.linspace(-2, 2, 20)[:, None]
        np.testing.assert_allclose(realize(reduced, x), realize(net, x), atol=1e-12)


class TestGrowthPolicy:
    def test_parametric_c_values(self):
        pol = GrowthPolicy(kind="parametric", theta_c=1.0, depth_cap=5)
        assert pol.c(1) == max(1, np.ceil(1 * np.log(2.0)))
        assert pol.c(10) == np.ceil(10 * 1.0) if pol.kappa_c == 0 else pol.c(10)

    def test_c_beyond_the_float_range_is_inf_without_a_warning(self):
        n = np.arange(1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # log(2)**1e300 underflows to 0, so c(1) is the floor 1
            assert list(GrowthPolicy(kappa_c=1e300).c(n)) == [1.0] + [np.inf] * 3
            assert GrowthPolicy(kappa_c=-1e300).c(1) == np.inf
            # n**1e300 overflows and log(2n)**-1e300 underflows: inf * 0
            assert list(GrowthPolicy(theta_c=1e300, kappa_c=-1e300).c(n)) == [np.inf] * 4

    def test_c_non_decreasing(self):
        pol = GrowthPolicy(kind="parametric", theta_c=0.5, kappa_c=1.0, depth_cap=6)
        vals = pol.c(np.arange(1, 200))
        assert np.all(np.diff(vals) >= 0)

    def test_only_the_parametric_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            GrowthPolicy(kind="tabulated")
