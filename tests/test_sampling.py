"""Tests for sampling algorithms, the adversarial family, and error sweeps."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from requ_gap import sampling
from requ_gap.network import GrowthPolicy
from requ_gap.sampling import (
    AdversarialFamily,
    SamplingAlgorithm,
    average_error,
    build_adversarial_family,
    count_unseen,
    grid_algorithm,
    hardness_bound,
    reconstruction_error_bound,
    run_hardness_sweep,
    run_mc_sweep,
    run_upper_bound_sweep,
    uniform_mc,
    uniform_random_algorithm,
    zero_algorithm,
)

POLICY5 = GrowthPolicy(kind="parametric", depth_cap=5)
GAMMA = 15.0  # strictly below the depth-5 growth allowance 15.5
ALPHA = 1.0


class TestGridAlgorithm:
    def test_points_for_square_budget(self):
        alg = grid_algorithm(4, 2)
        want = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
        assert {tuple(p) for p in alg.points} == want

    def test_partial_budget_rounds_down(self):
        assert grid_algorithm(8, 2).points.shape == (4, 2)
        assert grid_algorithm(9, 2).points.shape == (9, 2)

    def test_exact_cube_root(self):
        assert grid_algorithm(1000, 3).points.shape == (1000, 3)

    def test_single_point(self):
        alg = grid_algorithm(1, 2)
        recon = alg.reconstruct(np.array([3.5]))
        np.testing.assert_allclose(recon(np.array([[0.9, 0.1]])), [3.5])

    @pytest.mark.parametrize("mode", ["nearest", "multilinear"])
    def test_reproduces_constants(self, mode):
        alg = grid_algorithm(16, 2, mode)
        recon = alg.reconstruct(np.full(alg.m, 0.7))
        x = np.random.default_rng(0).uniform(0, 1, (200, 2))
        np.testing.assert_allclose(recon(x), 0.7, atol=1e-12)

    def test_nearest_tie_breaks_to_lower_index(self):
        # two points {0, 0.5}; x = 0.25 is equidistant -> lower index (0)
        alg = grid_algorithm(2, 1, "nearest")
        recon = alg.reconstruct(np.array([10.0, 20.0]))
        assert recon(np.array([[0.25]]))[0] == 10.0

    def test_multilinear_interpolates_linear_functions(self):
        alg = grid_algorithm(100, 1, "multilinear")
        recon = alg.reconstruct(alg.points[:, 0] * 2.0 + 1.0)
        x = np.linspace(0, 0.99, 57)[:, None]
        np.testing.assert_allclose(recon(x), 2.0 * x[:, 0] + 1.0, atol=1e-12)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            grid_algorithm(4, 1, "cubic")


class TestOtherAlgorithms:
    def test_uniform_random_reproducible(self):
        a = uniform_random_algorithm(20, 2, seed=5)
        b = uniform_random_algorithm(20, 2, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_uniform_random_nearest_at_sample(self):
        alg = uniform_random_algorithm(10, 2, seed=1)
        vals = np.arange(10.0)
        recon = alg.reconstruct(vals)
        np.testing.assert_allclose(recon(alg.points), vals)

    def test_zero_algorithm_ignores_data(self):
        alg = zero_algorithm(9, 2)
        recon = alg.reconstruct(np.random.default_rng(2).normal(size=alg.m))
        x = np.random.default_rng(3).uniform(0, 1, (50, 2))
        np.testing.assert_array_equal(recon(x), 0.0)

    def test_uniform_random_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            uniform_random_algorithm(0, 2)

    def test_uniform_mc_budget(self):
        mc = uniform_mc(25, 2)
        alg = mc.generator(np.random.default_rng(0))
        assert alg.m == 25 and mc.budget == 25


def _brute_nearest(points, x):
    """A plain loop: the squared distance added up from axis 0, the least
    one winning and the lowest index winning a tie."""
    found = []
    for q in x.tolist():
        dists = []
        for p in points.tolist():
            s = 0.0
            for qa, pa in zip(q, p):
                s += (qa - pa) * (qa - pa)
            dists.append(s)
        found.append(min(range(len(dists)), key=lambda j: (dists[j], j)))
    return found


def _nearest_algorithm(points):
    points = np.asarray(points, dtype=np.float64)
    stencil = sampling._NearestSample(points)
    return SamplingAlgorithm(points, stencil, "nearest")


def _check_cell_search(fam, alg, res):
    """The nearest-sample cell search gives every test point of every seen
    cell the brute-force answer, and average_error equals the one it gets
    from the same stencil behind a wrapper, which the search skips."""
    ci, _ = sampling._locate_samples(fam, alg.points)
    seen = np.flatnonzero(np.bincount(ci[ci >= 0], minlength=fam.num_centers))
    offsets = sampling._support_offsets(fam, res)
    chunks = list(sampling._nearest_in_seen_cells(fam, alg.linear_stencil, ci, seen, offsets))
    for cells, idx, _ in chunks:
        test = sampling._test_points(fam, cells, offsets).reshape(-1, fam.d)
        assert np.array_equal(idx, alg.linear_stencil(test)[0])
    assert sorted(c for cells, _, _ in chunks for c in cells.tolist()) == seen.tolist()
    reference = dataclasses.replace(alg, linear_stencil=lambda x: alg.linear_stencil(x))
    assert average_error(fam, alg, res) == average_error(fam, reference, res)


# coordinates on a 1/16 lattice reaching outside [0, 1], so that duplicate
# samples and queries equidistant from two samples are common
_LATTICE = st.integers(-8, 24).map(lambda i: i / 16)


class TestNearestSample:
    def test_equidistant_query_takes_lowest_index(self):
        for pts in ([[0.25], [0.75]], [[0.75], [0.25]]):
            idx, w = sampling._NearestSample(np.array(pts))(np.array([[0.5]]))
            assert idx.tolist() == [[0]] and w.tolist() == [[1.0]]

    def test_duplicate_samples_take_lowest_index(self):
        pts = np.array([[0.9, 0.1], [0.3, 0.3], [0.3, 0.3]])
        idx, _ = sampling._NearestSample(pts)(np.array([[0.31, 0.29], [0.0, 0.0]]))
        assert idx[:, 0].tolist() == [1, 1]

    def test_single_sample(self):
        idx, _ = sampling._NearestSample(np.array([[0.4, 0.6]]))(
            np.array([[-3.0, 0.5], [0.4, 0.6], [7.0, 7.0]])
        )
        assert idx[:, 0].tolist() == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 3),
        data=st.data(),
        chunk=st.sampled_from([1, 5, 1 << 16]),
    )
    def test_matches_plain_argmin(self, d, data, chunk):
        point = st.lists(_LATTICE, min_size=d, max_size=d)
        pts = np.array(data.draw(st.lists(point, min_size=1, max_size=12)))
        x = np.array(data.draw(st.lists(point, min_size=1, max_size=20)))
        with mock.patch.object(sampling, "_CHUNK_ENTRIES", chunk):
            idx, w = sampling._NearestSample(pts)(x)
        assert idx[:, 0].tolist() == _brute_nearest(pts, x)
        assert np.array_equal(w, np.ones((len(x), 1)))

    def test_cell_block_search_breaks_ties_by_index(self):
        # M = 64: the test point 3/128 of cell 0 is 1/128 from the sample
        # 1/32 (index 0, bucket 1) and from the sample 1/64 (index 1,
        # bucket 0); index 0 must win although its bucket comes second.  The
        # two far samples make more samples than the 3-cell block has cells,
        # so the block is gathered
        fam = build_adversarial_family(16, 1, ALPHA, GAMMA, POLICY5)
        alg = _nearest_algorithm([[1 / 32], [1 / 64], [0.9], [0.95]])
        assert alg.linear_stencil(np.array([[3 / 128]]))[0].tolist() == [[0]]
        reference = dataclasses.replace(alg, linear_stencil=lambda x: alg.linear_stencil(x))
        assert average_error(fam, alg, 3) == average_error(fam, reference, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 5),
        fam_m=st.sampled_from([16, 64]),
        chunk=st.sampled_from([30, 1 << 16]),
        data=st.data(),
    )
    def test_cell_block_search_matches_brute_force(self, d, fam_m, chunk, data):
        # samples on a lattice through the test points (grid resolution 3 or
        # 7; M is a power of 2, so distances tie exactly), with duplicates
        # and cell-boundary samples; resolution 7 puts test points near the
        # cell walls, where the search has the least slack.  Up to d = 4 a
        # draw may hold more samples than the block of
        # (2*ceil(sqrt(d)) + 1)**d cells, which is then gathered;
        # ceil(sqrt(d)) has no slack at d = 4 and is 3 at d = 5.  A chunk of
        # 30 test points takes the seen cells one at a time, each with its
        # whole lattice.
        fam = build_adversarial_family(fam_m, d, ALPHA, GAMMA, POLICY5)
        res = data.draw(st.sampled_from([3, 7] if d <= 3 else [3]))
        steps = 8 * fam.M
        count = data.draw(st.integers(1, {1: 8, 2: 60, 3: 250, 4: 1000, 5: 80}[d]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alg = _nearest_algorithm(rng.integers(0, steps + 1, (count, d)) / steps)
        with mock.patch.object(sampling, "_CHUNK_ENTRIES", chunk):
            _check_cell_search(fam, alg, res)

    def test_cell_block_search_reaches_two_cells_away(self):
        # d = 2, cells of width w = 1/8: the sample s of cell (3, 3) sits
        # near the cell's corner (3, 3) w, and the test point (3.875, 3.875) w
        # is 1.215 w from it; its nearest sample is (5.0625, 3.875) w, 1.1875 w
        # away, two cells over and 1.0625 w from the cell, within its reach
        # of 1.39 w.  Thirty more samples make the 5 x 5 block gathered.
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        w = 1 / fam.per_axis
        far = [[i * w / 8, 0.0] for i in range(30)]
        alg = _nearest_algorithm([[(3 + 1 / 64) * w] * 2, [5.0625 * w, 3.875 * w], *far])
        assert alg.linear_stencil(np.array([[3.875 * w] * 2]))[0].tolist() == [[1]]
        _check_cell_search(fam, alg, 7)

    @pytest.mark.parametrize("chunk", [1 << 16, 5])
    @pytest.mark.parametrize("far", [0, 30])
    def test_planar_search_narrow_and_wide_rows(self, chunk, far):
        # M = 16, h = 1/16, grid resolution 3: test offsets 0 and +-1/32 per
        # axis, G = 10.  Sample 0 at the center of cell (0, 0) is its only
        # candidate; samples 1-4 lie 1/32 from the center c of cell (5, 5),
        # and sample 5, on that cell's wall, is its fifth candidate.  At the
        # test point c + (1/32, 1/32) samples 1, 2 and 5 tie exactly, and
        # sample 1 must win.  The default chunk puts both cells in one group
        # of rows; a chunk of 5 takes one cell at a time, its 10 test points
        # at once.  Thirty far samples make the 5 x 5 block gathered.
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        c = fam.centers[5 * fam.per_axis + 5]
        e = 1 / 32
        near = [c + (e, 0), c + (0, e), c - (e, 0), c - (0, e), c + (2 * e, e)]
        far_samples = [[i / 32, 0.95] for i in range(far)]
        alg = _nearest_algorithm([[1 / 16, 1 / 16], *near, *far_samples])
        assert alg.linear_stencil(np.array([c + (e, e)]))[0].tolist() == [[1]]
        ci, _ = sampling._locate_samples(fam, alg.points)
        seen = np.flatnonzero(np.bincount(ci[ci >= 0], minlength=fam.num_centers))
        offsets = sampling._support_offsets(fam, 3)
        with mock.patch.object(sampling, "_CHUNK_ENTRIES", chunk):
            chunks = list(
                sampling._nearest_in_seen_cells(fam, alg.linear_stencil, ci, seen, offsets)
            )
            _check_cell_search(fam, alg, 3)
        for cells, idx, w in chunks:
            assert idx.shape == w.shape == (len(cells) * len(offsets), 1)
        groups = [set(cells.tolist()) for cells, _, _ in chunks]
        if chunk == 1 << 16:
            assert any({0, 5 * fam.per_axis + 5} <= g for g in groups)
        else:
            assert all(len(g) == 1 for g in groups)

    @pytest.mark.parametrize("far", [0, 30])
    def test_bisector_test_keeps_a_corner_tie_and_drops_a_loser(self, far):
        # M = 16, grid resolution 3: test offsets 0 and +-1/32 per axis, so
        # the box of test points has corners c +- (1/32, 1/32) around the
        # center c of cell (5, 5).  s (index 2) sits at c; t (index 0), at
        # c + (1/16, 1/16) on the cell's corner, is exactly as far as s from
        # the corner test point c + (1/32, 1/32) and farther from the others;
        # u (index 1), 1/64 beyond t, loses to s at every corner.  t must
        # stay a candidate and win its tie; u must be dropped.  Thirty far
        # samples make the 5 x 5 block gathered.
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        cell = 5 * fam.per_axis + 5
        c, e = fam.centers[cell], 1 / 32
        t, u = c + 2 * e, c + (2.5 * e, 2 * e)
        alg = _nearest_algorithm([t, u, c, *([i / 32, 0.95] for i in range(far))])
        x = c + e
        assert ((x - t) ** 2).sum() == ((x - c) ** 2).sum()
        assert alg.linear_stencil(x[None, :])[0].tolist() == [[0]]
        ci, _ = sampling._locate_samples(fam, alg.points)
        assert ci[:3].tolist() == [-1, -1, cell]
        seen = np.flatnonzero(np.bincount(ci[ci >= 0], minlength=fam.num_centers))
        offsets = sampling._support_offsets(fam, 3)
        coords = np.ascontiguousarray(alg.points.T)
        candidates = {
            k: ids[row == i].tolist()
            for cells, row, ids in sampling._candidates(fam, coords, ci, seen, offsets)
            for i, k in enumerate(cells.tolist())
        }
        assert candidates[cell] == [0, 2]
        # every test point, the tie included, gets the brute-force answer
        _check_cell_search(fam, alg, 3)


class TestAdversarialFamily:
    def test_geometry_square_budget(self):
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        assert fam.per_axis == 8
        assert fam.M == 16
        assert fam.num_centers == 64
        assert fam.num_members == 128
        assert fam.centers.shape == (64, 2)

    def test_first_center_at_corner_cell(self):
        fam = build_adversarial_family(4, 1, ALPHA, GAMMA, POLICY5)
        assert fam.centers[0, 0] == pytest.approx(1.0 / fam.M)

    def test_supports_inside_unit_cube(self):
        fam = build_adversarial_family(9, 2, ALPHA, GAMMA, POLICY5)
        h = 1.0 / fam.M
        assert np.all(fam.centers - h >= 0.0)
        assert np.all(fam.centers + h <= 1.0)

    def test_supports_disjoint(self):
        fam = build_adversarial_family(4, 1, ALPHA, GAMMA, POLICY5)
        f0 = fam.member(0, 1)
        f1 = fam.member(1, 1)
        x = np.linspace(0, 1, 2001)[:, None]
        products = f0(x) * f1(x)
        assert np.abs(products).max() == 0.0

    def test_member_height(self):
        fam = build_adversarial_family(4, 2, ALPHA, GAMMA, POLICY5)
        i = 3
        center = fam.centers[i]
        assert fam.member(i, 1)(center[None, :])[0] == pytest.approx(fam.amplitude)
        assert fam.member(i, -1)(center[None, :])[0] == pytest.approx(-fam.amplitude)

    def test_amplitude_in_unit_ball_range(self):
        fam = build_adversarial_family(64, 1, ALPHA, GAMMA, POLICY5)
        assert 0.0 < fam.amplitude <= 1.0
        assert fam.amplitude == fam.amplitude_theoretical

    def test_kappa1_override_rescales_amplitude_only(self):
        base = build_adversarial_family(16, 1, ALPHA, GAMMA, POLICY5)
        scaled = build_adversarial_family(
            16, 1, ALPHA, GAMMA, POLICY5, kappa1_override=base.kappa1 * 2.0
        )
        assert scaled.amplitude == pytest.approx(2.0 * base.amplitude)
        assert scaled.amplitude_theoretical == base.amplitude_theoretical

    @pytest.mark.parametrize("m,d", [(4, 20), (2**20 + 1, 2), (2, 21), (2, 10**15)])
    def test_rejects_more_centers_than_the_cap(self, m, d):
        # 4**20 and 2050**2 centers exceed 2**20; so does any d above 20,
        # rejected before the integer root raises anything to the power d
        with pytest.raises(ValueError, match="family centers"):
            build_adversarial_family(m, d, ALPHA, GAMMA, POLICY5)

    def test_rejects_bad_nu(self):
        fam = build_adversarial_family(4, 1, ALPHA, GAMMA, POLICY5)
        with pytest.raises(ValueError):
            fam.member(0, 0)


class TestCountUnseen:
    @pytest.mark.parametrize("m,d", [(4, 1), (16, 1), (16, 2), (27, 3)])
    def test_at_least_m_unseen(self, m, d):
        fam = build_adversarial_family(m, d, ALPHA, GAMMA, POLICY5)
        for alg in (grid_algorithm(m, d), uniform_random_algorithm(m, d, seed=0)):
            assert count_unseen(fam, alg) >= m

    def test_all_samples_in_one_support(self):
        fam = build_adversarial_family(4, 1, ALPHA, GAMMA, POLICY5)
        pts = np.full((4, 1), fam.centers[0, 0])
        alg = grid_algorithm(4, 1)
        object.__setattr__(alg, "points", pts)
        assert count_unseen(fam, alg) == fam.num_centers - 1

    def test_samples_outside_all_supports(self):
        fam = build_adversarial_family(4, 1, ALPHA, GAMMA, POLICY5)
        alg = zero_algorithm(4, 1)
        object.__setattr__(alg, "points", np.full((4, 1), 0.0))  # cube face
        assert count_unseen(fam, alg) == fam.num_centers


class TestAverageError:
    def test_zero_algorithm_error_is_amplitude(self):
        fam = build_adversarial_family(16, 1, ALPHA, GAMMA, POLICY5)
        res = average_error(fam, zero_algorithm(16, 1))
        assert res.average == pytest.approx(fam.amplitude, rel=1e-12)
        assert res.center_only == pytest.approx(fam.amplitude, rel=1e-12)

    def test_unseen_members_contribute_full_height(self):
        fam = build_adversarial_family(16, 1, ALPHA, GAMMA, POLICY5)
        res = average_error(fam, grid_algorithm(16, 1))
        unseen = count_unseen(fam, grid_algorithm(16, 1))
        assert res.average >= fam.amplitude * unseen / fam.num_centers

    def test_signed_pair_symmetry_for_linear_reconstructions(self):
        # nu = +1 and nu = -1 errors coincide, so the stencil shortcut and the
        # explicit per-member average agree to rounding (see
        # test_paths_differ_only_by_rounding); on these cases bit for bit
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        cases = [
            (fam, alg)
            for alg in (
                grid_algorithm(16, 2),
                grid_algorithm(16, 2, "multilinear"),
                uniform_random_algorithm(16, 2, seed=4),
                zero_algorithm(16, 2),
            )
        ]
        # a perfect power: every grid sample sits on a support boundary
        fam27 = build_adversarial_family(27, 3, ALPHA, GAMMA, POLICY5)
        grid27 = grid_algorithm(27, 3)
        assert count_unseen(fam27, grid27) == fam27.num_centers
        cases.append((fam27, grid27))
        fam30 = build_adversarial_family(30, 3, ALPHA, GAMMA, POLICY5)
        multilinear30 = grid_algorithm(30, 3, "multilinear")
        assert count_unseen(fam30, multilinear30) < fam30.num_centers
        cases.append((fam30, multilinear30))
        # enough seen cells to fill more than one stencil chunk
        fam200 = build_adversarial_family(200, 3, ALPHA, GAMMA, POLICY5)
        random200 = uniform_random_algorithm(200, 3, seed=5)
        seen = fam200.num_centers - count_unseen(fam200, random200)
        assert seen > sampling._CHUNK_ENTRIES // 730  # 9**3 + 1 offsets per cell
        cases.append((fam200, random200))
        # the nearest-sample cell-block search in d = 1 and d = 2
        for m, d, seed in ((64, 1, 21), (300, 1, 22), (64, 2, 23), (256, 2, 24)):
            fam_md = build_adversarial_family(m, d, ALPHA, GAMMA, POLICY5)
            cases.append((fam_md, uniform_random_algorithm(m, d, seed=seed)))
        for fam, alg in cases:
            fast = average_error(fam, alg, method="stencil")
            slow = average_error(fam, alg, method="generic")
            assert fast.average == slow.average
            assert fast.center_only == slow.center_only
            assert fast.per_member_max == slow.per_member_max

    def test_unseen_count_comes_with_the_error(self):
        fam = build_adversarial_family(64, 2, ALPHA, GAMMA, POLICY5)
        algorithms = (
            grid_algorithm(64, 2, "multilinear"),
            uniform_random_algorithm(64, 2, seed=7),
            zero_algorithm(64, 2),
        )
        for alg in algorithms:
            for method in ("stencil", "generic"):
                result = average_error(fam, alg, 3, method=method)
                assert result.unseen == count_unseen(fam, alg), (alg.label, method)

    def test_support_grid_is_built_once_per_family(self):
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        offsets, theta = sampling._support(fam, 5)
        assert sampling._support(fam, 5)[0] is offsets
        assert sampling._support(fam, 7)[0] is not offsets
        assert np.array_equal(offsets, sampling._support_offsets(fam, 5))
        assert np.array_equal(theta, fam.profile(offsets))
        assert not offsets.flags.writeable and not theta.flags.writeable

    def test_paths_differ_only_by_rounding(self):
        # the stencil path takes amplitude * |theta - v|, the generic path
        # |amplitude*theta - amplitude*v|: here the averages differ in the
        # last bits, where a cell's worst point is reconstructed from its own
        # sample
        fam = build_adversarial_family(5, 2, ALPHA, GAMMA, POLICY5)
        points = np.array([[1 / 16, 1 / 12], [1 / 12, 5 / 16]])
        stencil = sampling._NearestSample(points)
        alg = SamplingAlgorithm(points, stencil, "fixed")
        fast = average_error(fam, alg, grid_resolution=3, method="stencil")
        slow = average_error(fam, alg, grid_resolution=3, method="generic")
        for got, want in zip(dataclasses.astuple(fast), dataclasses.astuple(slow)):
            assert abs(got - want) <= 2 * math.ulp(want)

    def test_stencil_queries_only_seen_cells(self):
        fam = build_adversarial_family(200, 3, ALPHA, GAMMA, POLICY5)
        alg = uniform_random_algorithm(200, 3, seed=5)
        calls = []

        def counting(x):
            calls.append(len(x))
            return alg.linear_stencil(x)

        wrapped = dataclasses.replace(alg, linear_stencil=counting)
        res = average_error(fam, wrapped, grid_resolution=9)
        seen = fam.num_centers - count_unseen(fam, alg)
        G = 9**3 + 1
        assert sum(calls) == seen * G
        assert len(calls) > 1
        assert max(calls) <= max(sampling._CHUNK_ENTRIES, G)
        assert res == average_error(fam, alg, grid_resolution=9)

    def test_peak_memory_of_a_large_grid_stays_bounded(self):
        # grid resolution 600 in d = 2: G = 360,001 test points per cell,
        # more than _CHUNK_ENTRIES, so the nearest-sample search takes one
        # seen cell at a time, its whole lattice at once; about 26 MB are
        # allocated at once
        fam = build_adversarial_family(16, 2, ALPHA, GAMMA, POLICY5)
        alg = uniform_random_algorithm(16, 2, seed=0)
        sampling._support(fam, 600)
        tracemalloc.start()
        try:
            average_error(fam, alg, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_dimension_mismatch(self):
        fam = build_adversarial_family(4, 2, ALPHA, GAMMA, POLICY5)
        with pytest.raises(ValueError):
            average_error(fam, grid_algorithm(4, 1))

    def test_unknown_method_is_rejected(self):
        fam = build_adversarial_family(4, 2, ALPHA, GAMMA, POLICY5)
        with pytest.raises(ValueError, match="'stencil' or 'generic'"):
            average_error(fam, grid_algorithm(4, 2), method="stenc1l")


class TestBounds:
    def test_hardness_bound_kappa_relation(self):
        k1 = 0.5
        assert hardness_bound(1, 1, ALPHA, GAMMA, k1) == pytest.approx(
            k1 / 2.0**26
        )
        assert hardness_bound(1, 2, ALPHA, GAMMA, k1) == pytest.approx(
            k1 / 2.0**28
        )

    def test_hardness_bound_exponent(self):
        b1 = hardness_bound(4, 1, ALPHA, GAMMA, 1.0)
        b2 = hardness_bound(16, 1, ALPHA, GAMMA, 1.0)
        assert math.log(b2 / b1) / math.log(4.0) == pytest.approx(
            -64.0 / (8.0 + GAMMA)
        )

    def test_reconstruction_bound_power_law(self):
        b1 = reconstruction_error_bound(64, 1, POLICY5, ALPHA, 15.5)
        b2 = reconstruction_error_bound(256, 1, POLICY5, ALPHA, 15.5)
        assert b2 / b1 == pytest.approx(4.0 ** (-1.0 / 16.5), rel=1e-9)

    def test_reconstruction_bound_m1_is_constant(self):
        c2 = reconstruction_error_bound(1, 1, POLICY5, ALPHA, 15.5)
        assert c2 > 6.0
        assert math.isfinite(c2)

    @given(
        m=st.integers(1, 10_000),
        d=st.integers(1, 4),
        alpha=st.floats(0.1, 10.0),
        gamma=st.floats(0.5, 40.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_hardness_bound_positive_and_decreasing(self, m, d, alpha, gamma):
        b = hardness_bound(m, d, alpha, gamma, 1.0)
        b_next = hardness_bound(m + 1, d, alpha, gamma, 1.0)
        assert 0.0 < b_next <= b


class TestHardnessSweep:
    M_LIST = [4, 16, 64]

    def test_grid_sweep_passes(self):
        rep = run_hardness_sweep(
            lambda m: grid_algorithm(m, 1), self.M_LIST, 1, ALPHA, GAMMA, POLICY5
        )
        assert rep.passed
        assert all(r["unseen_count"] >= r["m"] for r in rep.rows)
        assert all(
            r["measured_avg_error"] >= r["lower_bound"] for r in rep.rows
        )

    def test_zero_sweep_slope_matches_theory(self):
        rep = run_hardness_sweep(
            lambda m: zero_algorithm(m, 1),
            [4, 16, 64, 256, 1024],
            1,
            ALPHA,
            GAMMA,
            POLICY5,
        )
        target = -64.0 * ALPHA / (1 * (8.0 * ALPHA + GAMMA))
        assert rep.passed
        assert rep.fitted_exponent == pytest.approx(target, rel=0.15)

    def test_two_dimensional_sweep(self):
        rep = run_hardness_sweep(
            lambda m: uniform_random_algorithm(m, 2, seed=9),
            [4, 16, 64],
            2,
            ALPHA,
            GAMMA,
            POLICY5,
        )
        assert rep.passed

    def test_csv_roundtrip_deterministic(self):
        make = lambda: run_hardness_sweep(
            lambda m: grid_algorithm(m, 1), self.M_LIST, 1, ALPHA, GAMMA, POLICY5
        )
        assert make().to_csv() == make().to_csv()
        assert make().to_json() == make().to_json()

    def test_csv_layout(self):
        rep = run_hardness_sweep(
            lambda m: grid_algorithm(m, 1), [4, 16], 1, ALPHA, GAMMA, POLICY5
        )
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "m,measured_avg_error,lower_bound,unseen_count,amplitude,pass"
        assert len(lines) == 3
        assert lines[1].startswith("4,") and lines[2].startswith("16,")

    def test_override_does_not_change_pass(self):
        rep = run_hardness_sweep(
            lambda m: grid_algorithm(m, 1),
            [4, 16],
            1,
            ALPHA,
            GAMMA,
            POLICY5,
            kappa1_override=1e-30,
        )
        assert rep.passed  # pass compares against the theoretical curve

    def test_rejects_bad_m_list(self):
        with pytest.raises(ValueError):
            run_hardness_sweep(
                lambda m: grid_algorithm(m, 1), [], 1, ALPHA, GAMMA, POLICY5
            )
        with pytest.raises(ValueError):
            run_hardness_sweep(
                lambda m: grid_algorithm(m, 1), [16, 4], 1, ALPHA, GAMMA, POLICY5
            )


class TestMonteCarloSweep:
    def test_uniform_mc_passes(self):
        rep = run_mc_sweep(
            lambda m: uniform_mc(m, 1), [4, 16], 1, ALPHA, GAMMA, POLICY5, draws=30
        )
        assert rep.passed
        assert all(r["budget_ok"] for r in rep.rows)
        assert all(r["mean_sample_count"] <= r["m"] for r in rep.rows)

    def test_deterministic_given_seed(self):
        make = lambda: run_mc_sweep(
            lambda m: uniform_mc(m, 1),
            [4, 16],
            1,
            ALPHA,
            GAMMA,
            POLICY5,
            draws=30,
            seed=7,
        )
        assert make().to_json() == make().to_json()

    def test_rejects_few_draws(self):
        with pytest.raises(ValueError):
            run_mc_sweep(
                lambda m: uniform_mc(m, 1), [4], 1, ALPHA, GAMMA, POLICY5, draws=5
            )


class TestUpperBoundSweep:
    def test_nearest_slope_fast_enough(self):
        rep = run_upper_bound_sweep(
            [16, 64, 256, 1024], 1, ALPHA, GAMMA, POLICY5
        )
        assert rep.passed
        assert rep.fitted_exponent <= rep.params["slope_target"]

    def test_errors_below_proof_side_bound(self):
        rep = run_upper_bound_sweep([16, 64, 256], 1, ALPHA, GAMMA, POLICY5)
        assert all(r["pass"] for r in rep.rows)

    def test_multilinear_variant(self):
        rep = run_upper_bound_sweep(
            [16, 64, 256, 1024], 1, ALPHA, GAMMA, POLICY5, reconstruction="multilinear"
        )
        assert rep.passed
