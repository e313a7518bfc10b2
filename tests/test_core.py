"""Message-passing engine tests against hand-computed fixtures and properties."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apclust import core
from apclust.core import (
    ApcConfig,
    apply_preference,
    build_similarity,
    decide_exemplars,
    message_workspace,
    net_similarity,
    off_diagonal,
    preferences,
    run_apc,
    run_apc_on_matrix,
    set_preference,
    update_availabilities,
    update_responsibilities,
)
from apclust.errors import InputError
from apclust.testkit import brute_force_exemplars
from references import reference_availabilities, reference_jittered, reference_responsibilities

# Collinear points at 0, 1, 3 m give pairwise squared distances 1, 9, 4.
LINE_XY = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])


def line_matrix() -> np.ndarray:
    return build_similarity(LINE_XY)


class TestBuildSimilarity:
    def test_negative_squared_distances(self):
        s = line_matrix()
        assert s[0, 1] == s[1, 0] == -1.0
        assert s[0, 2] == s[2, 0] == -9.0
        assert s[1, 2] == s[2, 1] == -4.0

    def test_identical_points_similarity_is_exact_zero(self):
        s = build_similarity(np.array([[3.7, -2.1], [3.7, -2.1]]))
        assert s[0, 1] == 0.0
        assert s[1, 0] == 0.0

    def test_diagonal_unset_until_preference(self):
        s = line_matrix()
        assert np.isnan(s.diagonal()).all()

    def test_non_finite_input_rejected(self):
        bad = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(InputError):
            build_similarity(bad)

    def test_fewer_than_two_points_refused(self):
        with pytest.raises(InputError, match="at least two points are required, got 1"):
            run_apc(np.array([[2.0, 3.0]]), ApcConfig(q=0.5))
        with pytest.raises(InputError, match="at least two points are required, got 0"):
            build_similarity(np.empty((0, 2)))

    def test_overflowing_squared_distance_refused(self):
        # Finite coordinates whose squared distances exceed float64's range.
        with pytest.raises(InputError, match="squared distances between points overflow float64"):
            run_apc(np.array([[0.0, 0.0], [1e200, 0.0], [3e200, 0.0]]), ApcConfig())
        # 1e308 is still finite, so the largest representable spread is accepted.
        assert build_similarity(np.array([[0.0, 0.0], [1e154, 0.0]]))[0, 1] == -1e308

    def test_non_planar_shape_rejected(self):
        with pytest.raises(InputError):
            build_similarity(np.zeros((4, 3)))

    def test_off_diagonal_values(self):
        s = line_matrix()
        assert sorted(off_diagonal(s)) == [-9.0, -9.0, -4.0, -4.0, -1.0, -1.0]


class TestApplyPreference:
    def test_median_quantile(self):
        s = line_matrix()
        apply_preference(s, 0.5)
        assert preferences(s).tolist() == [-4.0, -4.0, -4.0]

    def test_max_quantile(self):
        s = line_matrix()
        apply_preference(s, 1.0)
        assert preferences(s).tolist() == [-1.0, -1.0, -1.0]

    def test_interpolated_quantile(self):
        # Two asymmetric entries {-8, -2}: the 0.75 quantile interpolates to -3.5.
        s = np.array([[np.nan, -8.0], [-2.0, np.nan]])
        apply_preference(s, 0.75)
        assert preferences(s).tolist() == [-3.5, -3.5]

    def test_explicit_preference(self):
        s = line_matrix()
        set_preference(s, -2.5)
        assert preferences(s).tolist() == [-2.5, -2.5, -2.5]

    def test_off_diagonal_of_two_points_is_a_copy(self):
        # A 1 x 2 view counts as contiguous; the quantile must still not sort s in place.
        s = np.array([[np.nan, -8.0], [-2.0, np.nan]])
        apply_preference(s, 0.0)
        assert s[0, 1] == -8.0 and s[1, 0] == -2.0

    def test_non_finite_explicit_preference_refused(self):
        with pytest.raises(InputError, match="preference must be finite"):
            set_preference(line_matrix(), np.nan)

    def test_quantile_out_of_range(self):
        with pytest.raises(InputError):
            ApcConfig(q=1.5)
        with pytest.raises(InputError):
            ApcConfig(q=-0.1)
        with pytest.raises(InputError, match=r"q must be in \[0, 1\], got 1.5"):
            apply_preference(line_matrix(), 1.5)

    @pytest.mark.parametrize(
        "use",
        [
            preferences,
            lambda s: run_apc_on_matrix(s, ApcConfig()),
            brute_force_exemplars,
        ],
        ids=["preferences", "run_apc_on_matrix", "brute_force_exemplars"],
    )
    def test_matrix_without_preference_refused(self, use):
        with pytest.raises(ValueError, match="preference has not been applied"):
            use(line_matrix())


def zero_messages(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Zero R and A plus a fresh kernel workspace (support, scratch)."""
    return (np.zeros((n, n)), np.zeros((n, n))) + message_workspace(n)


@st.composite
def grid_points(draw, max_n=30):
    """Points on a coarse integer grid, so duplicates and tied similarities are common."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    coords = st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
    return np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=np.float64)


class TestMessageUpdates:
    def test_responsibility_sweep_from_zero(self):
        # With zero availabilities and no damping, r(i,k) = s(i,k) minus the
        # best competing similarity in row i. Hand-computed on the line
        # fixture at q=1 (preference -1).
        s = line_matrix()
        apply_preference(s, 1.0)
        r, a, support, tmp = zero_messages(3)
        update_responsibilities(s, r, a, 0.0, support, tmp)
        expected = np.array([[0.0, 0.0, -8.0], [0.0, 0.0, -3.0], [-8.0, -3.0, 3.0]])
        np.testing.assert_array_equal(r, expected)
        # Column support: r(k,k) plus the positive off-diagonal entries of column k.
        np.testing.assert_array_equal(support, [0.0, 0.0, 3.0])

    def test_availability_sweep_after_responsibilities(self):
        # Continuing the fixture above: no positive off-diagonal
        # responsibilities exist, so every availability is zero.
        s = line_matrix()
        apply_preference(s, 1.0)
        r, a, support, tmp = zero_messages(3)
        update_responsibilities(s, r, a, 0.0, support, tmp)
        update_availabilities(r, a, 0.0, support, tmp)
        np.testing.assert_array_equal(a, np.zeros((3, 3)))

    def test_availability_two_point_case(self):
        # a(1,0) = min(0, r(0,0)) and a(0,0) = max(0, r(1,0)). The column
        # support is r(0,0) + max(0, r(1,0)) = 2 and max(0, r(0,1)) + r(1,1) = -3.
        r, a, _, tmp = zero_messages(2)
        r[:] = [[-3.0, 1.0], [5.0, -4.0]]
        update_availabilities(r, a, 0.0, np.array([2.0, -3.0]), tmp)
        assert a[1, 0] == -3.0
        assert a[0, 0] == 5.0

    def test_damping_blends_old_and_new(self):
        # Two points, preference -10, similarity -4, zero availabilities:
        # raw r(i, i) = -10 - (-4) = -6 and raw r(i, k) = -4 - (-10) = 6.
        # Old messages 0 and 10 blended at damping 0.9 give -0.6 and 9.6.
        s = np.array([[-10.0, -4.0], [-4.0, -10.0]])
        r, a, support, tmp = zero_messages(2)
        r[:] = [[0.0, 10.0], [10.0, 0.0]]
        update_responsibilities(s, r, a, 0.9, support, tmp)
        np.testing.assert_allclose(r, [[-0.6, 9.6], [9.6, -0.6]])

    @settings(max_examples=60, deadline=None)
    @given(
        grid_points(),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.integers(min_value=1, max_value=8),
    )
    def test_off_diagonal_availability_never_positive(self, xy, q, damping, block):
        # After every iteration: a(i, k) <= 0 off the diagonal, a(k, k) >= 0
        # on it, and every message finite.
        n = len(xy)
        s = build_similarity(xy)
        apply_preference(s, q)
        r, a = np.zeros((n, n)), np.zeros((n, n))
        support, tmp = np.zeros(n), np.empty((block + 1, n))
        off = ~np.eye(n, dtype=bool)
        for _ in range(50):
            update_responsibilities(s, r, a, damping, support, tmp)
            update_availabilities(r, a, damping, support, tmp)
            assert np.all(a[off] <= 0.0), "off-diagonal availability above zero"
            assert np.all(a.diagonal() >= 0.0), "negative self-availability"
            assert np.isfinite(r).all() and np.isfinite(a).all()


class TestDecisionsAndObjective:
    def test_two_identical_points_tie_breaks_low(self):
        res = run_apc(np.array([[1.0, 1.0], [1.0, 1.0]]), ApcConfig(q=0.5))
        assert res.exemplars == [0]
        assert res.assignment.tolist() == [0, 0]

    def test_symmetric_pair_with_generous_preference(self):
        # Preference -d^2/2 makes two singletons strictly better than one
        # shared exemplar: -d^2 beats -3/2 d^2.
        xy = np.array([[0.0, 0.0], [10.0, 0.0]])
        s = build_similarity(xy)
        set_preference(s, -50.0)
        res = run_apc_on_matrix(s, ApcConfig(q=0.5))
        assert res.exemplars == [0, 1]
        assert res.net_similarity == -100.0

    def test_net_similarity_definition(self):
        s = line_matrix()
        apply_preference(s, 0.5)
        value = net_similarity(s, np.array([0]), np.array([0, 0, 0]))
        # preference of exemplar 0 plus s(1,0) and s(2,0)
        assert value == -4.0 + -1.0 + -9.0

    def test_refinement_recenters_cluster(self):
        # Force exemplar 0 through the decision criterion, then let refinement
        # move it to point 1, whose summed similarity over {0,1,2} is best.
        s = line_matrix()
        apply_preference(s, 0.5)
        exemplars, assignment = decide_exemplars(s, np.array([1.0, -1.0, -1.0]))
        assert exemplars.tolist() == [1]
        assert assignment.tolist() == [1, 1, 1]

    def test_result_counts(self):
        rng = np.random.default_rng(11)
        xy = rng.uniform(0, 50, size=(20, 2))
        res = run_apc(xy, ApcConfig(q=0.9))
        counts = np.bincount(res.assignment, minlength=20)
        assert counts[res.exemplars].sum() == 20
        for e in res.exemplars:
            assert res.assignment[e] == e


class TestConfig:
    def test_damping_bounds(self):
        with pytest.raises(InputError):
            ApcConfig(damping=0.4)
        with pytest.raises(InputError):
            ApcConfig(damping=1.0)

    def test_window_must_fit_budget(self):
        with pytest.raises(InputError):
            ApcConfig(max_iterations=50, convergence_window=50)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InputError, match="rng_seed must be non-negative, got -1"):
            ApcConfig(jitter_scale=1e-6, rng_seed=-1)

    def test_jitter_determinism(self):
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 100, size=(15, 2))
        cfg = ApcConfig(q=0.7, jitter_scale=1e-6, rng_seed=42)
        a = run_apc(xy, cfg)
        b = run_apc(xy, cfg)
        assert a.exemplars == b.exemplars
        assert a.net_similarity == b.net_similarity
        assert a.assignment.tolist() == b.assignment.tolist()

    def test_jitter_leaves_input_matrix_clean(self):
        s = line_matrix()
        apply_preference(s, 0.5)
        assert_run_restores_matrix(s, LINE_XY)

    def test_jitter_restores_negative_zero_preference(self):
        # Duplicate points give -0.0 off the diagonal; the added zero noise
        # would leave +0.0 on a -0.0 diagonal.
        xy = np.repeat(LINE_XY, 2, axis=0)
        s = build_similarity(xy)
        set_preference(s, -0.0)
        assert_run_restores_matrix(s, xy)
        assert np.signbit(s.diagonal()).all()

    def test_jitter_restores_matrix_when_kernel_raises(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(core, "update_availabilities", fail)
        s = line_matrix()
        apply_preference(s, 0.5)
        with pytest.raises(RuntimeError, match="kernel failed"):
            assert_run_restores_matrix(s, LINE_XY)

    def test_hand_built_matrix_cannot_be_jittered(self):
        s = line_matrix()
        apply_preference(s, 0.5)
        with pytest.raises(ValueError, match="jitter needs the points"):
            assert_run_restores_matrix(s, None)

    @pytest.mark.parametrize("xy", [LINE_XY[:2], LINE_XY.tolist()], ids=["too_few_rows", "a_list"])
    def test_jitter_refuses_points_not_an_array_for_this_matrix(self, xy):
        s = line_matrix()
        apply_preference(s, 0.5)
        with pytest.raises(ValueError, match="jitter needs the points"):
            assert_run_restores_matrix(s, xy)

    def test_run_converts_points_once(self):
        # A one-shot iterator can be read once: a second conversion for the
        # jitter rebuild would see no points.
        xy = np.random.default_rng(8).uniform(0, 100, size=(15, 2))
        cfg = ApcConfig(q=0.5, jitter_scale=1e-6, rng_seed=3)
        a = run_apc(iter([(x, y) for x, y in xy.tolist()]), cfg)
        b = run_apc(xy, cfg)
        assert a.exemplars == b.exemplars
        assert a.net_similarity.hex() == b.net_similarity.hex()


def assert_run_restores_matrix(s: np.ndarray, xy) -> None:
    """A jittered run leaves s bit for bit as it was, whether or not it raises."""
    before = s.copy()
    try:
        run_apc_on_matrix(s, ApcConfig(q=0.5, jitter_scale=1.0, rng_seed=1), xy)
    finally:
        assert np.array_equal(s.view(np.uint64), before.view(np.uint64))


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
                st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(coords)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(point_sets(), st.sampled_from([0.1, 0.5, 0.9]))
    def test_assignment_conservation(self, xy, q):
        res = run_apc(xy, ApcConfig(q=q, max_iterations=300, convergence_window=30))
        n = len(xy)
        assert len(res.assignment) == n
        # every exemplar is self-assigned and every point maps to an exemplar
        for e in res.exemplars:
            assert res.assignment[e] == e
        assert set(res.assignment.tolist()) <= set(res.exemplars)
        assert np.bincount(res.assignment, minlength=n)[res.exemplars].sum() == n

    @settings(max_examples=40, deadline=None)
    @given(point_sets())
    def test_exemplar_count_monotone_in_extremes(self, xy):
        low = run_apc(xy, ApcConfig(q=0.0, max_iterations=300, convergence_window=30))
        high = run_apc(xy, ApcConfig(q=1.0, max_iterations=300, convergence_window=30))
        assert len(low.exemplars) <= len(high.exemplars) or len(np.unique(xy, axis=0)) < len(xy)


def assert_bitwise_equal(x: np.ndarray, y: np.ndarray) -> None:
    """Same values and the same sign on every zero."""
    assert np.array_equal(x, y)
    assert np.array_equal(np.signbit(x), np.signbit(y))


def assert_kernel_matches_reference(xy, q, damping, jitter, block, iterations, seed=3):
    """After every iteration the blocked kernel's R and A equal the full-matrix reference exactly."""
    n = len(xy)
    clean = build_similarity(xy)
    apply_preference(clean, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_SCRATCH_BYTES", 8 * n * block)
        r, a, support, tmp = zero_messages(n)
        s = clean.copy()
        if jitter:
            core._jitter(s, jitter, seed)
    assert tmp.shape == (block + 1, n)
    s_ref = reference_jittered(clean, jitter, seed) if jitter else clean
    assert_bitwise_equal(s, s_ref)
    r_ref, a_ref = np.zeros((n, n)), np.zeros((n, n))
    for _ in range(iterations):
        reference_responsibilities(s_ref, r_ref, a_ref, damping)
        reference_availabilities(r_ref, a_ref, damping)
        update_responsibilities(s, r, a, damping, support, tmp)
        update_availabilities(r, a, damping, support, tmp)
        assert_bitwise_equal(r, r_ref)
        assert_bitwise_equal(a, a_ref)


class TestKernelMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        grid_points(),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.sampled_from([0.0, 1e-6, 1.0]),
        st.integers(min_value=1, max_value=32),
    )
    def test_fuzzed(self, xy, q, damping, jitter, block):
        assert_kernel_matches_reference(xy, q, damping, jitter, block, iterations=12)

    @pytest.mark.parametrize(
        "n, block, jitter",
        [
            (2, 1, 0.0),  # two points: each row has one rival candidate
            (2, 1, 1.0),
            (10, 1, 0.0),  # one row per block
            (10, 3, 0.0),  # blocks of 3, 3, 3 and a ragged 1
            (10, 3, 1e-6),
            (10, 4, 1.0),  # blocks of 4, 4 and a ragged 2
            (7, 9, 0.0),  # one block larger than the matrix
            (300, core._block_rows(300), 0.0),  # the shipped layout at 300 points: 218 rows, then 82
        ],
    )
    def test_block_layouts(self, n, block, jitter):
        xy = np.random.default_rng(n).uniform(0, 50, size=(n, 2))
        assert_kernel_matches_reference(xy, 0.5, 0.9, jitter, block, iterations=25)

    def test_duplicate_points(self):
        xy = np.repeat(np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0]]), 4, axis=0)
        assert_kernel_matches_reference(xy, 0.9, 0.5, 0.0, 5, iterations=25)

    def test_iteration_allocates_no_matrix(self):
        n = 400
        s = build_similarity(np.random.default_rng(0).uniform(0, 100, size=(n, 2)))
        apply_preference(s, 0.5)
        r, a, support, tmp = zero_messages(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                update_responsibilities(s, r, a, 0.9, support, tmp)
                update_availabilities(r, a, 0.9, support, tmp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < n * n * 8 // 10


class TestPreferenceMatchesFullQuantile:
    @settings(max_examples=100, deadline=None)
    @given(grid_points(max_n=20), st.floats(min_value=0.0, max_value=1.0))
    def test_same_bits_as_masked_quantile(self, xy, q):
        s = build_similarity(xy)
        off = ~np.eye(len(s), dtype=bool)
        before = s[off]
        expected = np.quantile(before, q)
        apply_preference(s, q)
        assert_bitwise_equal(preferences(s), np.full(len(s), expected))
        assert_bitwise_equal(s[off], before)
