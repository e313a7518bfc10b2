"""Testkit self-checks: the oracle against exhaustive enumeration, blob generation, CSV I/O."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from apclust.core import apply_preference, build_similarity, set_preference
from apclust.errors import InputError
from apclust.geo import EARTH_RADIUS_M
from apclust.pipeline import ingest_crashes
from apclust.testkit import (
    BLOB_FRAME_ORIGIN,
    SyntheticSpec,
    brute_force_exemplars,
    generate_blobs,
    write_points_csv,
)


def slow_reference(s: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Unoptimized enumeration used to validate the vectorized oracle.

    Applies the same rounding-tolerance tie policy as the oracle so that
    mathematically tied sets resolve to the same lexicographic winner.
    """
    n = s.shape[0]
    scored = []
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            cols = np.array(subset)
            value = float(s.diagonal()[cols].sum())
            rest = [i for i in range(n) if i not in subset]
            if rest:
                value += float(s[np.array(rest)][:, cols].max(axis=1).sum())
            scored.append((value, subset))
    best_value = max(v for v, _ in scored)
    tol = 1e-12 * max(1.0, abs(best_value))
    best_set = min(subset for v, subset in scored if v >= best_value - tol)
    return best_set, best_value


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        xy = rng.uniform(0.0, 100.0, size=(n, 2))
        m = build_similarity(xy)
        apply_preference(m, float(rng.uniform(0.2, 1.0)))
        fast_set, fast_value = brute_force_exemplars(m)
        slow_set, slow_value = slow_reference(m.s)
        assert fast_set == slow_set
        assert fast_value == pytest.approx(slow_value, rel=1e-12)

    def test_lexicographic_tie_break(self):
        # Two identical points: every non-empty subset scores 0; the
        # lexicographically smallest winning set is (0,).
        m = build_similarity(np.array([[1.0, 1.0], [1.0, 1.0]]))
        apply_preference(m, 0.5)
        best_set, best_value = brute_force_exemplars(m)
        assert best_set == (0,)
        assert best_value == 0.0

    def test_singleton_optimum_when_preference_dominates(self):
        xy = np.random.default_rng(2).uniform(0.0, 100.0, size=(6, 2))
        m = build_similarity(xy)
        set_preference(m, 1.0)  # strictly above every off-diagonal similarity
        best_set, best_value = brute_force_exemplars(m)
        assert best_set == tuple(range(6))
        assert best_value == pytest.approx(6.0)

    def test_size_cap_refused(self):
        xy = np.zeros((16, 2))
        m = build_similarity(xy)
        apply_preference(m, 0.5)
        with pytest.raises(InputError):
            brute_force_exemplars(m)

    def test_symmetric_pair_with_generous_preference(self):
        # With preference -d^2/2, two singletons (value -d^2) beat one
        # shared exemplar (value -3/2 d^2).
        m = build_similarity(np.array([[0.0, 0.0], [10.0, 0.0]]))
        set_preference(m, -50.0)
        best_set, best_value = brute_force_exemplars(m)
        assert best_set == (0, 1)
        assert best_value == -100.0

    def test_two_blob_fixture_selects_blob_medoids(self):
        # Tight 3-point blobs far apart: the optimum holds one exemplar
        # per blob.
        left = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        right = left + [5000.0, 0.0]
        m = build_similarity(np.vstack([left, right]))
        apply_preference(m, 0.5)
        best_set, _ = brute_force_exemplars(m)
        assert len(best_set) == 2
        assert min(best_set) < 3 <= max(best_set)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_subsets_never_beat_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 10))
        xy = rng.uniform(0.0, 200.0, size=(n, 2))
        m = build_similarity(xy)
        apply_preference(m, 0.5)
        _, best_value = brute_force_exemplars(m)
        s = m.s
        for _ in range(200):
            size = int(rng.integers(1, n + 1))
            subset = np.sort(rng.choice(n, size=size, replace=False))
            value = float(s.diagonal()[subset].sum())
            rest = np.setdiff1d(np.arange(n), subset)
            if rest.size:
                value += float(s[rest][:, subset].max(axis=1).sum())
            assert value <= best_value + 1e-9 * max(1.0, abs(best_value))


class TestGenerateBlobs:
    def test_count_and_type(self):
        spec = SyntheticSpec(n_blobs=3, points_per_blob=5, blob_sigma_m=30.0, min_separation_m=1000.0, seed=1)
        pts = generate_blobs(spec)
        assert isinstance(pts, np.ndarray) and pts.dtype == np.float64
        assert pts.shape == (15, 2)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_blobs=2, points_per_blob=4, blob_sigma_m=10.0, min_separation_m=500.0, seed=7)
        assert generate_blobs(spec).tobytes() == generate_blobs(spec).tobytes()

    def test_seed_changes_points(self):
        a = SyntheticSpec(n_blobs=2, points_per_blob=4, blob_sigma_m=10.0, min_separation_m=500.0, seed=1)
        b = SyntheticSpec(n_blobs=2, points_per_blob=4, blob_sigma_m=10.0, min_separation_m=500.0, seed=2)
        assert not np.array_equal(generate_blobs(a), generate_blobs(b))

    def test_blob_separation_visible_in_planar_distance(self):
        spec = SyntheticSpec(n_blobs=2, points_per_blob=1, blob_sigma_m=1.0, min_separation_m=5000.0, seed=3)
        (a_lon, a_lat), (b_lon, b_lat) = generate_blobs(spec).tolist()
        dlat = (b_lat - a_lat) * np.pi / 180.0 * EARTH_RADIUS_M
        dlon = (b_lon - a_lon) * np.pi / 180.0 * EARTH_RADIUS_M * np.cos(np.radians(a_lat))
        # centers at least min_separation apart; members deviate by a few sigma
        assert np.hypot(dlat, dlon) > 4000.0

    def test_zero_sigma_collapses_to_centers(self):
        spec = SyntheticSpec(n_blobs=1, points_per_blob=3, blob_sigma_m=0.0, min_separation_m=100.0, seed=6)
        a, b, c = generate_blobs(spec).tolist()
        assert a == b == c

    def test_impossible_packing_refused(self):
        spec = SyntheticSpec(n_blobs=40, points_per_blob=1, blob_sigma_m=1.0, min_separation_m=15_000.0, seed=1)
        with pytest.raises(InputError, match="could not place 40 centers"):
            generate_blobs(spec)

    def test_invalid_spec_refused(self):
        with pytest.raises(InputError):
            SyntheticSpec(n_blobs=0, points_per_blob=5, blob_sigma_m=10.0, min_separation_m=100.0, seed=1)
        with pytest.raises(InputError):
            SyntheticSpec(n_blobs=2, points_per_blob=0, blob_sigma_m=10.0, min_separation_m=100.0, seed=1)
        with pytest.raises(InputError, match="min_separation_m must be positive"):
            SyntheticSpec(n_blobs=2, points_per_blob=5, blob_sigma_m=10.0, min_separation_m=0.0, seed=1)
        with pytest.raises(InputError, match="blob_sigma_m must be non-negative"):
            SyntheticSpec(n_blobs=2, points_per_blob=5, blob_sigma_m=-1.0, min_separation_m=100.0, seed=1)


class TestCsvRoundTrip:
    def test_write_then_ingest(self, tmp_path):
        spec = SyntheticSpec(n_blobs=2, points_per_blob=6, blob_sigma_m=25.0, min_separation_m=800.0, seed=5)
        pts = generate_blobs(spec)
        path = tmp_path / "points.csv"
        write_points_csv(pts, path)
        back = ingest_crashes(path)
        assert back.n_rows == len(pts)
        assert back.n_rows == back.lonlat.shape[0]
        for (lon, lat), (parsed_lon, parsed_lat) in zip(pts.tolist(), back.lonlat.tolist()):
            assert parsed_lon == pytest.approx(lon, abs=1e-12)
            assert parsed_lat == pytest.approx(lat, abs=1e-12)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "points.csv"
        write_points_csv(np.array([(BLOB_FRAME_ORIGIN.lon, BLOB_FRAME_ORIGIN.lat)]), path)
        text = path.read_text()
        assert text.splitlines()[0] == "lat,lon"
        assert len(text.splitlines()) == 2
