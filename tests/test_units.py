"""Unit-of-analysis construction, intersection counting, and scale classification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apclust.core import ApcConfig, run_apc
from apclust.errors import DerivationError, InputError
from apclust.units import (
    ScaleThresholds,
    build_units,
    classify_level,
    count_intersections,
    derive_meso_threshold,
)
from apclust.geo import PlanarPoint, contains, polygonize
from references import reference_count_intersections, reference_polygonize

COORDS = st.floats(min_value=-2000.0, max_value=2000.0)
STEPS = st.floats(min_value=-50.0, max_value=50.0)
GRID = st.integers(min_value=-4, max_value=4).map(lambda v: 25.0 * v)


@st.composite
def member_sets(draw) -> np.ndarray:
    """1 to 12 planar points: scattered, on one line, or drawn with repeats from a few grid nodes."""
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["random", "collinear", "duplicated"]))
    if kind == "random":
        pts = draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n))
    elif kind == "collinear":
        x0, y0, dx, dy = draw(COORDS), draw(COORDS), draw(STEPS), draw(STEPS)
        steps = draw(st.lists(st.integers(min_value=-10, max_value=10), min_size=n, max_size=n))
        pts = [(x0 + t * dx, y0 + t * dy) for t in steps]
    else:
        nodes = draw(st.lists(st.tuples(GRID, GRID), min_size=1, max_size=4))
        pts = draw(st.lists(st.sampled_from(nodes), min_size=n, max_size=n))
    return np.array(pts, dtype=np.float64)


class TestClassifyLevel:
    @pytest.mark.parametrize(
        "median,expected",
        [
            (0, "micro"),
            (1, "micro"),
            (1.5, "meso"),
            (2, "meso"),
            (30, "meso"),
            (30.5, "macro"),
            (189, "macro"),
        ],
    )
    def test_default_boundaries(self, median, expected):
        assert classify_level(median) == expected

    def test_custom_thresholds(self):
        t = ScaleThresholds(micro_max=2, meso_max=25)
        assert classify_level(2, t) == "micro"
        assert classify_level(25, t) == "meso"
        assert classify_level(26, t) == "macro"

    def test_negative_refused(self):
        with pytest.raises(InputError):
            classify_level(-1)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(InputError):
            ScaleThresholds(micro_max=30, meso_max=30)
        with pytest.raises(InputError):
            ScaleThresholds(micro_max=-1, meso_max=5)


class TestCountIntersections:
    def test_square_counts_grid_points(self):
        # 10 x 10 grid at (100 + 200i, 100 + 200j); the [0, 1000]^2 square
        # holds the 25 points with both coordinates in {100, ..., 900}.
        grid = np.array([[100.0 + 200.0 * i, 100.0 + 200.0 * j] for i in range(10) for j in range(10)])
        square = polygonize(np.array([[0.0, 0.0], [1000.0, 0.0], [1000.0, 1000.0], [0.0, 1000.0]]))
        assert count_intersections([square], grid) == [25]

    def test_boundary_point_counts(self):
        square = polygonize(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        assert count_intersections([square], np.array([[0.0, 0.0], [5.0, 10.0], [11.0, 5.0]])) == [2]

    def test_empty_inventory(self):
        square = polygonize(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        assert count_intersections([square], np.empty((0, 2))) == [0]
        assert count_intersections([square], None) == [0]

    def test_overlapping_polygons_count_twice(self):
        a = polygonize(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        b = polygonize(np.array([[5.0, 0.0], [15.0, 0.0], [15.0, 10.0], [5.0, 10.0]]))
        assert count_intersections([a, b], np.array([[7.0, 5.0]])) == [1, 1]


class TestPolygonsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(member_sets(), min_size=1, max_size=3),
        st.floats(min_value=0.5, max_value=50.0),
        st.lists(st.tuples(COORDS, COORDS), max_size=40),
    )
    def test_rings_areas_and_counts(self, member_lists, buffer_m, scattered):
        polys = [polygonize(xy, buffer_m=buffer_m) for xy in member_lists]
        refs = [reference_polygonize(xy, buffer_m=buffer_m) for xy in member_lists]
        for poly, ref in zip(polys, refs):
            expected = np.array(ref.ring, dtype=np.float64)
            assert poly.ring.dtype == np.float64 and poly.ring.shape == expected.shape
            assert poly.ring.tobytes() == expected.tobytes()
            assert poly.area_km2.hex() == ref.area_km2.hex()
        # Vertices and edge midpoints put candidates on the boundary.
        pts = np.vstack(
            [np.array(scattered, dtype=np.float64).reshape(-1, 2)]
            + [p.ring for p in polys]
            + [(p.ring[:-1] + p.ring[1:]) / 2.0 for p in polys]
        )
        counts = count_intersections(polys, pts)
        assert counts == reference_count_intersections(refs, pts)
        assert counts == [sum(contains(p, pt) for pt in pts.tolist()) for p in polys]


class TestDeriveThreshold:
    def test_median_of_occupied_cells(self):
        # Three occupied 1 km cells holding 2, 4, and 10 points.
        pts = []
        pts += [[100.0 + i, 100.0] for i in range(2)]
        pts += [[1100.0 + i, 100.0] for i in range(4)]
        pts += [[2100.0 + i, 100.0] for i in range(10)]
        assert derive_meso_threshold(np.array(pts)) == 4

    def test_half_up_rounding(self):
        # Occupied cells with 1 and 2 points: median 1.5 rounds to 2.
        pts = np.array([[100.0, 100.0], [1100.0, 100.0], [1110.0, 100.0]])
        assert derive_meso_threshold(pts) == 2

    def test_empty_cells_excluded(self):
        # One crowded cell: empty cells must not drag the median down.
        pts = np.array([[50.0 + i, 50.0] for i in range(7)])
        assert derive_meso_threshold(pts) == 7
        # A lone point 50 km away spans a box of about 2,500 cells, two of
        # them occupied (7 and 1 points): the median of those two is 4.
        far = np.vstack([pts, [[50_050.0, 50_050.0]]])
        assert derive_meso_threshold(far) == 4

    def test_no_intersections_refused(self):
        with pytest.raises(DerivationError):
            derive_meso_threshold(np.empty((0, 2)))

    def test_cell_size_positive(self):
        with pytest.raises(InputError):
            derive_meso_threshold(np.array([[1.0, 1.0]]), cell_km=0.0)


def two_blob_points() -> np.ndarray:
    rng = np.random.default_rng(8)
    a = rng.normal((0.0, 0.0), 20.0, size=(12, 2))
    b = rng.normal((5000.0, 0.0), 20.0, size=(12, 2))
    return np.vstack([a, b])


class TestBuildUnits:
    def test_two_blob_run(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        units, cell = build_units(res, xy, np.empty((0, 2)), q=0.5, sample_size=len(xy))
        assert len(units) == 2
        assert cell.n_clusters == 2
        assert sum(u.n_points for u in units) == len(xy)
        assert cell.converged == res.converged
        assert cell.iterations == res.iterations_run
        for u in units:
            assert u.level == "micro"  # no intersections anywhere
            assert u.polygon.area_km2 > 0

    def test_unit_levels_follow_intersections(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        # Pile 40 intersections into the first blob's footprint only.
        inter = np.random.default_rng(9).normal((0.0, 0.0), 10.0, size=(40, 2))
        units, cell = build_units(res, xy, inter, q=0.5, sample_size=len(xy))
        by_count = sorted(units, key=lambda u: u.n_intersections)
        assert by_count[0].level == "micro"
        assert by_count[-1].level == "macro"
        assert cell.median_intersections == pytest.approx(
            float(np.median([u.n_intersections for u in units]))
        )

    def test_cell_median_area(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        units, cell = build_units(res, xy, np.empty((0, 2)), q=0.5, sample_size=len(xy))
        assert cell.median_area_km2 == pytest.approx(
            float(np.median([u.polygon.area_km2 for u in units]))
        )
        assert cell.q == 0.5
        assert cell.sample_size == len(xy)

    def test_cluster_ids_sequential(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        units, _ = build_units(res, xy, np.empty((0, 2)), q=0.5, sample_size=len(xy))
        assert [u.cluster_id for u in units] == list(range(len(res.exemplars)))

    def test_degenerate_cluster_buffered(self):
        # Identical points: one cluster, buffered polygon with positive area.
        xy = np.zeros((3, 2))
        res = run_apc(xy, ApcConfig(q=0.5))
        units, cell = build_units(res, xy, np.empty((0, 2)), q=0.5, sample_size=3, buffer_m=15.0)
        assert len(units) == 1
        assert units[0].polygon.area_km2 == pytest.approx(900.0 / 1e6, rel=1e-9)
        assert cell.level == "micro"
