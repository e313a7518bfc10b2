"""Unit-of-analysis construction, intersection counting, and scale classification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apclust import units
from apclust.core import ApcConfig, run_apc
from apclust.errors import InputError
from apclust.units import (
    ScaleThresholds,
    build_units,
    classify_level,
    count_intersections,
    derive_meso_threshold,
)
from apclust.geo import ClusterPolygon, PlanarPoint, contains, polygonize
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


def near_edges(poly: ClusterPolygon) -> np.ndarray:
    """The ring's vertices and edge midpoints, and points beside each midpoint along its outward normal.

    The normal steps straddle the 1 m margins of the hull cuts before
    contains on both sides: 0.5, 1 - 1e-6, 1 + 1e-6 and 1.5 m inside and
    outside.
    """
    mid = (poly.ring[:-1] + poly.ring[1:]) / 2.0
    d = poly.ring[1:] - poly.ring[:-1]
    # Right of a counter-clockwise ring's edge is outside.
    normal = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    steps = [mid + s * t * normal for s in (-1.0, 1.0) for t in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 1.5)]
    return np.vstack([poly.ring, mid, *steps])


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
        assert count_intersections([square], []) == [0]

    def test_overlapping_polygons_count_twice(self):
        a = polygonize(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]))
        b = polygonize(np.array([[5.0, 0.0], [15.0, 0.0], [15.0, 10.0], [5.0, 10.0]]))
        assert count_intersections([a, b], np.array([[7.0, 5.0]])) == [1, 1]

    def test_contains_called_only_for_points_that_may_lie_inside(self, monkeypatch):
        # The grid fills the diamond's bounding box, every point at least
        # 1.77 m from each edge line, so the hull cuts decide all 400 of them
        # without contains: more than 1 m outside an edge line is out, more
        # than 1 m inside all of them is in. Only the points 0.5 m either
        # side of each edge midpoint reach contains.
        calls = []
        monkeypatch.setattr(units, "contains", lambda poly, pt: calls.append(pt) or contains(poly, pt))
        diamond = polygonize(np.array([[0.0, -100.0], [100.0, 0.0], [0.0, 100.0], [-100.0, 0.0]]))
        grid = np.array([[-97.5 + 10.0 * i, -95.0 + 10.0 * j] for i in range(20) for j in range(20)])
        # 0.5 m along the unit normal (1, 1) / sqrt(2) of each edge midpoint (+-50, +-50).
        off = 0.5 / np.sqrt(2.0)
        shell = np.array([[sx * (50.0 + t), sy * (50.0 + t)] for sx in (-1, 1) for sy in (-1, 1) for t in (-off, off)])
        [count] = count_intersections([diamond], grid)
        assert count == sum(abs(x) + abs(y) <= 100.0 for x, y in grid.tolist()) > 150
        assert calls == []
        [count_shell] = count_intersections([diamond], np.vstack([grid, shell]))
        assert count_shell == count + 4
        assert sorted(calls) == sorted(map(tuple, shell.tolist()))

    @pytest.mark.parametrize(
        "ring,pts,inside",
        [
            # A square with a notch cut down from its top edge. Points left
            # of the notch's edge lines lie inside the ring, so a cut by the
            # ring's own edges would drop them; the notch itself is inside
            # the hull but outside the ring.
            (
                [[0, 0], [100, 0], [100, 100], [60, 100], [50, 40], [40, 100], [0, 100], [0, 0]],
                [
                    [10, 50], [90, 50], [50, 20], [50, 39.5], [20, 98.5],  # inside the ring
                    [50, 80], [50, 41.5], [45, 99], [55, 99],  # in the notch
                    [40, 100], [50, 40], [45, 70],  # on the notch's boundary
                    [50, 101.5], [101.5, 50], [-1.5, -1.5], [50, -100], [150, 150],  # outside the hull
                    [50, 100.5], [100.5, 50],  # outside, within 1 m of the hull
                ],
                8,
            ),
            # A ring along one line, whose hull is a segment: the cut keeps
            # the points within 1 m of its line, and contains takes those on it.
            (
                [[0, 0], [100, 100], [50, 50], [0, 0]],
                [[0, 0], [30, 30], [100, 100], [30, 30.5], [30, 32], [101, 101]],
                3,
            ),
            # A {5/2} pentagram, counter-clockwise and self-crossing. Its hull
            # is the pentagon through the same five vertices, and its centre,
            # wound twice, lies outside by the ray cast, though it is about
            # 80 m inside every hull edge line.
            (
                [[0, 100], [-58.779, -80.902], [95.106, 30.902], [-95.106, 30.902], [58.779, -80.902], [0, 100]],
                [
                    [0, 0], [0, 10], [10, -5],  # the centre pentagon, wound twice
                    [0, 60], [-50, 20], [45, 20], [-25, -50], [25, -50],  # one arm each, wound once
                    [40, 60], [-40, 60], [70, -20], [-70, -20], [0, -75],  # between the arms
                    [0, 100], [-58.779, -80.902],  # vertices
                ],
                7,
            ),
            # The same square two ways: clockwise, and with a repeated
            # vertex. Only the closed counter-clockwise hull itself lets the
            # inner cut decide; here contains decides.
            (
                [[0, 0], [0, 100], [100, 100], [100, 0], [0, 0]],
                [[20, 50], [80, 50], [50, 98.5], [50, 99.5], [0, 50], [100, 100], [50, 100.5], [150, 50]],
                6,
            ),
            (
                [[0, 0], [100, 0], [100, 0], [100, 100], [0, 100], [0, 0]],
                [[20, 50], [80, 50], [50, 98.5], [50, 99.5], [0, 50], [100, 100], [50, 100.5], [150, 50]],
                6,
            ),
        ],
        ids=["notched", "flat", "pentagram", "clockwise", "repeated_vertex"],
    )
    def test_hand_built_ring_cut_by_its_hull(self, ring, pts, inside):
        poly = ClusterPolygon(ring=np.array(ring, dtype=np.float64))
        pts = np.array(pts, dtype=np.float64)
        [count] = count_intersections([poly], pts)
        assert count == sum(contains(poly, pt) for pt in pts.tolist()) == inside


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
        pts = np.vstack([np.array(scattered, dtype=np.float64).reshape(-1, 2)] + [near_edges(p) for p in polys])
        counts = count_intersections(polys, pts)
        assert counts == reference_count_intersections(refs, pts)
        assert counts == [sum(contains(p, pt) for pt in pts.tolist()) for p in polys]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(member_sets(), min_size=1, max_size=3),
        st.floats(min_value=0.5, max_value=50.0),
        st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)),
        st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    )
    def test_counts_far_from_the_origin(self, member_lists, buffer_m, exponents, signs):
        # Rings and points shifted by up to 1e15 m, where 1 m is eight
        # ulps, count what per-point contains counts.
        shift = np.array(signs) * 10.0 ** np.array(exponents)
        polys = [polygonize(xy + shift, buffer_m=buffer_m) for xy in member_lists]
        pts = np.vstack([near_edges(p) for p in polys])
        counts = count_intersections(polys, pts)
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
        with pytest.raises(InputError, match="no intersections supplied"):
            derive_meso_threshold(np.empty((0, 2)))

    def test_cell_size_positive(self):
        with pytest.raises(InputError):
            derive_meso_threshold(np.array([[1.0, 1.0]]), cell_km=0.0)

    def test_grid_past_2_31_cells_per_axis_refused(self):
        # 1e-300 km cells put 2e301 cells along each axis, whose keys would overflow int64.
        pts = np.random.default_rng(3).uniform(0.0, 20_000.0, size=(1000, 2))
        with pytest.raises(InputError, match=r"2\*\*31 or more cells"):
            derive_meso_threshold(pts, cell_km=1e-300)
        # 1 mm cells, 2e7 along each axis: each point lies alone in its cell.
        assert derive_meso_threshold(pts, cell_km=1e-6) == 1


# Few distinct values, so that ties, and -0.0 beside 0.0, are common.
MEDIAN_INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
MEDIAN_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 1.5, -2.25]), st.floats(-1e300, 1e300))


class TestMedian:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(MEDIAN_INTS, min_size=1, max_size=41),
            st.lists(MEDIAN_FLOATS, min_size=1, max_size=41),
        )
    )
    def test_same_bits_as_numpy(self, values):
        got = units._median(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.median(values).tobytes(), (got, np.median(values))


def two_blob_points() -> np.ndarray:
    rng = np.random.default_rng(8)
    a = rng.normal((0.0, 0.0), 20.0, size=(12, 2))
    b = rng.normal((5000.0, 0.0), 20.0, size=(12, 2))
    return np.vstack([a, b])


class TestBuildUnits:
    def test_two_blob_run(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        units, cell = build_units(res, xy, np.empty((0, 2)), q=0.5)
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
        units, cell = build_units(res, xy, inter, q=0.5)
        by_count = sorted(units, key=lambda u: u.n_intersections)
        assert by_count[0].level == "micro"
        assert by_count[-1].level == "macro"
        assert cell.median_intersections == pytest.approx(
            float(np.median([u.n_intersections for u in units]))
        )

    def test_cell_median_area(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        units, cell = build_units(res, xy, np.empty((0, 2)), q=0.5)
        assert cell.median_area_km2 == pytest.approx(
            float(np.median([u.polygon.area_km2 for u in units]))
        )
        assert cell.q == 0.5
        assert cell.sample_size == len(xy)

    def test_point_set_must_match_result(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        with pytest.raises(InputError, match="point set does not match the clustering result"):
            build_units(res, xy[:-1], np.empty((0, 2)), q=0.5)

    def test_cluster_ids_sequential(self):
        xy = two_blob_points()
        res = run_apc(xy, ApcConfig(q=0.5))
        units, _ = build_units(res, xy, np.empty((0, 2)), q=0.5)
        assert [u.cluster_id for u in units] == list(range(len(res.exemplars)))

    def test_degenerate_cluster_buffered(self):
        # Identical points: one cluster, buffered polygon with positive area.
        xy = np.zeros((3, 2))
        res = run_apc(xy, ApcConfig(q=0.5))
        units, cell = build_units(res, xy, np.empty((0, 2)), q=0.5, buffer_m=15.0)
        assert len(units) == 1
        assert units[0].polygon.area_km2 == pytest.approx(900.0 / 1e6, rel=1e-9)
        assert cell.level == "micro"
