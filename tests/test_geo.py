"""Projection, hull, area, and containment tests with analytic and library oracles."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from apclust.errors import InputError
from apclust.geo import (
    EARTH_RADIUS_M,
    MAX_SUPPORTED_LAT_DEG,
    ClusterPolygon,
    GeoPoint,
    PlanarPoint,
    centroid,
    contains,
    planar_to_array,
    polygonize,
    project,
    unproject,
)
from references import ReferencePolygon, reference_contains, reference_mean, reference_project

ORIGIN = GeoPoint(lon=-51.2, lat=-30.0)
# Whole valid ranges, signed zeros and the polar band included.
LONS = st.one_of(st.floats(min_value=-180.0, max_value=180.0), st.sampled_from([-0.0, -51.2, -51.2000001]))
LATS = st.one_of(st.floats(min_value=-90.0, max_value=90.0), st.sampled_from([-0.0, -30.0, 89.9, 89.95]))


# Ring centres out to +-2e7 m, where one ulp is about 4e-9 m.
CENTRES = st.one_of(st.sampled_from([0.0, -2e7, 2e7, 1e6]), st.floats(min_value=-2e7, max_value=2e7))
# Perpendicular offsets from an edge around _BOUNDARY_EPS_M (1e-9 m).
EDGE_OFFSETS_M = (0.0, 1e-10, 1e-9, 2e-9, 0.999, 1.0, 1.001)
NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def hard_rings(draw) -> np.ndarray:
    """A closed ring near a far centre: a polygonize hull, or hand-built with repeats and horizontal edges."""
    cx, cy = draw(CENTRES), draw(CENTRES)
    if draw(st.booleans()):
        local = st.floats(min_value=-500.0, max_value=500.0)
        members = draw(st.lists(st.tuples(local, local), min_size=1, max_size=8))
        ring = polygonize(np.array(members)).ring
    else:
        # Few grid values: vertices repeat (zero-length edges) and share a y (horizontal edges).
        step = draw(st.sampled_from([0.5, 1.0, 7.0, 100.0]))
        grid = st.integers(min_value=-2, max_value=2).map(lambda v: step * v)
        verts = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=8))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            verts[0] = (draw(st.sampled_from(NON_FINITE)), verts[0][1])
        ring = np.array(verts + verts[:1], dtype=np.float64)
    return ring + np.array([cx, cy])


def points_near_edges(ring: np.ndarray, along: float) -> list[tuple[float, float]]:
    """Vertices, points off each edge at EDGE_OFFSETS_M (either side, beyond both ends) and non-finite points."""
    pts = []
    for (x1, y1), (x2, y2) in zip(ring[:-1].tolist(), ring[1:].tolist()):
        dx, dy = x2 - x1, y2 - y1
        length = math.hypot(dx, dy)
        ux, uy = (dx / length, dy / length) if 0 < length < math.inf else (1.0, 0.0)
        for d in EDGE_OFFSETS_M:
            for t in (0.0, 0.5, 1.0, along):
                for side in (1.0, -1.0):
                    pts.append((x1 + t * dx - side * d * uy, y1 + t * dy + side * d * ux))
            pts += [(x1 - d * ux, y1 - d * uy), (x2 + d * ux, y2 + d * uy), (x2 + d * (ux - uy), y2 + d * (uy + ux))]
        pts += [(v, y1) for v in NON_FINITE] + [(x1, v) for v in NON_FINITE] + [(v, v) for v in NON_FINITE]
    return pts


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


class TestGeoPoint:
    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            GeoPoint(lon=181.0, lat=0.0)
        with pytest.raises(InputError):
            GeoPoint(lon=0.0, lat=-91.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            GeoPoint(lon=float("nan"), lat=0.0)
        with pytest.raises(InputError):
            GeoPoint(lon=0.0, lat=float("inf"))


def lonlat_of(*points: GeoPoint) -> np.ndarray:
    return np.array([(p.lon, p.lat) for p in points])


class TestProjection:
    def test_origin_maps_to_zero(self):
        ((x, y),) = project(lonlat_of(ORIGIN), ORIGIN)
        assert x == 0.0 and y == 0.0

    def test_northward_step_against_haversine(self):
        north = GeoPoint(lon=ORIGIN.lon, lat=ORIGIN.lat + 0.01)
        ((x, y),) = project(lonlat_of(north), ORIGIN)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert y == pytest.approx(haversine_m(ORIGIN, north), abs=0.5)

    def test_eastward_step_against_haversine(self):
        east = GeoPoint(lon=ORIGIN.lon + 0.01, lat=ORIGIN.lat)
        ((x, y),) = project(lonlat_of(east), ORIGIN)
        assert y == pytest.approx(0.0, abs=1e-9)
        assert x == pytest.approx(haversine_m(ORIGIN, east), rel=1e-4)

    def test_polar_origin_refused(self):
        with pytest.raises(InputError):
            project(lonlat_of(ORIGIN), GeoPoint(lon=0.0, lat=89.95))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    def test_round_trip_within_nanodegree(self, dlon, dlat):
        g = GeoPoint(lon=ORIGIN.lon + dlon, lat=ORIGIN.lat + dlat)
        ((lon, lat),) = unproject(project(lonlat_of(g), ORIGIN), ORIGIN)
        assert abs(lon - g.lon) < 1e-9
        assert abs(lat - g.lat) < 1e-9

    def test_unproject_refuses_first_row_out_of_range_by_index(self):
        # Row 1 lands past the north pole and row 2 past lon -180; the first is named.
        xy = np.array([(0.0, 0.0), (0.0, 1.4e7), (-2e7, 0.0)])
        message = r"^point 1: coordinate \(-51\.2, 95\.9\d*\) outside lon \[-180, 180\], lat \[-90, 90\]$"
        with pytest.raises(InputError, match=message):
            unproject(xy, ORIGIN)
        with pytest.raises(InputError, match=r"^point 1: coordinate \(-258\.8\d*, -30\.0\) outside"):
            unproject(xy[::2], ORIGIN)

    def test_centroid(self):
        c = centroid(np.array([(10.0, 0.0), (20.0, 10.0)]))
        assert c.lon == 15.0 and c.lat == 5.0

    def test_centroid_empty_refused(self):
        with pytest.raises(InputError):
            centroid(np.empty((0, 2)))

    def test_centroid_sums_left_to_right(self):
        # Compensated summation (Python 3.12's sum) keeps the 1e-14 and gives about 3.3e-15.
        assert centroid(np.array([(180.0, 0.0), (1e-14, 0.0), (-180.0, 0.0)])).lon == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(LONS, LATS), min_size=1, max_size=30))
    def test_centroid_matches_left_to_right_loop(self, coords):
        c = centroid(np.array(coords, dtype=np.float64))
        # The latitude is held within the supported band.
        mean_lat = min(max(reference_mean([lat for _, lat in coords]), -MAX_SUPPORTED_LAT_DEG), MAX_SUPPORTED_LAT_DEG)
        assert c.lon.hex() == reference_mean([lon for lon, _ in coords]).hex()
        assert c.lat.hex() == mean_lat.hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(LONS, LATS), max_size=30), st.tuples(LONS, LATS))
    def test_projection_matches_per_point_reference(self, coords, origin_coords):
        points = [GeoPoint(lon, lat) for lon, lat in coords]
        lonlat = np.array(coords, dtype=np.float64).reshape(-1, 2)
        origin = GeoPoint(*origin_coords)
        try:
            expected = planar_to_array(reference_project(points, origin)).reshape(-1, 2)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                project(lonlat, origin)
            return
        xy = project(lonlat, origin)
        assert xy.dtype == np.float64 and xy.shape == (len(points), 2)
        assert np.array_equal(xy, expected)
        assert np.array_equal(np.signbit(xy), np.signbit(expected))


def square_ring(side: float) -> ClusterPolygon:
    corners = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side), (0.0, 0.0)]
    return ClusterPolygon(ring=np.array(corners))


class TestClusterPolygon:
    @pytest.mark.parametrize(
        "ring",
        [
            # Measured without its closing row, this square read 0.005 km², not 0.01.
            [[0, 0], [100, 0], [100, 100], [0, 100]],
            # The ray cast walked this one without a closing edge and put (20, 50) outside.
            [[0, 0], [100, 0], [100, 100], [0, 100], [50, 50]],
        ],
        ids=["no_closing_row", "ends_in_the_middle"],
    )
    def test_unclosed_ring_refused(self, ring):
        with pytest.raises(InputError, match="not closed"):
            ClusterPolygon(ring=np.array(ring, dtype=np.float64))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_vertex_refused(self, value, row):
        ring = square_ring(100.0).ring.copy()
        ring[row, 0] = value
        if row == 0:
            ring[-1, 0] = value
        with pytest.raises(InputError, match="non-finite vertex"):
            ClusterPolygon(ring=ring)

    @pytest.mark.parametrize(
        "ring",
        [np.zeros((1, 2)), np.zeros((4, 3)), np.zeros(8), np.zeros((2, 2, 2)), [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
        ids=["one_row", "three_columns", "flat_array", "three_dims", "list"],
    )
    def test_ring_not_an_m_plus_1_by_2_array_refused(self, ring):
        with pytest.raises(InputError, match=r"\(m \+ 1, 2\) array"):
            ClusterPolygon(ring=ring)

    @pytest.mark.parametrize("member", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 5.0)])
    def test_polygonize_refuses_a_non_finite_member(self, member):
        with pytest.raises(InputError, match="non-finite vertex"):
            polygonize(np.array([member, (10.0, 0.0), (0.0, 10.0)]))
        with pytest.raises(InputError, match="non-finite vertex"):
            polygonize(np.array([member]))


class TestAreas:
    def test_unit_square(self):
        assert square_ring(1.0).area_km2 == pytest.approx(1e-6, rel=1e-9)

    def test_345_triangle(self):
        ring = [PlanarPoint(0.0, 0.0), PlanarPoint(3.0, 0.0), PlanarPoint(3.0, 4.0), PlanarPoint(0.0, 0.0)]
        p = ClusterPolygon(ring=planar_to_array(ring))
        assert p.area_km2 == pytest.approx(6.0 / 1e6, rel=1e-9)

    def test_regular_hexagon(self):
        r = 1000.0
        ring = [
            PlanarPoint(r * math.cos(k * math.pi / 3), r * math.sin(k * math.pi / 3)) for k in range(6)
        ]
        ring.append(ring[0])
        p = ClusterPolygon(ring=planar_to_array(ring))
        expected = 3.0 * math.sqrt(3.0) / 2.0 * r * r / 1e6
        assert p.area_km2 == pytest.approx(expected, rel=1e-9)

    def test_orientation_independent(self):
        p = square_ring(10.0)
        q = ClusterPolygon(ring=p.ring[::-1])
        assert q.area_km2 == p.area_km2


class TestPolygonize:
    def test_triangle_hull(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [2.0, 2.0]])
        poly = polygonize(xy)
        assert len(poly.ring) == 4  # closed triangle, interior point dropped
        assert np.array_equal(poly.ring[0], poly.ring[-1])
        assert poly.area_km2 == pytest.approx(50.0 / 1e6, rel=1e-9)

    def test_ring_is_counter_clockwise(self):
        xy = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
        poly = polygonize(xy)
        open_ring = planar_to_array(poly.ring[:-1])
        x, y = open_ring[:, 0], open_ring[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0

    def test_single_point_buffers_to_square(self):
        poly = polygonize(np.array([[100.0, 200.0]]), buffer_m=15.0)
        assert poly.area_km2 == pytest.approx(900.0 / 1e6, rel=1e-9)
        assert contains(poly, PlanarPoint(100.0, 200.0))

    def test_two_points_buffer(self):
        poly = polygonize(np.array([[0.0, 0.0], [100.0, 0.0]]), buffer_m=15.0)
        # rectangle 130 x 30 around the pair
        assert poly.area_km2 == pytest.approx(130.0 * 30.0 / 1e6, rel=1e-9)
        assert contains(poly, PlanarPoint(50.0, 0.0))

    def test_collinear_points_buffer(self):
        xy = np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]])
        poly = polygonize(xy, buffer_m=5.0)
        assert poly.area_km2 == pytest.approx(110.0 * 10.0 / 1e6, rel=1e-9)

    def test_empty_refused(self):
        with pytest.raises(InputError):
            polygonize(np.empty((0, 2)))

    @pytest.mark.parametrize("buffer_m", [0.0, -5.0, math.nan, math.inf])
    def test_buffer_must_be_positive_and_finite(self, buffer_m):
        with pytest.raises(InputError, match="buffer_m must be positive and finite"):
            polygonize(np.array([[0.0, 0.0], [100.0, 0.0]]), buffer_m=buffer_m)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_hull_matches_scipy_and_contains_members(self, n, seed):
        rng = np.random.default_rng(seed)
        xy = rng.normal(0.0, 50.0, size=(n, 2))
        poly = polygonize(xy)
        for x, y in xy:
            assert contains(poly, PlanarPoint(float(x), float(y)))
        hull = ConvexHull(xy)
        assert poly.area_km2 == pytest.approx(hull.volume / 1e6, rel=1e-9)


class TestContains:
    def test_interior_and_exterior(self):
        p = square_ring(10.0)
        assert contains(p, PlanarPoint(5.0, 5.0))
        assert not contains(p, PlanarPoint(15.0, 5.0))
        assert not contains(p, PlanarPoint(-0.001, 5.0))

    def test_boundary_inclusive(self):
        p = square_ring(10.0)
        assert contains(p, PlanarPoint(0.0, 5.0))  # edge midpoint
        assert contains(p, PlanarPoint(0.0, 0.0))  # vertex
        assert contains(p, PlanarPoint(10.0, 10.0))

    def test_just_outside_edge(self):
        p = square_ring(10.0)
        assert not contains(p, PlanarPoint(10.0 + 1e-6, 5.0))

    @settings(max_examples=300, deadline=None)
    @given(hard_rings(), st.floats(min_value=-0.5, max_value=1.5))
    def test_matches_reference_near_edges(self, ring, along):
        if not np.isfinite(ring).all():
            with pytest.raises(InputError, match="non-finite vertex"):
                ClusterPolygon(ring=ring)
            return
        poly = ClusterPolygon(ring=ring)
        # reference_contains reads only the ring.
        ref = ReferencePolygon(ring=[PlanarPoint(x, y) for x, y in ring.tolist()], area_km2=math.nan)
        for pt in points_near_edges(ring, along):
            assert contains(poly, pt) == reference_contains(ref, PlanarPoint(*pt)), pt
