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
    ClusterPolygon,
    GeoPoint,
    PlanarPoint,
    centroid,
    contains,
    planar_to_array,
    polygon_area_km2,
    polygonize,
    project,
    unproject,
)
from references import reference_mean, reference_project

ORIGIN = GeoPoint(lon=-51.2, lat=-30.0)
# Whole valid ranges, signed zeros and the polar band included.
LONS = st.one_of(st.floats(min_value=-180.0, max_value=180.0), st.sampled_from([-0.0, -51.2, -51.2000001]))
LATS = st.one_of(st.floats(min_value=-90.0, max_value=90.0), st.sampled_from([-0.0, -30.0, 89.9, 89.95]))


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


class TestProjection:
    def test_origin_maps_to_zero(self):
        ((x, y),) = project([ORIGIN], ORIGIN)
        assert x == 0.0 and y == 0.0

    def test_northward_step_against_haversine(self):
        north = GeoPoint(lon=ORIGIN.lon, lat=ORIGIN.lat + 0.01)
        ((x, y),) = project([north], ORIGIN)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert y == pytest.approx(haversine_m(ORIGIN, north), abs=0.5)

    def test_eastward_step_against_haversine(self):
        east = GeoPoint(lon=ORIGIN.lon + 0.01, lat=ORIGIN.lat)
        ((x, y),) = project([east], ORIGIN)
        assert y == pytest.approx(0.0, abs=1e-9)
        assert x == pytest.approx(haversine_m(ORIGIN, east), rel=1e-4)

    def test_polar_origin_refused(self):
        with pytest.raises(InputError):
            project([ORIGIN], GeoPoint(lon=0.0, lat=89.95))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    def test_round_trip_within_nanodegree(self, dlon, dlat):
        g = GeoPoint(lon=ORIGIN.lon + dlon, lat=ORIGIN.lat + dlat)
        (back,) = unproject(project([g], ORIGIN), ORIGIN)
        assert abs(back.lon - g.lon) < 1e-9
        assert abs(back.lat - g.lat) < 1e-9

    def test_centroid(self):
        pts = [GeoPoint(lon=10.0, lat=0.0), GeoPoint(lon=20.0, lat=10.0)]
        c = centroid(pts)
        assert c.lon == 15.0 and c.lat == 5.0

    def test_centroid_empty_refused(self):
        with pytest.raises(InputError):
            centroid([])

    def test_centroid_sums_left_to_right(self):
        # Compensated summation (Python 3.12's sum) keeps the 1e-14 and gives about 3.3e-15.
        pts = [GeoPoint(180.0, 0.0), GeoPoint(1e-14, 0.0), GeoPoint(-180.0, 0.0)]
        assert centroid(pts).lon == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(LONS, LATS), min_size=1, max_size=30))
    def test_centroid_matches_left_to_right_loop(self, coords):
        c = centroid([GeoPoint(lon, lat) for lon, lat in coords])
        assert c.lon.hex() == reference_mean([lon for lon, _ in coords]).hex()
        assert c.lat.hex() == reference_mean([lat for _, lat in coords]).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(LONS, LATS), max_size=30), st.tuples(LONS, LATS))
    def test_projection_matches_per_point_reference(self, coords, origin_coords):
        points = [GeoPoint(lon, lat) for lon, lat in coords]
        lonlat = np.array(coords, dtype=np.float64).reshape(-1, 2)
        origin = GeoPoint(*origin_coords)
        try:
            expected = planar_to_array(reference_project(points, origin)).reshape(-1, 2)
        except InputError as exc:
            for given_points in (points, lonlat):
                with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                    project(given_points, origin)
            return
        for xy in (project(points, origin), project(lonlat, origin)):
            assert xy.dtype == np.float64 and xy.shape == (len(points), 2)
            assert np.array_equal(xy, expected)
            assert np.array_equal(np.signbit(xy), np.signbit(expected))


def square_ring(side: float) -> ClusterPolygon:
    corners = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side), (0.0, 0.0)]
    return ClusterPolygon(ring=np.array(corners))


class TestAreas:
    def test_unit_square(self):
        assert polygon_area_km2(square_ring(1.0)) == pytest.approx(1e-6, rel=1e-9)

    def test_345_triangle(self):
        ring = [PlanarPoint(0.0, 0.0), PlanarPoint(3.0, 0.0), PlanarPoint(3.0, 4.0), PlanarPoint(0.0, 0.0)]
        p = ClusterPolygon(ring=planar_to_array(ring))
        assert polygon_area_km2(p) == pytest.approx(6.0 / 1e6, rel=1e-9)

    def test_regular_hexagon(self):
        r = 1000.0
        ring = [
            PlanarPoint(r * math.cos(k * math.pi / 3), r * math.sin(k * math.pi / 3)) for k in range(6)
        ]
        ring.append(ring[0])
        p = ClusterPolygon(ring=planar_to_array(ring))
        expected = 3.0 * math.sqrt(3.0) / 2.0 * r * r / 1e6
        assert polygon_area_km2(p) == pytest.approx(expected, rel=1e-9)

    def test_orientation_independent(self):
        p = square_ring(10.0)
        q = ClusterPolygon(ring=p.ring[::-1])
        assert polygon_area_km2(q) == polygon_area_km2(p)


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
