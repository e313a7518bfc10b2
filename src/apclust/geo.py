"""Geodesy and polygon geometry: WGS84 to local planar meters, cluster hulls, areas, containment.

The projection is a local equirectangular mapping around an origin (usually
the dataset centroid): adequate at city scale (< 50 km extent, error below
0.1%) and exactly invertible. All polygon operations work on the planar
frame; areas are reported in km². Coordinates travel as (n, 2) arrays,
(lon, lat) rows in and (x, y) rows out; a PlanarPoint is one (x, y) row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError

EARTH_RADIUS_M = 6371008.8
# Equirectangular distortion grows without bound toward the poles.
MAX_SUPPORTED_LAT_DEG = 89.9
DEFAULT_BUFFER_M = 15.0
# Points within this distance of an edge count as inside (boundary-inclusive).
_BOUNDARY_EPS_M = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    """One validated WGS84 coordinate in decimal degrees (EPSG:4326), longitude first, such as an origin."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not valid_lonlat(self.lon, self.lat):
            raise InputError(f"coordinate ({self.lon}, {self.lat}) outside lon [-180, 180], lat [-90, 90]")


class PlanarPoint(NamedTuple):
    """Meters east (x) and north (y) of the projection origin."""

    x: float
    y: float


@dataclass(frozen=True)
class ClusterPolygon:
    """A closed ring around one cluster: an (m + 1, 2) planar array, m >= 1, whose last row repeats its first.

    polygonize builds it simple and counter-clockwise. InputError refuses any
    other shape, an unclosed ring or a non-finite vertex: none can be measured.
    """

    ring: np.ndarray

    def __post_init__(self) -> None:
        ring = self.ring
        if not isinstance(ring, np.ndarray) or ring.ndim != 2 or ring.shape[0] < 2 or ring.shape[1] != 2:
            got = getattr(ring, "shape", type(ring).__name__)
            raise InputError(f"polygon ring must be an (m + 1, 2) array with m >= 1, got {got}")
        if not np.isfinite(ring).all():
            raise InputError("polygon ring has a non-finite vertex")
        if not np.array_equal(ring[0], ring[-1]):
            raise InputError(f"polygon ring is not closed: last row {ring[-1].tolist()} is not its first")

    @property
    def area_km2(self) -> float:
        """Shoelace area of the ring in km², non-negative regardless of orientation."""
        return abs(_ring_signed_area_m2(self.ring[:-1])) / 1e6


def valid_lonlat(lon, lat):
    """The coordinate rule, for floats or elementwise: finite, lon in [-180, 180], lat in [-90, 90].

    NaN fails every comparison and +-inf falls outside the ranges, so the
    range test also rules out non-finite values.
    """
    return (abs(lon) <= 180.0) & (abs(lat) <= 90.0)


def _check_lat(lat: float) -> None:
    if abs(lat) > MAX_SUPPORTED_LAT_DEG:
        raise InputError(f"latitude {lat} beyond supported range (|lat| <= {MAX_SUPPORTED_LAT_DEG})")


def centroid(lonlat) -> GeoPoint:
    """Arithmetic mean of (n, 2) (lon, lat) rows; the conventional projection origin.

    Sums left to right from 0, as Python 3.11's sum() does, so the origin's
    bits do not depend on the Python version: np.sum adds pairwise and
    3.12's sum() compensates, and either changes every output downstream.

    The latitude is clamped to +-MAX_SUPPORTED_LAT_DEG: over rows within it
    only rounding can carry the mean past (three rows of 89.9 average
    89.90000000000002). project refuses rows beyond it by row, not by origin.
    """
    lonlat = np.asarray(lonlat, dtype=np.float64)
    if lonlat.shape[0] == 0:
        raise InputError("cannot take the centroid of no points")
    # Starting from 0.0, as sum() does, makes an all -0.0 sum +0.0.
    mean_lon, mean_lat = ((0.0 + float(np.add.accumulate(v)[-1])) / v.size for v in lonlat.T)
    return GeoPoint(lon=mean_lon, lat=min(max(mean_lat, -MAX_SUPPORTED_LAT_DEG), MAX_SUPPORTED_LAT_DEG))


def project(lonlat, origin: GeoPoint) -> np.ndarray:
    """Project (n, 2) (lon, lat) rows to an (n, 2) array of local planar meters around origin.

    x = R * dlon_rad * cos(lat_origin), y = R * dlat_rad.
    """
    _check_lat(origin.lat)
    lon, lat = np.asarray(lonlat, dtype=np.float64).T
    polar = np.flatnonzero(np.abs(lat) > MAX_SUPPORTED_LAT_DEG)
    if polar.size:
        i = int(polar[0])
        raise InputError(f"point {i}: latitude {float(lat[i])} beyond supported range")
    cos0 = math.cos(math.radians(origin.lat))
    xy = np.empty((lon.size, 2), dtype=np.float64)
    xy[:, 0] = EARTH_RADIUS_M * np.radians(lon - origin.lon) * cos0
    xy[:, 1] = EARTH_RADIUS_M * np.radians(lat - origin.lat)
    return xy


def unproject(points, origin: GeoPoint) -> np.ndarray:
    """Inverse of project, to (n, 2) (lon, lat) rows; round-trips within 1e-9 degrees near the origin.

    The first row outside valid_lonlat, such as a vertex buffered past a pole, is refused by index.
    """
    _check_lat(origin.lat)
    cos0 = math.cos(math.radians(origin.lat))
    xy = planar_to_array(points).reshape(-1, 2)
    lonlat = np.degrees(xy / (EARTH_RADIUS_M * cos0, EARTH_RADIUS_M)) + (origin.lon, origin.lat)
    bad = np.flatnonzero(~valid_lonlat(*lonlat.T))
    if bad.size:
        i = int(bad[0])
        lon, lat = lonlat[i].tolist()
        raise InputError(f"point {i}: coordinate ({lon}, {lat}) outside lon [-180, 180], lat [-90, 90]")
    return lonlat


def planar_to_array(points) -> np.ndarray:
    """(n, 2) float array from PlanarPoints, (x, y) pairs, or an existing array."""
    return np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64)


def _ring_signed_area_m2(xy: np.ndarray) -> float:
    """Shoelace signed area of an open vertex list (no repeated endpoint)."""
    x = xy[:, 0]
    y = xy[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _convex_hull(xy: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, collinear points dropped.

    Degenerate inputs (all points collinear or coincident) collapse to
    fewer than 3 vertices.
    """
    pts = sorted(set(map(tuple, xy.tolist())))
    if len(pts) <= 2:
        return np.array(pts, dtype=np.float64).reshape(-1, 2)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1], dtype=np.float64)


def check_buffer_m(buffer_m: float) -> None:
    """Refuse a degenerate-cluster buffer that is not positive and finite."""
    if not 0 < buffer_m < math.inf:
        raise InputError(f"buffer_m must be positive and finite, got {buffer_m}")


def polygonize(members, buffer_m: float = DEFAULT_BUFFER_M) -> ClusterPolygon:
    """Convex hull of the member points, closed and counter-clockwise.

    Clusters too small or too flat to enclose area (one or two points, or
    collinear members) are inflated first: each point becomes a square of
    half-width buffer_m and the hull is taken over the corners, so every
    cluster yields a measurable polygon.
    """
    check_buffer_m(buffer_m)
    xy = planar_to_array(members)
    if xy.ndim != 2 or xy.shape[0] == 0:
        raise InputError("polygonize requires at least one member point")
    hull = _convex_hull(xy)
    if hull.shape[0] < 3 or _ring_signed_area_m2(hull) <= 0.0:
        b = float(buffer_m)
        offsets = np.array([[-b, -b], [b, -b], [b, b], [-b, b]])
        corners = (xy[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
        hull = _convex_hull(corners)
    return ClusterPolygon(ring=np.vstack([hull, hull[:1]]))


def contains(p: ClusterPolygon, pt) -> bool:
    """Ray-casting point-in-polygon test on an (x, y) pair; boundary points count as inside.

    On the boundary means within _BOUNDARY_EPS_M (1e-9 m) of an edge, up to
    the rounding of the coordinates: under 1 m out to about 1e15 m, but past
    about 1e16 m a point over 1 m off an edge can count as on it.
    """
    x, y = pt
    inside = False
    for (x1, y1), (x2, y2) in itertools.pairwise(p.ring.tolist()):
        if _on_segment(x, y, x1, y1, x2, y2):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def _on_segment(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """Whether (x, y) lies within _BOUNDARY_EPS_M of the segment (x1,y1)-(x2,y2)."""
    dx = x2 - x1
    dy = y2 - y1
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        ddx = x - x1
        ddy = y - y1
        return ddx * ddx + ddy * ddy <= _BOUNDARY_EPS_M * _BOUNDARY_EPS_M
    t = ((x - x1) * dx + (y - y1) * dy) / length_sq
    t = min(1.0, max(0.0, t))
    px = x1 + t * dx
    py = y1 + t * dy
    ddx = x - px
    ddy = y - py
    return ddx * ddx + ddy * ddy <= _BOUNDARY_EPS_M * _BOUNDARY_EPS_M
