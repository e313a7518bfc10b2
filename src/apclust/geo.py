"""Geodesy and polygon geometry: WGS84 to local planar meters, cluster hulls, areas, containment.

The projection is a local equirectangular mapping around an origin (usually
the dataset centroid): adequate at city scale (< 50 km extent, error below
0.1%) and exactly invertible. All polygon operations work on the planar
frame; areas are reported in km². A PlanarPoint is an (x, y) pair, so
point lists and (n, 2) arrays convert into each other directly.
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
    """A WGS84 coordinate in decimal degrees (EPSG:4326), longitude first."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not valid_lonlat(self.lon, self.lat):
            raise InputError(f"coordinate ({self.lon}, {self.lat}) outside lon [-180, 180], lat [-90, 90]")


class PlanarPoint(NamedTuple):
    """Meters east (x) and north (y) of the projection origin."""

    x: float
    y: float


@dataclass
class ClusterPolygon:
    """A simple, closed, counter-clockwise ring around one cluster, as an (m + 1, 2) planar array."""

    ring: np.ndarray

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


def _lonlat(points: list[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([p.lon for p in points], dtype=np.float64), np.array([p.lat for p in points], dtype=np.float64)


def lonlat_centroid(lon: np.ndarray, lat: np.ndarray) -> GeoPoint:
    """Arithmetic mean of lon/lat arrays; the conventional projection origin.

    Sums left to right from 0, as Python 3.11's sum() does, so the origin's
    bits do not depend on the Python version: np.sum adds pairwise and
    3.12's sum() compensates, and either changes every output downstream.
    """
    if lon.size == 0:
        raise InputError("cannot take the centroid of no points")
    # Starting from 0.0, as sum() does, makes an all -0.0 sum +0.0.
    mean_lon, mean_lat = ((0.0 + float(np.add.accumulate(v)[-1])) / v.size for v in (lon, lat))
    return GeoPoint(lon=mean_lon, lat=mean_lat)


def centroid(points: list[GeoPoint]) -> GeoPoint:
    """Arithmetic mean of lon/lat; the conventional projection origin (see lonlat_centroid)."""
    return lonlat_centroid(*_lonlat(points))


def project_lonlat(lon: np.ndarray, lat: np.ndarray, origin: GeoPoint) -> np.ndarray:
    """Project WGS84 lon/lat arrays to an (n, 2) array of local planar meters around origin.

    x = R * dlon_rad * cos(lat_origin), y = R * dlat_rad.
    """
    _check_lat(origin.lat)
    polar = np.flatnonzero(np.abs(lat) > MAX_SUPPORTED_LAT_DEG)
    if polar.size:
        i = int(polar[0])
        raise InputError(f"point {i}: latitude {float(lat[i])} beyond supported range")
    cos0 = math.cos(math.radians(origin.lat))
    xy = np.empty((lon.size, 2), dtype=np.float64)
    xy[:, 0] = EARTH_RADIUS_M * np.radians(lon - origin.lon) * cos0
    xy[:, 1] = EARTH_RADIUS_M * np.radians(lat - origin.lat)
    return xy


def project(points: list[GeoPoint], origin: GeoPoint) -> list[PlanarPoint]:
    """Project WGS84 points to local planar meters around origin (see project_lonlat)."""
    return [PlanarPoint(x=x, y=y) for x, y in project_lonlat(*_lonlat(points), origin).tolist()]


def unproject(points, origin: GeoPoint) -> list[GeoPoint]:
    """Inverse of project; round-trips within 1e-9 degrees near the origin."""
    _check_lat(origin.lat)
    cos0 = math.cos(math.radians(origin.lat))
    xy = planar_to_array(points).reshape(-1, 2)
    lon = origin.lon + np.degrees(xy[:, 0] / (EARTH_RADIUS_M * cos0))
    lat = origin.lat + np.degrees(xy[:, 1] / EARTH_RADIUS_M)
    return [GeoPoint(lon=x, lat=y) for x, y in zip(lon.tolist(), lat.tolist())]


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


def polygonize(members, buffer_m: float = DEFAULT_BUFFER_M) -> ClusterPolygon:
    """Convex hull of the member points, closed and counter-clockwise.

    Clusters too small or too flat to enclose area (one or two points, or
    collinear members) are inflated first: each point becomes a square of
    half-width buffer_m and the hull is taken over the corners, so every
    cluster yields a measurable polygon.
    """
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


def polygon_area_km2(p: ClusterPolygon) -> float:
    """The polygon's area in km² (see ClusterPolygon.area_km2)."""
    return p.area_km2


def contains(p: ClusterPolygon, pt) -> bool:
    """Ray-casting point-in-polygon test on an (x, y) pair; boundary points count as inside."""
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
