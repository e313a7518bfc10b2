"""Geodesy and polygon geometry: WGS84 to local planar meters, cluster hulls, areas, containment.

The projection is a local equirectangular mapping around an origin (usually
the dataset centroid): adequate at city scale (< 50 km extent, error below
0.1%) and exactly invertible. All polygon operations work on the planar
frame; areas are reported in km².
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise InputError(f"non-finite coordinate ({self.lon}, {self.lat})")
        if not -180.0 <= self.lon <= 180.0:
            raise InputError(f"longitude {self.lon} out of [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise InputError(f"latitude {self.lat} out of [-90, 90]")


@dataclass(frozen=True)
class PlanarPoint:
    """Meters east (x) and north (y) of the projection origin."""

    x: float
    y: float


@dataclass
class ClusterPolygon:
    """A simple, closed, counter-clockwise ring around one cluster."""

    ring: list[PlanarPoint]
    area_km2: float
    member_count: int


def _check_lat(lat: float) -> None:
    if abs(lat) > MAX_SUPPORTED_LAT_DEG:
        raise InputError(f"latitude {lat} beyond supported range (|lat| <= {MAX_SUPPORTED_LAT_DEG})")


def centroid(points: list[GeoPoint]) -> GeoPoint:
    """Arithmetic mean of lon/lat; the conventional projection origin."""
    if not points:
        raise InputError("cannot take the centroid of no points")
    lon = sum(p.lon for p in points) / len(points)
    lat = sum(p.lat for p in points) / len(points)
    return GeoPoint(lon=lon, lat=lat)


def project(points: list[GeoPoint], origin: GeoPoint) -> list[PlanarPoint]:
    """Project WGS84 points to local planar meters around origin.

    x = R * dlon_rad * cos(lat_origin), y = R * dlat_rad.
    """
    _check_lat(origin.lat)
    cos0 = math.cos(math.radians(origin.lat))
    out = []
    for i, p in enumerate(points):
        if abs(p.lat) > MAX_SUPPORTED_LAT_DEG:
            raise InputError(f"point {i}: latitude {p.lat} beyond supported range")
        x = EARTH_RADIUS_M * math.radians(p.lon - origin.lon) * cos0
        y = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
        out.append(PlanarPoint(x=x, y=y))
    return out


def unproject(points, origin: GeoPoint) -> list[GeoPoint]:
    """Inverse of project; round-trips within 1e-9 degrees near the origin."""
    _check_lat(origin.lat)
    cos0 = math.cos(math.radians(origin.lat))
    out = []
    for p in points:
        x, y = (p.x, p.y) if isinstance(p, PlanarPoint) else (float(p[0]), float(p[1]))
        lon = origin.lon + math.degrees(x / (EARTH_RADIUS_M * cos0))
        lat = origin.lat + math.degrees(y / EARTH_RADIUS_M)
        out.append(GeoPoint(lon=lon, lat=lat))
    return out


def planar_to_array(points) -> np.ndarray:
    """(n, 2) float array from PlanarPoints, tuples, or an existing array."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=np.float64)
    seq = list(points)
    if seq and isinstance(seq[0], PlanarPoint):
        return np.array([[p.x, p.y] for p in seq], dtype=np.float64)
    return np.asarray(seq, dtype=np.float64)


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
    pts = sorted({(float(p[0]), float(p[1])) for p in xy})
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
    area_m2 = _ring_signed_area_m2(hull)
    ring = [PlanarPoint(x=float(p[0]), y=float(p[1])) for p in hull]
    ring.append(ring[0])
    return ClusterPolygon(ring=ring, area_km2=area_m2 / 1e6, member_count=int(xy.shape[0]))


def polygon_area_km2(p: ClusterPolygon) -> float:
    """Shoelace area of the ring in km², non-negative regardless of orientation."""
    xy = planar_to_array(p.ring[:-1])
    return abs(_ring_signed_area_m2(xy)) / 1e6


def contains(p: ClusterPolygon, pt: PlanarPoint) -> bool:
    """Ray-casting point-in-polygon test; boundary points count as inside."""
    x, y = pt.x, pt.y
    ring = p.ring
    inside = False
    for i in range(len(ring) - 1):
        x1, y1 = ring[i].x, ring[i].y
        x2, y2 = ring[i + 1].x, ring[i + 1].y
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
