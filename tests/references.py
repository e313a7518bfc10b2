"""Plain reference implementations the tests compare the package against.

Each is the straightforward form of something the package does faster:
the full-matrix, per-equation message updates of the blocked kernel in
core; one GeoPoint per CSV row for ingest; a per-point loop for the
centroid and the projection; and cluster polygons kept as a list of
PlanarPoints with a stored area, counted one PlanarPoint at a time. The
package must match them bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from apclust.errors import FormatError, InputError
from apclust.geo import (
    DEFAULT_BUFFER_M,
    EARTH_RADIUS_M,
    MAX_SUPPORTED_LAT_DEG,
    GeoPoint,
    PlanarPoint,
)

# The boundary tolerance geo.contains documents: a point within 1e-9 m of an edge is on it.
BOUNDARY_EPS_M = 1e-9


def reference_jittered(s: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """s plus one n x n draw of seeded normal noise, zero on the diagonal."""
    noise = np.random.default_rng(seed).normal(0.0, scale, size=s.shape)
    np.fill_diagonal(noise, 0.0)
    return s + noise


def reference_responsibilities(s: np.ndarray, r: np.ndarray, a: np.ndarray, damping: float) -> None:
    """Full-matrix responsibility sweep: r(i, k) = s(i, k) - max_{k' != k} {a(i, k') + s(i, k')}, damped, in place."""
    n = s.shape[0]
    if n == 1:
        raw = s.copy()
    else:
        cand = a + s
        rows = np.arange(n)
        top = cand.argmax(axis=1)
        first = cand[rows, top].copy()
        cand[rows, top] = -np.inf
        second = cand.max(axis=1)
        raw = s - first[:, None]
        raw[rows, top] = s[rows, top] - second
    r *= damping
    raw *= 1.0 - damping
    r += raw


def reference_availabilities(r: np.ndarray, a: np.ndarray, damping: float) -> None:
    """Full-matrix availability sweep from the column sums of max{0, r}, damped, in place."""
    raw = np.maximum(r, 0.0)
    np.fill_diagonal(raw, r.diagonal())
    col_support = raw.sum(axis=0)
    # col_support - raw removes each recipient's own contribution from the column sum
    np.subtract(col_support[None, :], raw, out=raw)
    self_avail = raw.diagonal().copy()
    np.minimum(raw, 0.0, out=raw)
    np.fill_diagonal(raw, self_avail)
    a *= damping
    raw *= 1.0 - damping
    a += raw


def reference_ingest(path) -> tuple[list[GeoPoint], int, int, tuple[int, float] | None]:
    """Kept points, rows read, rows dropped, and the (line, lat) of the first kept point beyond the band.

    Read with csv.DictReader, one GeoPoint per row.
    """
    path = Path(path)
    points: list[GeoPoint] = []
    n_rows = 0
    n_dropped = 0
    polar_row = None
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise FormatError(f"{path}: empty file")
        fields = {name.strip().lower(): name for name in reader.fieldnames}
        if "lat" not in fields or "lon" not in fields:
            raise FormatError(f"{path}: header must contain lat and lon columns")
        lat_col = fields["lat"]
        lon_col = fields["lon"]
        for row in reader:
            n_rows += 1
            try:
                points.append(GeoPoint(lon=float(row[lon_col]), lat=float(row[lat_col])))
            except (TypeError, ValueError, InputError):
                n_dropped += 1
                continue
            if polar_row is None and abs(points[-1].lat) > MAX_SUPPORTED_LAT_DEG:
                polar_row = (reader.line_num, points[-1].lat)
    if not points:
        raise InputError(f"{path}: no valid coordinate rows")
    return points, n_rows, n_dropped, polar_row


def reference_mean(values) -> float:
    """Mean of floats added one at a time from 0, left to right."""
    total = 0
    for v in values:
        total += v
    return total / len(values)


def reference_project(points: list[GeoPoint], origin: GeoPoint) -> list[PlanarPoint]:
    """Per-point equirectangular projection around origin, with the package's polar refusals."""
    if abs(origin.lat) > MAX_SUPPORTED_LAT_DEG:
        raise InputError(f"latitude {origin.lat} beyond supported range (|lat| <= {MAX_SUPPORTED_LAT_DEG})")
    cos0 = math.cos(math.radians(origin.lat))
    out = []
    for i, p in enumerate(points):
        if abs(p.lat) > MAX_SUPPORTED_LAT_DEG:
            raise InputError(f"point {i}: latitude {p.lat} beyond supported range")
        x = EARTH_RADIUS_M * math.radians(p.lon - origin.lon) * cos0
        y = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
        out.append(PlanarPoint(x=x, y=y))
    return out


@dataclass
class ReferencePolygon:
    """A closed counter-clockwise ring of PlanarPoints and the area stored beside it."""

    ring: list[PlanarPoint]
    area_km2: float


def reference_convex_hull(xy: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull over numpy rows, counter-clockwise, collinear points dropped."""
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


def reference_signed_area_m2(xy: np.ndarray) -> float:
    """Shoelace signed area of an open vertex list (no repeated endpoint)."""
    x = xy[:, 0]
    y = xy[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def reference_on_segment(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """Whether (x, y) lies within BOUNDARY_EPS_M of the segment (x1,y1)-(x2,y2)."""
    dx = x2 - x1
    dy = y2 - y1
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        ddx = x - x1
        ddy = y - y1
        return ddx * ddx + ddy * ddy <= BOUNDARY_EPS_M * BOUNDARY_EPS_M
    t = ((x - x1) * dx + (y - y1) * dy) / length_sq
    t = min(1.0, max(0.0, t))
    px = x1 + t * dx
    py = y1 + t * dy
    ddx = x - px
    ddy = y - py
    return ddx * ddx + ddy * ddy <= BOUNDARY_EPS_M * BOUNDARY_EPS_M


def reference_polygonize(xy: np.ndarray, buffer_m: float = DEFAULT_BUFFER_M) -> ReferencePolygon:
    """Hull of the members, buffered into squares when it encloses no area, as a PlanarPoint ring."""
    hull = reference_convex_hull(xy)
    if hull.shape[0] < 3 or reference_signed_area_m2(hull) <= 0.0:
        b = float(buffer_m)
        offsets = np.array([[-b, -b], [b, -b], [b, b], [-b, b]])
        corners = (xy[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
        hull = reference_convex_hull(corners)
    area_m2 = reference_signed_area_m2(hull)
    ring = [PlanarPoint(x=float(p[0]), y=float(p[1])) for p in hull]
    ring.append(ring[0])
    return ReferencePolygon(ring=ring, area_km2=area_m2 / 1e6)


def reference_contains(p: ReferencePolygon, pt: PlanarPoint) -> bool:
    """Ray casting over the PlanarPoint ring, boundary-inclusive."""
    x, y = pt.x, pt.y
    ring = p.ring
    inside = False
    for i in range(len(ring) - 1):
        x1, y1 = ring[i].x, ring[i].y
        x2, y2 = ring[i + 1].x, ring[i + 1].y
        if reference_on_segment(x, y, x1, y1, x2, y2):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def reference_count_intersections(polygons: list[ReferencePolygon], xy: np.ndarray) -> list[int]:
    """Points inside each polygon: a bounding-box filter, then one PlanarPoint per candidate."""
    counts = []
    for poly in polygons:
        ring = np.array([[p.x, p.y] for p in poly.ring], dtype=np.float64)
        xmin, ymin = ring.min(axis=0)
        xmax, ymax = ring.max(axis=0)
        near = (
            (xy[:, 0] >= xmin - 1.0)
            & (xy[:, 0] <= xmax + 1.0)
            & (xy[:, 1] >= ymin - 1.0)
            & (xy[:, 1] <= ymax + 1.0)
        )
        c = 0
        for x, y in xy[near]:
            if reference_contains(poly, PlanarPoint(x=float(x), y=float(y))):
                c += 1
        counts.append(c)
    return counts
