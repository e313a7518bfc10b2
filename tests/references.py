"""Plain reference implementations the tests compare the package against.

Each is the straightforward form of something the package does faster:
the full-matrix, per-equation message updates of the blocked kernel in
core; one GeoPoint per CSV row for ingest; and a per-point loop for the
centroid and the projection. The package must match them bit for bit.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from apclust.errors import FormatError, InputError
from apclust.geo import EARTH_RADIUS_M, MAX_SUPPORTED_LAT_DEG, GeoPoint, PlanarPoint


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


def reference_ingest(path) -> tuple[list[GeoPoint], int, int]:
    """Kept points, rows read and rows dropped, from csv.DictReader and one GeoPoint per row."""
    path = Path(path)
    points: list[GeoPoint] = []
    n_rows = 0
    n_dropped = 0
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
    if not points:
        raise InputError(f"{path}: no valid coordinate rows")
    return points, n_rows, n_dropped


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
