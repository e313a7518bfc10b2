"""Units of analysis: cluster polygons, intersection counts, and micro/meso/macro scale.

A unit of analysis (UA) is the polygon around one cluster of accident
points. Its scale class comes from how many road intersections the polygon
contains: at most micro_max intersections is micro, up to meso_max is meso,
above that macro (both bounds inclusive). The meso bound can be derived
from the data by tiling the study area into square cells and taking the
median intersection count over the occupied cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClusterResult
from .errors import DerivationError, InputError
from .geo import (
    DEFAULT_BUFFER_M,
    ClusterPolygon,
    contains,
    planar_to_array,
    polygonize,
)


@dataclass(frozen=True)
class ScaleThresholds:
    """Inclusive upper bounds on median intersections for micro and meso UAs."""

    micro_max: float = 1
    meso_max: float = 30

    def __post_init__(self) -> None:
        if not 0 <= self.micro_max < self.meso_max:
            raise InputError(
                f"thresholds must satisfy 0 <= micro_max < meso_max, got {self.micro_max}, {self.meso_max}"
            )


@dataclass
class UnitOfAnalysis:
    """One cluster polygon with its member and intersection counts."""

    cluster_id: int
    polygon: ClusterPolygon
    n_points: int
    n_intersections: int
    level: str


@dataclass(frozen=True)
class SweepCell:
    """Summary of one clustering run: counts and medians at a (q, sample size) setting."""

    q: float
    sample_size: int
    n_clusters: int
    median_area_km2: float
    median_intersections: float
    level: str
    converged: bool
    iterations: int


def classify_level(median_intersections: float, t: ScaleThresholds | None = None) -> str:
    """Map a median intersection count to micro, meso, or macro."""
    if median_intersections < 0:
        raise InputError("median intersection count cannot be negative")
    t = t or ScaleThresholds()
    if median_intersections <= t.micro_max:
        return "micro"
    if median_intersections <= t.meso_max:
        return "meso"
    return "macro"


def count_intersections(ua_polygons: list[ClusterPolygon], intersections) -> list[int]:
    """Intersection points contained in each polygon (boundary-inclusive).

    A point inside two overlapping polygons counts in both. Linear scan
    with a bounding-box pre-filter per polygon.
    """
    xy = planar_to_array(intersections) if intersections is not None else np.empty((0, 2))
    if xy.size == 0:
        return [0] * len(ua_polygons)
    counts = []
    for poly in ua_polygons:
        xmin, ymin = poly.ring.min(axis=0)
        xmax, ymax = poly.ring.max(axis=0)
        near = (
            (xy[:, 0] >= xmin - 1.0)
            & (xy[:, 0] <= xmax + 1.0)
            & (xy[:, 1] >= ymin - 1.0)
            & (xy[:, 1] <= ymax + 1.0)
        )
        # Pairs read lazily: a list of all candidates would cost about 120 bytes each.
        flat = iter(memoryview(xy[near].reshape(-1)))
        counts.append(sum(contains(poly, pt) for pt in zip(flat, flat)))
    return counts


def derive_meso_threshold(intersections, cell_km: float = 1.0) -> int:
    """Median intersections per occupied grid cell, rounded half-up.

    The inventory's bounding box (planar meters) is tiled into cell_km x
    cell_km cells from its lower-left corner and intersection points are
    counted per cell. Cells containing no intersection are excluded from the
    median; a city bounding box includes water and rural cells that would
    otherwise drag the value toward zero.
    """
    if not 0 < cell_km < math.inf:
        raise InputError(f"cell_km must be positive and finite, got {cell_km}")
    xy = planar_to_array(intersections)
    if xy.size == 0:
        raise DerivationError(
            "no intersections supplied; set the meso threshold manually"
        )
    xmin, ymin = xy.min(axis=0)
    cell_m = cell_km * 1000.0
    ix = np.floor((xy[:, 0] - xmin) / cell_m).astype(np.int64)
    iy = np.floor((xy[:, 1] - ymin) / cell_m).astype(np.int64)
    _, counts = np.unique(ix * (iy.max() + 2) + iy, return_counts=True)
    if counts.size == 0:
        raise DerivationError("no occupied grid cells; set the meso threshold manually")
    median = float(np.median(counts))
    return int(math.floor(median + 0.5))


def build_units(
    result: ClusterResult,
    planar_points,
    intersections,
    t: ScaleThresholds | None = None,
    *,
    q: float = float("nan"),
    sample_size: int | None = None,
    buffer_m: float = DEFAULT_BUFFER_M,
) -> tuple[list[UnitOfAnalysis], SweepCell]:
    """One UnitOfAnalysis per exemplar plus the run-level summary cell.

    Medians use linear interpolation; the run-level scale applies
    classify_level to the median intersection count over clusters. q and
    sample_size are carried into the SweepCell for reporting, with the
    run's convergence flag and iteration count.
    """
    t = t or ScaleThresholds()
    xy = planar_to_array(planar_points)
    if xy.shape[0] != result.assignment.shape[0]:
        raise InputError("point set does not match the clustering result")

    polygons = []
    member_counts = []
    for exemplar in result.exemplars:
        members = xy[result.assignment == exemplar]
        polygons.append(polygonize(members, buffer_m=buffer_m))
        member_counts.append(int(members.shape[0]))
    inter_counts = count_intersections(polygons, intersections)

    units = [
        UnitOfAnalysis(
            cluster_id=cid,
            polygon=poly,
            n_points=n_pts,
            n_intersections=n_int,
            level=classify_level(n_int, t),
        )
        for cid, (poly, n_pts, n_int) in enumerate(zip(polygons, member_counts, inter_counts))
    ]
    median_area = float(np.median([u.polygon.area_km2 for u in units]))
    median_inter = float(np.median([u.n_intersections for u in units]))
    cell = SweepCell(
        q=q,
        sample_size=int(xy.shape[0]) if sample_size is None else int(sample_size),
        n_clusters=len(units),
        median_area_km2=median_area,
        median_intersections=median_inter,
        level=classify_level(median_inter, t),
        converged=result.converged,
        iterations=result.iterations_run,
    )
    return units, cell
