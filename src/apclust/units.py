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
from .errors import InputError
from .geo import (
    DEFAULT_BUFFER_M,
    ClusterPolygon,
    _convex_hull,
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


def classify_level(median_intersections: float, t: ScaleThresholds = ScaleThresholds()) -> str:
    """Map a median intersection count to micro, meso, or macro."""
    if median_intersections < 0:
        raise InputError("median intersection count cannot be negative")
    if median_intersections <= t.micro_max:
        return "micro"
    if median_intersections <= t.meso_max:
        return "meso"
    return "macro"


def count_intersections(ua_polygons: list[ClusterPolygon], intersections) -> list[int]:
    """Intersection points contained in each polygon (boundary-inclusive).

    intersections is (m, 2) planar rows; an empty array or list counts none.
    A point inside two overlapping polygons counts in both. Linear scan:
    the polygon's bounding box picks the candidates and the edge lines of
    the ring's convex hull sort them, each with a 1 m margin. A candidate
    more than 1 m outside some line is out; one more than 1 m inside every
    line is in where the ring is its own hull; contains tests the rest.

    A ring lies inside the hull of its vertices (a flat one's is a
    segment), so a point more than 1 m outside a hull edge line is farther
    than _BOUNDARY_EPS_M from the ring, and contains would refuse it. The
    hull, not the ring, draws the lines, because a ring may be non-convex.
    Where the closed ring is its hull vertex for vertex, as every polygonize
    ring is, it is convex and counter-clockwise, and a point more than 1 m
    inside each edge line is farther than _BOUNDARY_EPS_M from each edge and
    at least as far from each crossing of its rightward ray, so contains
    would take it. A notched, clockwise, repeated-vertex or self-crossing
    ring is not its hull, and contains decides every candidate the outer
    cut keeps.

    The cross product rounds by about 1e-16 times the coordinates, far
    below 1 m in a projected frame (|x|, |y| up to about 2e7 m); past
    1e15 m contains' own rounding nears 1 m. The box drops NaN and +-inf
    points.
    """
    # Strided views: contiguous copies would compare faster but add 16 bytes
    # per inventory point to the peak resident set.
    x, y = planar_to_array(intersections).reshape(-1, 2).T
    counts = []
    for poly in ua_polygons:
        xmin, ymin = poly.ring.min(axis=0)
        xmax, ymax = poly.ring.max(axis=0)
        near = (x >= xmin - 1.0) & (x <= xmax + 1.0) & (y >= ymin - 1.0) & (y <= ymax + 1.0)
        cx, cy = x[near], y[near]
        hull = _convex_hull(poly.ring[:-1]).tolist()
        far = np.zeros(cx.size, dtype=bool)
        deep = np.full(cx.size, poly.ring.tolist() == hull + hull[:1])
        for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
            dx, dy = x2 - x1, y2 - y1
            # side / length is the distance from the edge line, positive inside.
            length = math.hypot(dx, dy)
            side = dx * (cy - y1) - dy * (cx - x1)
            far |= side < -length
            deep &= side > length
        shell = ~(far | deep)
        # Pairs read lazily: a list of all candidates would cost about 120 bytes each.
        pairs = zip(memoryview(cx[shell]), memoryview(cy[shell]))
        counts.append(int(np.count_nonzero(deep)) + sum(contains(poly, pt) for pt in pairs))
    return counts


def derive_meso_threshold(intersections, cell_km: float = 1.0) -> int:
    """Median intersections per occupied grid cell, rounded half-up.

    The inventory's bounding box (planar meters) is tiled into cell_km x
    cell_km cells from its lower-left corner and intersection points are
    counted per cell. Cells containing no intersection are excluded from the
    median; a city bounding box includes water and rural cells that would
    otherwise drag the value toward zero. A grid of 2**31 or more cells
    along either axis is refused: its cell keys would overflow int64.
    """
    if not 0 < cell_km < math.inf:
        raise InputError(f"cell_km must be positive and finite, got {cell_km}")
    xy = planar_to_array(intersections)
    if xy.size == 0:
        raise InputError(
            "no intersections supplied; set the meso threshold manually"
        )
    xmin, ymin = xy.min(axis=0)
    cell_m = cell_km * 1000.0
    # A product, not a quotient that could overflow; a NaN span fails too.
    if not np.all(np.ptp(xy, axis=0) < 2**31 * cell_m):
        raise InputError(f"cell_km {cell_km} tiles the inventory into 2**31 or more cells along an axis")
    ix = np.floor((xy[:, 0] - xmin) / cell_m).astype(np.int64)
    iy = np.floor((xy[:, 1] - ymin) / cell_m).astype(np.int64)
    _, counts = np.unique(ix * (iy.max() + 2) + iy, return_counts=True)
    return int(math.floor(_median(counts.tolist()) + 0.5))


def _median(values) -> float:
    """The middle value, or the mean of the two middle values: np.median's bits, without its numpy.ma import.

    The sum starts from 0.0, as np.median's mean does, so a middle -0.0 gives 0.0.
    """
    v = sorted(values)
    half = len(v) // 2
    return 0.0 + v[half] if len(v) % 2 else (0.0 + v[half - 1] + v[half]) / 2


def build_units(
    result: ClusterResult,
    planar_points,
    intersections,
    t: ScaleThresholds = ScaleThresholds(),
    *,
    q: float = float("nan"),
    buffer_m: float = DEFAULT_BUFFER_M,
) -> tuple[list[UnitOfAnalysis], SweepCell]:
    """One UnitOfAnalysis per exemplar plus the run-level summary cell.

    A median over an even number of clusters is the mean of the two middle
    values. The run-level scale applies classify_level to the median
    intersection count over clusters. q and the point count are carried
    into the SweepCell for reporting, with the run's convergence flag and
    iteration count.
    """
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
    median_area = _median([u.polygon.area_km2 for u in units])
    median_inter = _median([u.n_intersections for u in units])
    cell = SweepCell(
        q=q,
        sample_size=int(xy.shape[0]),
        n_clusters=len(units),
        median_area_km2=median_area,
        median_intersections=median_inter,
        level=classify_level(median_inter, t),
        converged=result.converged,
        iterations=result.iterations_run,
    )
    return units, cell
