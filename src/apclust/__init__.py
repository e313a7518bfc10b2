"""Exemplar-based clustering of geolocated crash points into graded units of analysis.

The package clusters point sets with affinity propagation over negative
squared planar distances, wraps each cluster in a convex polygon, counts
road intersections inside it, and grades each run micro, meso, or macro
from the median count. A sweep driver repeats this over a grid of
preference quantiles and sample sizes and exports GeoJSON plus a summary
table.
"""

from .core import ApcConfig, run_apc
from .geo import centroid, planar_to_array, project
from .units import build_units

__version__ = "0.1.0"

__all__ = [
    "ApcConfig",
    "build_units",
    "centroid",
    "planar_to_array",
    "project",
    "run_apc",
]
