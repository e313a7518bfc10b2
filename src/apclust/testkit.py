"""Independent verification machinery: exhaustive exemplar search and synthetic corpora.

The brute-force optimizer enumerates every non-empty exemplar subset, so it
is exact and completely independent of the message-passing path; it backs
the property and acceptance tests. The blob generator produces seeded
geographic fixtures as (n, 2) (lon, lat) arrays, which write_points_csv
writes in the lat/lon schema the pipeline ingests.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import preferences
from .errors import InputError
from .geo import GeoPoint, unproject

# Enumeration is 2^n; past this the oracle refuses rather than grind.
MAX_ORACLE_N = 15

# Frame for synthetic corpora: a 20 km square near Porto-Alegre-like latitude.
BLOB_FRAME_ORIGIN = GeoPoint(lon=-51.2, lat=-30.0)
_FRAME_HALF_WIDTH_M = 10_000.0
_CENTER_PLACEMENT_TRIES = 1000


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a seeded multi-blob point corpus."""

    n_blobs: int
    points_per_blob: int
    blob_sigma_m: float
    min_separation_m: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_blobs < 1 or self.points_per_blob < 1:
            raise InputError("need at least one blob and one point per blob")
        if self.min_separation_m <= 0:
            raise InputError("min_separation_m must be positive")
        if self.blob_sigma_m < 0:
            raise InputError("blob_sigma_m must be non-negative")


def brute_force_exemplars(s: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Globally optimal exemplar set by exhaustive subset enumeration, for n <= MAX_ORACLE_N.

    The objective is the net similarity: each non-exemplar contributes its
    similarity to the nearest exemplar (the optimal assignment for a fixed
    set, which makes the enumeration exact), and each exemplar contributes
    its preference. Sets within a relative rounding tolerance of the best
    score are treated as tied; ties break toward the lexicographically
    smallest set. Exact ties do occur: a quantile preference can equal the
    largest off-diagonal similarity, making a point's self-election and its
    reassignment score identical.

    Column maxima are shared between subsets through a lowest-bit recurrence,
    so all 2^n - 1 candidate sets are scored in O(2^n * n) time and memory.
    """
    diagonal = preferences(s)
    n = s.shape[0]
    if n > MAX_ORACLE_N:
        raise InputError(f"brute force refused for n={n} (cap {MAX_ORACLE_N}: 2^n subsets)")
    n_masks = 1 << n

    # colmax[mask, i] = max over k in mask of s[i, k]
    colmax = np.empty((n_masks, n), dtype=np.float64)
    colmax[0] = -np.inf
    for mask in range(1, n_masks):
        low = (mask & -mask).bit_length() - 1
        np.maximum(colmax[mask ^ (1 << low)], s[:, low], out=colmax[mask])

    masks = np.arange(1, n_masks)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    values = member @ diagonal + np.where(member, 0.0, colmax[1:]).sum(axis=1)

    best_value = float(values.max())
    tol = 1e-12 * max(1.0, abs(best_value))
    tied = masks[values >= best_value - tol]
    best_set = min(tuple(int(i) for i in np.flatnonzero(member[t - 1])) for t in tied)
    return best_set, _subset_value(s, best_set)


def _subset_value(s: np.ndarray, subset: tuple[int, ...]) -> float:
    """Net similarity of one exemplar set in a fixed summation order."""
    n = s.shape[0]
    cols = np.asarray(subset)
    value = float(s.diagonal()[cols].sum())
    rest = np.array([i for i in range(n) if i not in subset], dtype=np.intp)
    if rest.size:
        value += float(s[rest][:, cols].max(axis=1).sum())
    return value


def generate_blobs(spec: SyntheticSpec) -> np.ndarray:
    """Seeded isotropic-normal blobs inside a 20 km square near lat -30, as (n, 2) (lon, lat) rows.

    Blob centers are rejection-sampled until all pairwise separations meet
    min_separation_m; generation fails rather than silently relaxing the
    constraint.
    """
    rng = np.random.default_rng(spec.seed)
    centers: list[np.ndarray] = []
    for _ in range(spec.n_blobs):
        for _attempt in range(_CENTER_PLACEMENT_TRIES):
            cand = rng.uniform(-_FRAME_HALF_WIDTH_M, _FRAME_HALF_WIDTH_M, size=2)
            if all(np.linalg.norm(cand - c) >= spec.min_separation_m for c in centers):
                centers.append(cand)
                break
        else:
            raise InputError(
                f"could not place {spec.n_blobs} centers {spec.min_separation_m} m apart "
                f"in a {2 * _FRAME_HALF_WIDTH_M / 1000:.0f} km square"
            )
    xy = np.concatenate(
        [rng.normal(c, spec.blob_sigma_m, size=(spec.points_per_blob, 2)) for c in centers]
    )
    return unproject(xy, BLOB_FRAME_ORIGIN)


def write_points_csv(lonlat: np.ndarray, path) -> None:
    """Emit (n, 2) (lon, lat) rows in the lat/lon delimited schema the pipeline ingests, repr per float."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["lat", "lon"])
        writer.writerows([repr(lat), repr(lon)] for lon, lat in lonlat.tolist())
