"""End-to-end pipeline: ingest crash points, sweep (q x sample size), classify, export.

One sweep runs the full chain per cell: sample, project, similarity,
preference, message passing, unit construction. Each sample size draws one
fixed sample that is reused across every q level, so the preference
parameter is the only thing varying along a row of the report. Outputs are
deterministic byte-for-byte given the same manifest and inputs.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import uuid
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import ApcConfig, _block_rows, run_apc
from .errors import ApclustError, ConvergenceError, FormatError, InputError, ResourceLimitError
from .geo import DEFAULT_BUFFER_M, GeoPoint, lonlat_centroid, project_lonlat, unproject, valid_lonlat
from .units import ScaleThresholds, SweepCell, UnitOfAnalysis, build_units, derive_meso_threshold

log = logging.getLogger("apclust")

THREADS_ENV_VAR = "APCLUST_THREADS"
# Length-n float vectors a run holds next to its matrices (column support,
# decision criterion, decision flags), with room to spare, and a fixed
# allowance for interpreter and allocator overhead. Measured on Linux with
# glibc: at most 200 KiB above the matrices and scratch for n up to 4000.
_RUN_VECTORS = 8
_RUN_OVERHEAD_BYTES = 2**19


@dataclass
class RunManifest:
    """Everything one sweep needs: inputs, parameter grid, thresholds, output location.

    A sample size of None means the full dataset. With no output_dir the
    sweep writes nothing and only returns its cells.
    """

    input_crashes: Path
    q_levels: list[float]
    sample_sizes: list[int | None]
    output_dir: Path | None
    input_intersections: Path | None = None
    rng_seed: int = 0
    thresholds: ScaleThresholds | str = field(default_factory=ScaleThresholds)
    damping: float = ApcConfig.damping
    max_iterations: int = ApcConfig.max_iterations
    convergence_window: int = ApcConfig.convergence_window
    jitter_scale: float = ApcConfig.jitter_scale
    buffer_m: float = DEFAULT_BUFFER_M
    mem_cap_gb: float = 8.0
    require_convergence: bool = False

    def validate(self) -> ApcConfig:
        """Check every setting that needs no input data; return the ApcConfig all cells share."""
        if not self.q_levels:
            raise InputError("q_levels must be non-empty")
        for q in self.q_levels:
            if not 0.0 <= q <= 1.0:
                raise InputError(f"q level {q} out of [0, 1]")
        # Output files are named by f"{q:g}", so two levels with one label
        # would overwrite each other's GeoJSON.
        labels = [f"{q:g}" for q in self.q_levels]
        for label in labels:
            if labels.count(label) > 1:
                raise InputError(f"q levels repeat the output label {label}")
        if not self.sample_sizes:
            raise InputError("sample_sizes must be non-empty")
        if isinstance(self.thresholds, str) and self.thresholds != "derive":
            raise InputError(f"thresholds must be explicit or 'derive', got {self.thresholds!r}")
        if self.thresholds == "derive" and self.input_intersections is None:
            raise InputError("thresholds='derive' requires an intersections input")
        for name, value in (("buffer_m", self.buffer_m), ("mem_cap_gb", self.mem_cap_gb)):
            if not 0 < value < math.inf:
                raise InputError(f"{name} must be positive and finite, got {value}")
        return ApcConfig(
            damping=self.damping,
            max_iterations=self.max_iterations,
            convergence_window=self.convergence_window,
            jitter_scale=self.jitter_scale,
        )


@dataclass
class IngestResult:
    """Parsed coordinates plus row accounting (valid + dropped = total)."""

    lon: np.ndarray
    lat: np.ndarray
    n_rows: int
    n_dropped: int

    @property
    def points(self) -> list[GeoPoint]:
        """The kept rows as GeoPoints, built on each access."""
        return [GeoPoint(lon=x, lat=y) for x, y in zip(self.lon.tolist(), self.lat.tolist())]


def ingest_crashes(path) -> IngestResult:
    """Read lat/lon decimal-degree points from header-keyed delimited text.

    Header names match stripped and case-insensitively, the last match
    winning. Other columns and blank lines are ignored. Rows too short, with
    a coordinate float() cannot parse, or outside geo.valid_lonlat are
    dropped and counted in a logged warning.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    # One float per coordinate, not one object per row.
    lon, lat = array("d"), array("d")
    n_rows = 0
    n_dropped = 0
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected a header with lat and lon")
        columns = {name.strip().lower(): i for i, name in enumerate(header)}
        if "lat" not in columns or "lon" not in columns:
            raise FormatError(f"{path}: header must contain lat and lon columns, got {header}")
        lat_i, lon_i = columns["lat"], columns["lon"]
        for row in reader:
            if not row:
                continue
            n_rows += 1
            try:
                x, y = float(row[lon_i]), float(row[lat_i])
            except (IndexError, ValueError):
                n_dropped += 1
                continue
            lon.append(x)
            lat.append(y)
    lon_all, lat_all = np.frombuffer(lon), np.frombuffer(lat)
    keep = valid_lonlat(lon_all, lat_all)
    n_dropped += int(keep.size - np.count_nonzero(keep))
    if n_dropped:
        log.warning("%s: dropped %d of %d rows with invalid coordinates", path, n_dropped, n_rows)
    if n_dropped == n_rows:
        raise InputError(f"{path}: no valid coordinate rows")
    return IngestResult(lon=lon_all[keep], lat=lat_all[keep], n_rows=n_rows, n_dropped=n_dropped)


def _ingest_xy(path, origin: GeoPoint | None = None) -> tuple[np.ndarray, GeoPoint]:
    """Ingest a points file and project it to planar meters around origin.

    The origin defaults to the file's own centroid. Only the (n, 2) array
    is kept: the coordinate arrays are freed on return rather than held
    through the clustering runs.
    """
    rows = ingest_crashes(path)
    if origin is None:
        origin = lonlat_centroid(rows.lon, rows.lat)
    return project_lonlat(rows.lon, rows.lat, origin), origin


def _sample_indices(n: int, k: int, seed) -> np.ndarray:
    """Sorted indices of a uniform k-of-n sample without replacement, deterministic per seed."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=k, replace=False)
    idx.sort()
    return idx


def estimate_apc_memory_gb(n: int, jitter: bool = False) -> float:
    """Peak resident estimate for one run, in GB: the message-passing kernel's buffers at 64-bit.

    Those are S, R and A, plus the noisy copy of S when jitter is on, the
    (block + 1) x n scratch and a few length-n vectors, plus a fixed
    allowance for interpreter and allocator overhead. Every other stage
    holds less: the preference quantile holds S and one copy of its
    off-diagonal.
    """
    matrices = 4 if jitter else 3
    floats = matrices * n * n + (_block_rows(n) + 1) * n + _RUN_VECTORS * n
    return (8.0 * floats + _RUN_OVERHEAD_BYTES) / 1e9


def _cell_seed(rng_seed: int, sample_size: int, q: float) -> int:
    seq = np.random.SeedSequence([rng_seed, sample_size, int(round(q * 1e9))])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _max_workers(n_cells: int) -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        limit = os.cpu_count() or 1
    else:
        try:
            limit = int(raw)
        except ValueError:
            raise InputError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
        if limit < 1:
            raise InputError(f"{THREADS_ENV_VAR} must be >= 1, got {limit}")
    return max(1, min(limit, n_cells))


def run_sweep(manifest: RunManifest) -> list[SweepCell]:
    """Run every (q, sample size) cell, write per-cell GeoJSON and the summary table.

    Cells are independent jobs sharing read-only inputs and disjoint output
    files; they run concurrently up to the APCLUST_THREADS cap, and no more
    at once than the memory cap holds at the largest run's estimate. A failed
    clustering run aborts the sweep naming the offending cell: a MemoryError
    becomes a ResourceLimitError, and an exception outside ApclustError is
    logged and re-raised unchanged. A failed GeoJSON export aborts the sweep
    before the summary is written. Each cell that did not converge is logged
    as a warning. Returns the cells in grid order, q-major.
    """
    base = manifest.validate()
    # One shared planar frame: origin is the centroid of the full dataset.
    xy_all, origin = _ingest_xy(manifest.input_crashes)
    n_total = xy_all.shape[0]
    # Output files are named by the resolved size, so a repeat is checked
    # only once None has become the dataset size.
    sizes = [n_total if k is None else k for k in manifest.sample_sizes]
    for k in sizes:
        if k < 2:
            raise InputError(f"sample size {k} below the minimum of 2")
        if k > n_total:
            raise InputError(f"sample size {k} exceeds the {n_total}-point dataset")
        if sizes.count(k) > 1:
            raise InputError(f"sample size {k} repeats")

    est_gb = estimate_apc_memory_gb(max(sizes), jitter=manifest.jitter_scale > 0)
    if est_gb > manifest.mem_cap_gb:
        raise ResourceLimitError(
            f"estimated {est_gb:.1f} GB for the largest run exceeds the {manifest.mem_cap_gb:.1f} GB cap"
        )
    if est_gb > manifest.mem_cap_gb / 4:
        log.warning("largest run estimated at %.1f GB resident", est_gb)

    inter_xy = np.empty((0, 2))
    if manifest.input_intersections is not None:
        inter_xy, _ = _ingest_xy(manifest.input_intersections, origin)

    thresholds = manifest.thresholds
    if thresholds == "derive":
        meso_max = derive_meso_threshold(inter_xy, cell_km=1.0)
        thresholds = ScaleThresholds(meso_max=meso_max)
        log.info("derived meso threshold: %d intersections", meso_max)

    samples = {
        k: xy_all[_sample_indices(n_total, k, np.random.SeedSequence([manifest.rng_seed, k]))]
        for k in sizes
    }

    def run_cell(q: float, k: int) -> tuple[list[UnitOfAnalysis], SweepCell]:
        try:
            config = replace(base, q=q, rng_seed=_cell_seed(manifest.rng_seed, k, q))
            result = run_apc(samples[k], config)
            return build_units(
                result,
                samples[k],
                inter_xy,
                thresholds,
                q=q,
                sample_size=k,
                buffer_m=manifest.buffer_m,
            )
        except ApclustError as exc:
            raise type(exc)(f"sweep cell q={q:g} sample={k} failed: {exc}") from exc
        except MemoryError as exc:
            gb = estimate_apc_memory_gb(k, jitter=manifest.jitter_scale > 0)
            raise ResourceLimitError(f"sweep cell q={q:g} sample={k} ran out of memory (estimated {gb:.3g} GB)") from exc
        except Exception:
            # A bug, not bad input: keep its type and traceback.
            log.error("sweep cell q=%g sample=%d failed", q, k)
            raise

    qs, ks = zip(*[(q, k) for q in manifest.q_levels for k in sizes])
    # The cap bounds all concurrent runs together, not each one.
    workers = min(_max_workers(len(qs)), max(1, int(manifest.mem_cap_gb // est_gb)))
    # Every input is checked by now; an output directory that cannot be
    # made fails here, before any clustering time is spent.
    if manifest.output_dir is not None:
        Path(manifest.output_dir).mkdir(parents=True, exist_ok=True)
    if workers == 1:
        # In the calling thread: a worker thread's own malloc arena would
        # add about 0.5 MB to the peak resident set of a one-cell run.
        outcomes = list(map(run_cell, qs, ks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_cell, qs, ks))

    cells = [cell for _, cell in outcomes]
    if manifest.output_dir is not None:
        out_dir = Path(manifest.output_dir)
        for q, k, (units, _) in zip(qs, ks, outcomes):
            export_geojson(units, origin, out_dir / f"clusters_q{q:g}_s{k}.geojson")
        export_summary(cells, out_dir / "summary.csv")

    stalled = [cell for cell in cells if not cell.converged]
    for cell in stalled:
        log.warning(
            "cell q=%g sample=%d did not converge in %d iterations", cell.q, cell.sample_size, cell.iterations
        )
    if manifest.require_convergence and len(stalled) == len(cells):
        named = ", ".join(f"q={c.q:g} sample={c.sample_size} iterations={c.iterations}" for c in stalled)
        raise ConvergenceError(f"no cell converged within the iteration budget: {named}")
    return cells


def export_geojson(units: list[UnitOfAnalysis], origin: GeoPoint, path) -> None:
    """Write a FeatureCollection of EPSG:4326 polygons, one feature per unit.

    Rings are un-projected through the inverse of the planar projection and
    emitted with 7 decimal places.
    """
    if not units:
        raise InputError("no units to export")
    features = []
    for u in units:
        ring = unproject(u.polygon.ring, origin)
        coords = [[round(g.lon, 7), round(g.lat, 7)] for g in ring]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [coords]},
                "properties": {
                    "cluster_id": u.cluster_id,
                    "n_points": u.n_points,
                    "area_km2": u.polygon.area_km2,
                    "n_intersections": u.n_intersections,
                    "level": u.level,
                },
            }
        )
    payload = {"type": "FeatureCollection", "features": features}
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")


def export_summary(cells: list[SweepCell], path) -> None:
    """Write the sweep table: q, sample size, cluster count, medians, level.

    Areas use 3 decimals and medians 1, so re-running an identical manifest
    reproduces the file byte for byte.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["q", "sample_size", "n_clusters", "median_area_km2", "median_intersections", "level"])
    for cell in cells:
        writer.writerow(
            [
                f"{cell.q:g}",
                cell.sample_size,
                cell.n_clusters,
                f"{cell.median_area_km2:.3f}",
                f"{cell.median_intersections:.1f}",
                cell.level,
            ]
        )
    _write_atomic(path, text.getvalue())


def _write_atomic(path, text: str) -> None:
    """Write text to a new temp file beside path, then move it over path.

    A failure part-way removes the temp file, so path keeps its old content
    (or stays absent) and no half-written file is left behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
