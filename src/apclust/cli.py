"""Command-line interface.

Three subcommands: `cluster` runs one (q, sample size) cell and reports
it, `sweep` runs the full parameter grid and writes GeoJSON plus a summary
table, and `derive-threshold` computes the meso intersection bound from an
intersection inventory. Exit codes: 0 success, 2 bad input or file format,
3 refused resource budget, 4 convergence failure under --strict-convergence.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import ApcConfig, run_apc
from .errors import ApclustError, ConvergenceError, InputError, ResourceLimitError
from .geo import centroid, planar_to_array, project
from .pipeline import (
    RunManifest,
    SweepReport,
    _cell_seed,
    _sample_indices,
    estimate_apc_memory_gb,
    export_geojson,
    export_summary,
    ingest_crashes,
    run_sweep,
)
from .units import ScaleThresholds, build_units, derive_meso_threshold

log = logging.getLogger("apclust")


def _parse_q_list(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"could not parse q list {raw!r}, expected comma-separated floats")


def _parse_int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"could not parse size list {raw!r}, expected comma-separated integers")


def _parse_thresholds(raw: str) -> ScaleThresholds | str:
    if raw == "derive":
        return "derive"
    parts = raw.split(",")
    if len(parts) != 2:
        raise InputError(f"thresholds must be 'derive' or '<micro_max>,<meso_max>', got {raw!r}")
    try:
        micro_max, meso_max = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"threshold bounds must be numeric, got {raw!r}")
    return ScaleThresholds(micro_max=micro_max, meso_max=meso_max)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--damping", type=float, default=0.9, help="message damping factor in [0.5, 1)")
    p.add_argument("--max-iter", type=int, default=1000, help="iteration budget")
    p.add_argument("--window", type=int, default=100, help="iterations of unchanged exemplars to converge")
    p.add_argument("--jitter-scale", type=float, default=0.0, help="similarity noise scale for tie breaking")
    p.add_argument("--buffer-m", type=float, default=15.0, help="half-width for degenerate cluster buffering")
    p.add_argument("--mem-warn-gb", type=float, default=2.0, help="warn above this estimated footprint")
    p.add_argument(
        "--mem-cap-gb",
        type=float,
        default=8.0,
        help="refuse above this estimated footprint; a sweep runs no more cells at once than it holds",
    )
    p.add_argument(
        "--strict-convergence",
        action="store_true",
        help="fail (exit 4) when no run converges within the budget",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apclust",
        description="Cluster geolocated crash points and grade cluster scale by road intersections.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="run one clustering cell and report it")
    p_cluster.add_argument("--input", required=True, type=Path, help="crash points CSV with lat,lon header")
    p_cluster.add_argument("--q", required=True, type=float, help="preference quantile in [0, 1]")
    p_cluster.add_argument("--sample", type=int, default=None, help="sample size (default: all points)")
    p_cluster.add_argument("--seed", type=int, default=0, help="sampling and tie-break seed")
    p_cluster.add_argument("--intersections", type=Path, default=None, help="intersection points CSV")
    p_cluster.add_argument("--thresholds", type=str, default=None, help="'derive' or '<micro_max>,<meso_max>'")
    p_cluster.add_argument("--out", type=Path, default=None, help="directory for GeoJSON and summary output")
    _add_run_options(p_cluster)

    p_sweep = sub.add_parser("sweep", help="run the full q x sample-size grid")
    p_sweep.add_argument("--input", required=True, type=Path, help="crash points CSV with lat,lon header")
    p_sweep.add_argument("--q", required=True, type=str, help="comma-separated preference quantiles")
    p_sweep.add_argument("--samples", required=True, type=str, help="comma-separated sample sizes")
    p_sweep.add_argument("--seed", type=int, default=0, help="sampling and tie-break seed")
    p_sweep.add_argument("--intersections", type=Path, default=None, help="intersection points CSV")
    p_sweep.add_argument("--thresholds", type=str, default=None, help="'derive' or '<micro_max>,<meso_max>'")
    p_sweep.add_argument("--out", required=True, type=Path, help="output directory")
    _add_run_options(p_sweep)

    p_derive = sub.add_parser("derive-threshold", help="derive the meso intersection bound from an inventory")
    p_derive.add_argument("--intersections", required=True, type=Path, help="intersection points CSV")
    p_derive.add_argument("--cell-km", type=float, default=1.0, help="grid cell edge length in km")

    return parser


def _load_intersections_xy(path: Path | None, origin) -> np.ndarray:
    if path is None:
        return np.empty((0, 2))
    ingest = ingest_crashes(path)
    return planar_to_array(project(ingest.points, origin))


def _resolve_thresholds(raw: str | None, inter_xy: np.ndarray) -> ScaleThresholds:
    parsed = _parse_thresholds(raw) if raw is not None else ScaleThresholds()
    if parsed != "derive":
        return parsed
    if inter_xy.size == 0:
        raise InputError("--thresholds derive requires --intersections")
    bounds = (
        inter_xy[:, 0].min(),
        inter_xy[:, 1].min(),
        inter_xy[:, 0].max(),
        inter_xy[:, 1].max(),
    )
    meso_max = derive_meso_threshold(bounds, inter_xy, cell_km=1.0)
    log.info("derived meso threshold: %d intersections", meso_max)
    return ScaleThresholds(meso_max=meso_max)


def _cmd_cluster(args: argparse.Namespace) -> int:
    ingest = ingest_crashes(args.input)
    n_total = len(ingest.points)
    k = args.sample if args.sample is not None else n_total
    if k < 2:
        raise InputError(f"sample size {k} below the minimum of 2")
    if k > n_total:
        raise InputError(f"sample size {k} exceeds the {n_total}-point dataset")

    est_gb = estimate_apc_memory_gb(k, jitter=args.jitter_scale > 0)
    if est_gb > args.mem_cap_gb:
        raise ResourceLimitError(
            f"estimated {est_gb:.1f} GB exceeds the {args.mem_cap_gb:.1f} GB cap"
        )
    if est_gb > args.mem_warn_gb:
        log.warning("run estimated at %.1f GB resident", est_gb)

    origin = centroid(ingest.points)
    xy_all = planar_to_array(project(ingest.points, origin))
    xy = xy_all[_sample_indices(n_total, k, np.random.SeedSequence([args.seed, k]))]
    inter_xy = _load_intersections_xy(args.intersections, origin)
    thresholds = _resolve_thresholds(args.thresholds, inter_xy)

    config = ApcConfig(
        q=args.q,
        damping=args.damping,
        max_iterations=args.max_iter,
        convergence_window=args.window,
        jitter_scale=args.jitter_scale,
        rng_seed=_cell_seed(args.seed, k, args.q),
    )
    result = run_apc(xy, config)
    if args.strict_convergence and not result.converged:
        raise ConvergenceError(f"no convergence within {args.max_iter} iterations")

    units, cell = build_units(
        result, xy, inter_xy, thresholds, q=args.q, sample_size=k, buffer_m=args.buffer_m
    )
    print(
        f"q={cell.q:g} sample={cell.sample_size} clusters={cell.n_clusters} "
        f"median_area_km2={cell.median_area_km2:.3f} "
        f"median_intersections={cell.median_intersections:.1f} level={cell.level} "
        f"converged={str(result.converged).lower()} iterations={result.iterations_run}"
    )
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_geojson(units, origin, out_dir / f"clusters_q{args.q:g}_s{k}.geojson")
        report = SweepReport(cells=[cell], dataset_size=n_total, seed=args.seed, timestamp="")
        export_summary(report, out_dir / "summary.csv")
        log.info("wrote %s", out_dir)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    thresholds: ScaleThresholds | str
    if args.thresholds is None:
        thresholds = ScaleThresholds()
    else:
        thresholds = _parse_thresholds(args.thresholds)
    manifest = RunManifest(
        input_crashes=args.input,
        q_levels=_parse_q_list(args.q),
        sample_sizes=_parse_int_list(args.samples),
        output_dir=args.out,
        input_intersections=args.intersections,
        rng_seed=args.seed,
        thresholds=thresholds,
        damping=args.damping,
        max_iterations=args.max_iter,
        convergence_window=args.window,
        jitter_scale=args.jitter_scale,
        buffer_m=args.buffer_m,
        mem_warn_gb=args.mem_warn_gb,
        mem_cap_gb=args.mem_cap_gb,
        require_convergence=args.strict_convergence,
    )
    report = run_sweep(manifest)
    for cell in report.cells:
        print(
            f"q={cell.q:g} sample={cell.sample_size} clusters={cell.n_clusters} "
            f"median_area_km2={cell.median_area_km2:.3f} "
            f"median_intersections={cell.median_intersections:.1f} level={cell.level}"
        )
    print(f"wrote {Path(args.out) / 'summary.csv'}")
    return 0


def _cmd_derive_threshold(args: argparse.Namespace) -> int:
    ingest = ingest_crashes(args.intersections)
    origin = centroid(ingest.points)
    xy = planar_to_array(project(ingest.points, origin))
    bounds = (xy[:, 0].min(), xy[:, 1].min(), xy[:, 0].max(), xy[:, 1].max())
    print(derive_meso_threshold(bounds, xy, cell_km=args.cell_km))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    handlers = {
        "cluster": _cmd_cluster,
        "sweep": _cmd_sweep,
        "derive-threshold": _cmd_derive_threshold,
    }
    try:
        return handlers[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ApclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
