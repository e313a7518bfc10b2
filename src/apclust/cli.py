"""Command-line interface.

Three subcommands: `cluster` runs one (q, sample size) cell and reports
it, `sweep` runs the full parameter grid and writes GeoJSON plus a summary
table, and `derive-threshold` computes the meso intersection bound from an
intersection inventory. `cluster` is a one-cell sweep: both go through
`run_sweep` and print the same line per cell. Exit codes: 0 success, 2 bad
input or file format, 3 refused resource budget, 4 convergence failure
under --strict-convergence.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .errors import ApclustError, ConvergenceError, InputError, ResourceLimitError
from .pipeline import RunManifest, _ingest_xy, run_sweep
from .units import ScaleThresholds, derive_meso_threshold


def _parse_list(raw: str, kind: type, what: str) -> list:
    try:
        return [kind(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"could not parse {what} list {raw!r}, expected comma-separated {kind.__name__}s")


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
    p.add_argument("--input", required=True, type=Path, help="crash points CSV with lat,lon header")
    p.add_argument("--seed", type=int, default=RunManifest.rng_seed, help="sampling and tie-break seed")
    p.add_argument("--intersections", type=Path, default=None, help="intersection points CSV")
    p.add_argument("--thresholds", type=str, default=None, help="'derive' or '<micro_max>,<meso_max>'")
    p.add_argument("--damping", type=float, default=RunManifest.damping, help="message damping factor in [0.5, 1)")
    p.add_argument("--max-iter", type=int, default=RunManifest.max_iterations, help="iteration budget")
    p.add_argument(
        "--window",
        type=int,
        default=RunManifest.convergence_window,
        help="iterations of unchanged exemplars to converge",
    )
    p.add_argument(
        "--jitter-scale",
        type=float,
        default=RunManifest.jitter_scale,
        help="standard deviation in m^2 of similarity noise for tie breaking",
    )
    p.add_argument(
        "--buffer-m", type=float, default=RunManifest.buffer_m, help="half-width for degenerate cluster buffering"
    )
    p.add_argument(
        "--mem-cap-gb",
        type=float,
        default=RunManifest.mem_cap_gb,
        help="refuse above this estimated footprint and warn above a quarter of it; "
        "a sweep runs no more cells at once than it holds",
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
    p_cluster.add_argument("--q", required=True, type=float, help="preference quantile in [0, 1]")
    p_cluster.add_argument("--sample", type=int, default=None, help="sample size (default: all points)")
    p_cluster.add_argument("--out", type=Path, default=None, help="directory for GeoJSON and summary output")
    _add_run_options(p_cluster)

    p_sweep = sub.add_parser("sweep", help="run the full q x sample-size grid")
    p_sweep.add_argument("--q", required=True, type=str, help="comma-separated preference quantiles")
    p_sweep.add_argument("--samples", required=True, type=str, help="comma-separated sample sizes")
    p_sweep.add_argument("--out", required=True, type=Path, help="output directory")
    _add_run_options(p_sweep)

    p_derive = sub.add_parser("derive-threshold", help="derive the meso intersection bound from an inventory")
    p_derive.add_argument("--intersections", required=True, type=Path, help="intersection points CSV")
    p_derive.add_argument("--cell-km", type=float, default=1.0, help="grid cell edge length in km")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    """Run `cluster` (one cell) or `sweep` (the grid) and print one line per cell."""
    if args.command == "cluster":
        q_levels, sample_sizes = [args.q], [args.sample]
    else:
        q_levels, sample_sizes = _parse_list(args.q, float, "q"), _parse_list(args.samples, int, "size")
    thresholds = ScaleThresholds() if args.thresholds is None else _parse_thresholds(args.thresholds)
    manifest = RunManifest(
        input_crashes=args.input,
        q_levels=q_levels,
        sample_sizes=sample_sizes,
        output_dir=args.out,
        input_intersections=args.intersections,
        rng_seed=args.seed,
        thresholds=thresholds,
        damping=args.damping,
        max_iterations=args.max_iter,
        convergence_window=args.window,
        jitter_scale=args.jitter_scale,
        buffer_m=args.buffer_m,
        mem_cap_gb=args.mem_cap_gb,
        require_convergence=args.strict_convergence,
    )
    for cell in run_sweep(manifest):
        print(
            f"q={cell.q:g} sample={cell.sample_size} clusters={cell.n_clusters} "
            f"median_area_km2={cell.median_area_km2:.3f} "
            f"median_intersections={cell.median_intersections:.1f} level={cell.level} "
            f"converged={str(cell.converged).lower()} iterations={cell.iterations}"
        )
    if args.out is not None:
        print(f"wrote {Path(args.out) / 'summary.csv'}")
    return 0


def _cmd_derive_threshold(args: argparse.Namespace) -> int:
    xy, _ = _ingest_xy(args.intersections)
    print(derive_meso_threshold(xy, cell_km=args.cell_km))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    handlers = {
        "cluster": _cmd_run,
        "sweep": _cmd_run,
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
    except (ApclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
