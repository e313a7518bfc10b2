"""apclust benchmark: run one workload through `apclust.cli.main` and report its metrics.

Usage:
    python3 perfbench/run.py --workload {cell,sweep,inventory} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. Inputs are generated from the seed into .bench_build/perfbench/ once
per (workload, seed, input set). Every call into the program runs in a
fresh process, so its peak resident set counts only that call.

--trace 0 times untraced calls for S seconds and reports the end-to-end
metrics (wall_s, setup_s, peak_rss_mb, ok_frac). --trace 1 alternates
untraced and traced calls for S seconds and reports the per-layer metrics,
the tracing overhead among them.

Every call's outputs are checked, and their sha256 must match earlier calls
of the same code, seed and input set and, where
perfbench/reference_digests.json has them, the reference. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
context record (git SHA, numpy/BLAS build, nproc, LLC size, copy bandwidth).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"

sys.path.insert(0, str(BENCH_DIR))
from layers import EXACT_COUNTS, LAYER_METRICS, layer_metrics, traced_wall_s  # noqa: E402
from workloads import WORKLOADS, Workload, ensure_inputs, input_seeds  # noqa: E402

# A run must end within 180 s; no call may run past this many seconds from the run's start.
RUN_LIMIT_S = 165.0
# Set-up probes (import only) made before each timed call.
PROBES_PER_CALL = 2
LEVELS = ("micro", "meso", "macro")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}
PER_LAYER = {
    **LAYER_METRICS,
    "core.bw_frac": "1",
    "core.matrix_mb": "MB",
    "host.llc_mb": "MB",
    "host.copy_gbps": "GB/s",
    "pipeline.rss_over_estimate": "1",
    "trace.overhead_frac": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        best = max(best, (level, value), key=lambda t: t[0])
    return best[1]


def copy_bandwidth(llc: int | None) -> tuple[float, int]:
    """Median copy rate in GB/s (read + write bytes) and the bytes of each array.

    Source and destination are each twice the LLC, so together they are
    four times its size and the copy streams from memory.
    """
    nbytes = max(2 * (llc or 0), 64 * 1024**2)
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9, src.nbytes


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "apclust").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_build() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {k: deps[k].get("version") for k in ("blas", "lapack") if k in deps}


def invoke(mode: str, workload: Workload, cli_args: list[str], timeout: float) -> dict:
    """Run child.py once; returns its result record plus exit code and set-up time."""
    result_path = WORK / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, APCLUST_THREADS=str(workload.threads))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(result_path), mode, "--", *cli_args]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"{mode} call exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return {"ok": False, "reason": f"{mode} call exited {proc.returncode}: {tail[0]}"}
    with open(result_path) as f:
        rec = json.load(f)
    result_path.unlink()
    rec["ok"] = True
    rec["setup_s"] = rec["first_call"] - spawn
    return rec


def check_outputs(workload: Workload, out_dir: Path) -> str:
    """sha256 of the output files after checking their content; raises ValueError."""
    with open(out_dir / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != len(workload.cells):
        raise ValueError(f"summary.csv has {len(rows)} rows for {len(workload.cells)} cells")
    for row, (q, k) in zip(rows, workload.cells):
        if (row["q"], row["sample_size"]) != (f"{q:g}", str(k)) or row["level"] not in LEVELS:
            raise ValueError(f"summary.csv row {row} does not match cell q={q:g} sample={k}")
        with open(out_dir / f"clusters_q{q:g}_s{k}.geojson") as f:
            features = json.load(f)["features"]
        if len(features) != int(row["n_clusters"]):
            raise ValueError(f"cell q={q:g} sample={k}: {len(features)} features, {row['n_clusters']} clusters")
        if sum(feat["properties"]["n_points"] for feat in features) != k:
            raise ValueError(f"cell q={q:g} sample={k}: n_points do not sum to the sample size")
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_json(path: Path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def save_json(path: Path, data: dict) -> None:
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    with open(partial, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
    os.replace(partial, path)


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_call(
    mode: str, workload: Workload, seed: int, input_set: int, deadline: float, entry: dict, reference: dict
) -> dict:
    """One call on one input set, its outputs checked against the reference or, failing
    that, against the digest recorded in ``entry`` by earlier calls of the same code."""
    crashes, inventory = ensure_inputs(workload, seed, input_set, WORK / "inputs")
    out_dir = WORK / f"out-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_args = workload.argv(crashes, inventory, out_dir, input_seeds(workload, seed, input_set)[2])
    started = time.monotonic()
    call = invoke(mode, workload, cli_args, deadline - started)
    call.update(mode=mode, input_set=input_set, elapsed_s=time.monotonic() - started)
    if call["ok"]:
        try:
            digest = check_outputs(workload, out_dir)
        except (OSError, ValueError, KeyError) as exc:
            call.update(ok=False, reason=f"output check: {exc}")
        else:
            call["digest"] = digest
            expected = reference.get(f"{seed}/{input_set}", entry.setdefault("digest", digest))
            if digest != expected:
                call.update(ok=False, reason=f"output digest {digest[:12]} != expected {expected[:12]}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return call


def layer_values(workload: Workload, calls: list[dict], copy_gbps: float, llc: int | None) -> dict:
    """Per-layer metrics: medians over the traced calls, plus those that need the plain call."""
    plain = [c for c in calls if c["ok"] and c["mode"] == "plain"]
    traced = [c for c in calls if c["ok"] and c["mode"] == "traced"]
    per_call = [layer_metrics(c["trace"]) for c in traced]
    values = {}
    for name in LAYER_METRICS:
        seen = [m[name] for m in per_call]
        if not seen or None in seen:
            values[name] = None
        else:  # exact counts stay whole numbers
            values[name] = seen[0] if len(set(seen)) == 1 else statistics.median(seen)
    gbps = values["core.effective_gbps_computed"]
    values["core.bw_frac"] = gbps / copy_gbps if gbps is not None else None
    n_max = max(workload.samples)
    values["core.matrix_mb"] = 8.0 * n_max * n_max / 1e6
    values["host.llc_mb"] = llc / 1e6 if llc else None
    values["host.copy_gbps"] = copy_gbps
    estimate = getattr(importlib.import_module("apclust.pipeline"), "estimate_apc_memory_gb", None)
    plain_rss = median_or_none([c["maxrss_kb"] * 1024 / 1e6 for c in plain])
    workers = min(workload.threads, len(workload.cells))
    values["pipeline.rss_over_estimate"] = (
        plain_rss / (estimate(n_max) * 1e3 * workers) if estimate and plain_rss else None
    )
    plain_wall = median_or_none([c["wall_s"] for c in plain])
    traced_wall = median_or_none([traced_wall_s(c["trace"]) for c in traced])
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1 if plain_wall and traced_wall else None
    return values


def repeat_problems(calls: list[dict], entry: dict) -> list[str]:
    """The exact counts must agree between traced calls and with earlier runs of this code and input."""
    problems = []
    per_call = [layer_metrics(c["trace"]) for c in calls if c["ok"] and c["mode"] == "traced"]
    recorded = entry.setdefault("counts", {})
    for name in EXACT_COUNTS:
        seen = {m[name] for m in per_call}
        if per_call:
            recorded.setdefault(name, per_call[0][name])
        if name in recorded:
            seen.add(recorded[name])
        if len(seen) > 1:
            problems.append(f"{name} did not repeat exactly: {sorted(seen, key=str)}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # subprocess.run kills and reaps its child when SystemExit unwinds through it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "apclust" / "__init__.py").is_file():
        print(f"error: no apclust source tree at {SRC}", file=sys.stderr)
        return 2
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    ensure_inputs(workload, args.seed, 0, WORK / "inputs")

    llc = llc_bytes()
    copy_gbps, copy_array_bytes = copy_bandwidth(llc)
    code_digest = src_digest()
    context = {
        "git_sha": git_sha(),
        "src_sha256": code_digest,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "copy_gbps": copy_gbps,
        "copy_array_bytes": copy_array_bytes,
        "workload": workload.name,
        "seed": args.seed,
        "apclust_threads": workload.threads,
    }

    records = load_json(WORK / "records.json")
    reference = load_json(REFERENCE_DIGESTS).get(workload.name, {})
    entries = {}
    calls: list[dict] = []
    setups: list[float] = []
    measure_start = time.monotonic()
    while True:
        for _ in range(PROBES_PER_CALL):
            probe = invoke("probe", workload, [], deadline - time.monotonic())
            if probe["ok"]:
                setups.append(probe["setup_s"])
        # A traced run alternates plain and traced calls on one input set, so
        # the tracing overhead compares like with like.
        mode = "traced" if args.trace and len(calls) % 2 else "plain"
        input_set = 0 if args.trace else len(calls)
        key = f"{workload.name}:{workload.tag}:{args.seed}:{input_set}:{code_digest}"
        entry = entries.setdefault(key, records.get(key, {}))
        call = run_call(mode, workload, args.seed, input_set, deadline, entry, reference)
        if call["ok"] and mode == "plain":
            setups.append(call["setup_s"])
        calls.append(call)

        if args.trace and len(calls) < 2:
            continue  # a traced run needs at least one traced call
        next_cost = statistics.median(c["elapsed_s"] for c in calls)
        now = time.monotonic()
        if now - measure_start + next_cost > args.seconds or now + next_cost > deadline:
            break

    problems = [c["reason"] for c in calls if not c["ok"]]
    if args.trace:
        problems += repeat_problems(calls, entry)
        values, units = layer_values(workload, calls, copy_gbps, llc), PER_LAYER
    else:
        plain = [c for c in calls if c["ok"]]
        values = {
            "wall_s": median_or_none([c["wall_s"] for c in plain]),
            "setup_s": median_or_none(setups),
            "peak_rss_mb": median_or_none([c["maxrss_kb"] * 1024 / 1e6 for c in plain]),
            "ok_frac": len(plain) / len(calls),
        }
        units = END_TO_END

    records.update(entries)
    save_json(WORK / "records.json", records)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    context["calls"] = [
        {k: c.get(k) for k in ("mode", "input_set", "ok", "wall_s", "setup_s", "maxrss_kb")} for c in calls
    ]
    context["setup_samples"] = len(setups)
    print(json.dumps({"context": context}))
    failed = sum(not c["ok"] for c in calls)
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
