"""Per-layer metrics derived from one traced run's spans and counters.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. Children of one parent may overlap (sweep cells run
on a thread pool), so the covered part is the length of the union of the
child intervals, clipped to the parent. A metric built on a function the
package no longer has is None, which the report prints as absent.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# The minimal traffic model of one message-passing iteration: five passes
# over an n x n float64 matrix (read S and A, write R; read R, write A).
BYTES_PER_ENTRY_PER_ITERATION = 5 * 8

# name -> unit, in report order
LAYER_METRICS = {
    "core.message_passing_s": "s",
    "core.iter_ms_p50": "ms",
    "core.iter_ms_p90": "ms",
    "core.responsibility_s": "s",
    "core.availability_s": "s",
    "core.iterations": "count",
    "core.converged_frac": "1",
    "core.net_similarity": "m2",
    "core.effective_gbps_computed": "GB/s",
    "core.similarity_s": "s",
    "core.preference_s": "s",
    "pipeline.cell_s_p50": "s",
    "pipeline.cell_s_max": "s",
    "pipeline.pool_busy_frac": "1",
    "pipeline.ingest_s": "s",
    "pipeline.ingest_rows_per_s": "1/s",
    "geo.project_s": "s",
    "geo.project_points": "count",
    "units.count_s": "s",
    "units.contains_calls": "count",
    "units.contain_hit_ratio": "1",
    "units.derive_threshold_s": "s",
    "geo.polygonize_s": "s",
    "geo.unproject_s": "s",
    "pipeline.export_s": "s",
    "pipeline.export_bytes": "B",
    "pipeline.sweep_self_s": "s",
    "cli.self_s": "s",
}

# Counts that must repeat exactly between runs of the same code and inputs.
EXACT_COUNTS = ("core.iterations", "units.contains_calls", "geo.project_points")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's clipped intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ratio(num, den):
    return None if num is None or den is None or den == 0 else num / den


def layer_metrics(record: dict) -> dict[str, float | None]:
    """Every LAYER_METRICS entry for one traced run (None when absent)."""
    spans = record["spans"]
    absent = set(record["absent"])
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_s(name):
        return None if name in absent else float(sum(own[s["id"]] for s in by_name[name]))

    def extra_sum(name, key):
        return None if name in absent else sum(s["extra"][key] for s in by_name[name])

    m: dict[str, float | None] = {}
    mp_s = self_s("core.message_passing")
    m["core.message_passing_s"] = mp_s

    cells = by_name["core.run_apc"]
    iterations = extra_sum("core.run_apc", "iterations")
    samples = record["iteration_s"]
    if not samples and mp_s is not None and cells:
        # Without the per-iteration functions, each cell gives its mean.
        mp_by_cell = defaultdict(float)
        for s in by_name["core.message_passing"]:
            mp_by_cell[s["cell"]] += own[s["id"]]
        samples = [mp_by_cell[c["cell"]] / c["extra"]["iterations"] for c in cells]
    m["core.iter_ms_p50"] = float(np.percentile(samples, 50)) * 1e3 if samples else None
    m["core.iter_ms_p90"] = float(np.percentile(samples, 90)) * 1e3 if samples else None
    m["core.responsibility_s"] = record["busy_s"].get("core.responsibility")
    m["core.availability_s"] = record["busy_s"].get("core.availability")
    m["core.iterations"] = iterations
    m["core.converged_frac"] = _ratio(sum(c["extra"]["converged"] for c in cells), len(cells))
    m["core.net_similarity"] = extra_sum("core.run_apc", "net_similarity")
    moved = sum(BYTES_PER_ENTRY_PER_ITERATION * c["extra"]["n"] ** 2 * c["extra"]["iterations"] for c in cells)
    gbps = _ratio(moved / 1e9, mp_s)
    m["core.effective_gbps_computed"] = gbps
    m["core.similarity_s"] = self_s("core.similarity")
    m["core.preference_s"] = self_s("core.preference")

    spans_by_cell = defaultdict(list)
    for s in spans:
        if s["cell"] is not None:
            spans_by_cell[s["cell"]].append(s)
    durations = [max(s["end"] for s in ss) - min(s["start"] for s in ss) for ss in spans_by_cell.values()]
    if durations:
        members = [s for ss in spans_by_cell.values() for s in ss]
        pool_span = max(s["end"] for s in members) - min(s["start"] for s in members)
        workers = len({s["thread"] for s in members})
        m["pipeline.cell_s_p50"] = float(np.median(durations))
        m["pipeline.cell_s_max"] = max(durations)
        m["pipeline.pool_busy_frac"] = _ratio(sum(durations), workers * pool_span)
    else:
        m["pipeline.cell_s_p50"] = m["pipeline.cell_s_max"] = m["pipeline.pool_busy_frac"] = None

    m["pipeline.ingest_s"] = self_s("pipeline.ingest")
    m["pipeline.ingest_rows_per_s"] = _ratio(extra_sum("pipeline.ingest", "rows"), m["pipeline.ingest_s"])
    m["geo.project_s"] = self_s("geo.project")
    m["geo.project_points"] = extra_sum("geo.project", "points")
    m["units.count_s"] = self_s("units.count")
    if "units.contains" in absent:
        m["units.contains_calls"] = m["units.contain_hit_ratio"] = None
    else:
        m["units.contains_calls"] = record["contains_calls"]
        m["units.contain_hit_ratio"] = _ratio(record["contains_hits"], record["contains_calls"])
    m["units.derive_threshold_s"] = self_s("units.derive_threshold")
    m["geo.polygonize_s"] = self_s("geo.polygonize")
    m["geo.unproject_s"] = self_s("geo.unproject")
    m["pipeline.export_s"] = self_s("pipeline.export")
    m["pipeline.export_bytes"] = extra_sum("pipeline.export", "bytes")
    m["pipeline.sweep_self_s"] = self_s("pipeline.run_sweep")
    m["cli.self_s"] = self_s("cli.main")
    return m


def traced_wall_s(record: dict) -> float | None:
    """Duration of the cli.main span, the traced counterpart of wall_s."""
    mains = [s for s in record["spans"] if s["name"] == "cli.main"]
    return mains[0]["end"] - mains[0]["start"] if mains else None
