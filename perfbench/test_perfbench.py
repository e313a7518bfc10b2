"""Self-tests of the benchmark harness: span arithmetic, wrapper installation, output checks.

Run with:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(id, start, end, parent=None, name="x", cell=None, thread=1, **extra):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "cell": cell,
            "thread": thread, "extra": extra}


class TestSelfTime:
    def test_union_merges_overlaps_and_skips_empty(self):
        assert layers.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
        assert layers.union_length([]) == 0.0

    def test_self_time_subtracts_children(self):
        got = layers.self_times([_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 4.0, 5.0, 1)])
        assert got == pytest.approx({1: 7.0, 2: 2.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        # Two pool workers busy over [1, 6] and [2, 8]: the parent waited 7 of its 10 s.
        got = layers.self_times([_span(1, 0.0, 10.0), _span(2, 1.0, 6.0, 1), _span(3, 2.0, 8.0, 1)])
        assert got[1] == pytest.approx(3.0)

    def test_child_outliving_parent_is_clipped(self):
        got = layers.self_times([_span(1, 0.0, 4.0), _span(2, 3.0, 9.0, 1)])
        assert got[1] == pytest.approx(3.0)

    def test_grandchildren_do_not_count_against_grandparent(self):
        got = layers.self_times([_span(1, 0, 10), _span(2, 2, 6, 1), _span(3, 3, 5, 2)])
        assert got == pytest.approx({1: 6.0, 2: 2.0, 3: 2.0})


Result = namedtuple("Result", "iterations_run converged net_similarity")


def _fake_package(with_updates: bool) -> types.ModuleType:
    """A package shaped like apclust, whose functions call each other through module globals."""
    pkg = types.ModuleType("fakeapc")
    core = types.ModuleType("fakeapc.core")
    units = types.ModuleType("fakeapc.units")
    geo = types.ModuleType("fakeapc.geo")
    pipeline = types.ModuleType("fakeapc.pipeline")
    pkg.core, pkg.units, pkg.geo, pkg.pipeline = core, units, geo, pipeline

    def run_apc_on_matrix(n):
        for _ in range(3):
            if with_updates:
                core.update_responsibilities()
                core.update_availabilities()
        return Result(3, True, -2.0)

    def run_apc(points):
        return core.run_apc_on_matrix(len(points))

    def build_units(points):
        return [units.contains(p) for p in points]

    def run_sweep(cells):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda c=c: (core.run_apc(c), units.build_units(c))) for c in cells]
            return [f.result() for f in futures]

    core.run_apc, core.run_apc_on_matrix = run_apc, run_apc_on_matrix
    if with_updates:
        core.update_responsibilities = lambda: None
        core.update_availabilities = lambda: None
    geo.contains = lambda p: p > 0
    units.contains, units.build_units = geo.contains, build_units
    pipeline.run_sweep = run_sweep
    return pkg


class TestTracer:
    def test_untraced_child_installs_no_wrappers(self):
        probe = (
            "import sys, types; sys.path.insert(0, sys.argv[1]); import child; "
            "cli, tracer = child.load(sys.argv[2], traced=sys.argv[3] == '1'); import apclust; "
            "mods = [m for m in vars(apclust).values() if isinstance(m, types.ModuleType)]; "
            "print(sum(hasattr(v, '__wrapped__') for m in mods for v in vars(m).values()), tracer is None)"
        )
        src = str(BENCH_DIR.parent / "src")
        outs = [
            subprocess.run([sys.executable, "-c", probe, str(BENCH_DIR), src, t], capture_output=True, text=True,
                           timeout=60, check=True).stdout.split()
            for t in ("0", "1")
        ]
        assert outs[0] == ["0", "True"]
        assert int(outs[1][0]) > 0 and outs[1][1] == "False"

    def test_missing_function_is_absent_not_an_error(self):
        tracer = spans.Tracer()
        pkg = _fake_package(with_updates=False)
        spans.install(tracer, pkg)
        assert {"core.responsibility", "core.availability", "cli.main", "geo.project"} <= set(tracer.absent)
        pkg.pipeline.run_sweep([[1, -1], [2, 3, -4]])
        m = layers.layer_metrics(tracer.record())
        assert m["core.responsibility_s"] is None and m["core.availability_s"] is None
        assert m["geo.project_s"] is None and m["cli.self_s"] is None
        assert m["core.iterations"] == 6 and m["core.converged_frac"] == 1.0
        # Per-iteration samples fall back to each cell's mean iteration time.
        assert m["core.iter_ms_p50"] is not None

    def test_counters_and_cells(self):
        tracer = spans.Tracer()
        pkg = _fake_package(with_updates=True)
        spans.install(tracer, pkg)
        assert tracer.absent.count("core.responsibility") == 0
        pkg.pipeline.run_sweep([[1, -1], [2, 3, -4]])
        rec = tracer.record()
        m = layers.layer_metrics(rec)
        assert rec["calls"] == {"core.responsibility": 6, "core.availability": 6}
        assert len(rec["iteration_s"]) == 6
        assert m["units.contains_calls"] == 5 and m["units.contain_hit_ratio"] == pytest.approx(3 / 5)
        sweep = [s for s in rec["spans"] if s["name"] == "pipeline.run_sweep"][0]
        cells = [s for s in rec["spans"] if s["name"] == spans.CELL_OPEN]
        # Worker-thread cells hang under the sweep span open in the main thread.
        assert {c["parent"] for c in cells} == {sweep["id"]}
        assert len({c["cell"] for c in cells}) == 2
        assert 0.0 < m["pipeline.pool_busy_frac"] <= 1.0


def _write_outputs(out: Path, n_features: int, n_points: int) -> None:
    out.mkdir()
    (out / "summary.csv").write_text(
        "q,sample_size,n_clusters,median_area_km2,median_intersections,level\n0.5,10,2,1.000,3.0,meso\n"
    )
    features = [{"properties": {"n_points": n_points // n_features}} for _ in range(n_features)]
    (out / "clusters_q0.5_s10.geojson").write_text(json.dumps({"features": features}))


class TestOutputCheck:
    workload = run.Workload("t", "cluster", None, None, q=(0.5,), samples=(10,), threads=1)

    def test_valid_outputs_give_a_stable_digest(self, tmp_path):
        _write_outputs(tmp_path / "a", 2, 10)
        _write_outputs(tmp_path / "b", 2, 10)
        digest = run.check_outputs(self.workload, tmp_path / "a")
        assert digest == run.check_outputs(self.workload, tmp_path / "b")

    @pytest.mark.parametrize("n_features, n_points", [(1, 10), (2, 8)])
    def test_feature_count_and_point_sum_are_checked(self, tmp_path, n_features, n_points):
        _write_outputs(tmp_path / "a", n_features, n_points)
        with pytest.raises(ValueError):
            run.check_outputs(self.workload, tmp_path / "a")


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
