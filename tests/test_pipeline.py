"""Ingest, sampling, sweep orchestration, export, and CLI contract tests."""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import apclust
from apclust import cli, pipeline
from apclust.cli import build_parser, main
from apclust.core import ApcConfig, run_apc
from apclust.errors import ConvergenceError, FormatError, InputError, ResourceLimitError
from apclust.geo import GeoPoint
from apclust.pipeline import (
    RunManifest,
    estimate_apc_memory_gb,
    export_geojson,
    export_summary,
    ingest_crashes,
    run_sweep,
)
from apclust.testkit import BLOB_FRAME_ORIGIN, SyntheticSpec, generate_blobs, write_points_csv
from apclust.units import ScaleThresholds, build_units
from references import reference_ingest, reference_mean

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def crash_csv(tmp_path):
    spec = SyntheticSpec(n_blobs=4, points_per_blob=15, blob_sigma_m=40.0, min_separation_m=1500.0, seed=21)
    path = tmp_path / "crashes.csv"
    write_points_csv(generate_blobs(spec), path)
    return path


@pytest.fixture
def intersections_csv(tmp_path):
    # Same seed and blob count as crash_csv, so the intersection scatter
    # shares the crash blob centers and lands inside the cluster hulls.
    spec = SyntheticSpec(n_blobs=4, points_per_blob=30, blob_sigma_m=30.0, min_separation_m=1500.0, seed=21)
    path = tmp_path / "intersections.csv"
    write_points_csv(generate_blobs(spec), path)
    return path


# Field values a dirty crash file holds: numbers in and out of range, signed
# zeros, non-finite spellings, padding, quoting and text that does not parse.
FIELDS = st.one_of(
    st.floats(min_value=-200.0, max_value=200.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "abc", " -30.5 ", '"-51.2"', "-0.0", "1e1", "1_0", "180", "-90", "90.5"]),
)
# "latitude" and "lng" do not match, so some headers lack a coordinate column.
LAT_NAMES = st.sampled_from(["lat", "LAT", " Lat ", "latitude"])
LON_NAMES = st.sampled_from(["lon", "Lon", " LON", "lng"])
EXTRA_NAMES = st.lists(st.sampled_from(["id", "x", "", "lat", "Lon"]), max_size=3)


@st.composite
def dirty_csv(draw) -> str:
    """Header plus rows mixing valid, short, long and blank lines; names may repeat or differ in case."""
    header = draw(st.permutations([draw(LAT_NAMES), draw(LON_NAMES), *draw(EXTRA_NAMES)]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        width = draw(st.sampled_from([len(header)] * 4 + [0, max(0, len(header) - 1), len(header) + 1]))
        lines.append(",".join(draw(st.lists(FIELDS, min_size=width, max_size=width))))
    return eol.join(lines) + eol


class TestIngest:
    def test_reads_valid_rows(self, crash_csv):
        result = ingest_crashes(crash_csv)
        assert result.n_rows == 60
        assert result.n_dropped == 0
        assert all(isinstance(p, GeoPoint) for p in result.points)

    def test_case_insensitive_headers_and_extra_columns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("ID,LAT,Lon,severity\n1,-30.05,-51.2,3\n2,-30.06,-51.21,1\n")
        result = ingest_crashes(path)
        assert len(result.points) == 2
        assert result.points[0].lat == -30.05

    def test_invalid_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "dirty.csv"
        rows = [
            "-30.0,-51.2",
            "not_a_number,-51.2",
            "-30.1,",
            "95.0,-51.2",
            "-30.2,-51.3",
            "nan,-51.2",
            "-30.3,inf",
            "90.5,-51.2",
            "-30.4,-180.5",
            ",-51.2",
            "-30.5",
            "90,-51.2",
            "-90,-51.2",
            "-30.6,180",
            "-30.7,-180",
        ]
        path.write_text("lat,lon\n" + "\n".join(rows) + "\n")
        result = ingest_crashes(path)
        assert [(p.lat, p.lon) for p in result.points] == [
            (-30.0, -51.2),
            (-30.2, -51.3),
            (90.0, -51.2),
            (-90.0, -51.2),
            (-30.6, 180.0),
            (-30.7, -180.0),
        ]
        assert result.n_rows == 15
        assert result.n_dropped == 9

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "wrong.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(FormatError):
            ingest_crashes(path)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            ingest_crashes(path)

    def test_no_valid_rows_refused(self, tmp_path):
        path = tmp_path / "allbad.csv"
        path.write_text("lat,lon\nx,y\n,\n")
        with pytest.raises(InputError):
            ingest_crashes(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(InputError):
            ingest_crashes(tmp_path / "absent.csv")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dirty_csv())
    def test_matches_reference_ingest(self, tmp_path, text):
        path = tmp_path / "fuzzed.csv"
        path.write_bytes(text.encode())
        try:
            points, n_rows, n_dropped = reference_ingest(path)
        except (FormatError, InputError) as exc:
            with pytest.raises(type(exc)):
                ingest_crashes(path)
            return
        result = ingest_crashes(path)
        assert (result.n_rows, result.n_dropped) == (n_rows, n_dropped)
        assert result.lon.tobytes() == np.array([p.lon for p in points], dtype=np.float64).tobytes()
        assert result.lat.tobytes() == np.array([p.lat for p in points], dtype=np.float64).tobytes()
        assert result.points == points

    def test_memory_per_row(self, tmp_path):
        n = 50_000
        rng = np.random.default_rng(0)
        lat, lon = rng.uniform(-30.1, -29.9, n).tolist(), rng.uniform(-51.3, -51.1, n).tolist()
        path = tmp_path / "big.csv"
        path.write_text("lat,lon\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(lat, lon)))
        tracemalloc.start()
        try:
            result = ingest_crashes(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_rows == n and result.n_dropped == 0
        assert peak / n < 64, f"{peak / n:.1f} bytes per row"

    def test_origin_is_left_to_right_mean_across_reruns(self, tmp_path):
        # Criterion 7's corpus: the frame origin, and so every output byte, must
        # not depend on how the Python in use sums floats.
        spec = SyntheticSpec(n_blobs=4, points_per_blob=25, blob_sigma_m=40.0, min_separation_m=1500.0, seed=31)
        origins = []
        for run in ("a", "b"):
            path = tmp_path / f"crashes-{run}.csv"
            write_points_csv(generate_blobs(spec), path)
            origins.append(pipeline._ingest_xy(path)[1])
        points = ingest_crashes(path).points
        lon, lat = reference_mean([p.lon for p in points]), reference_mean([p.lat for p in points])
        assert [(o.lon.hex(), o.lat.hex()) for o in origins] == [(lon.hex(), lat.hex())] * 2


class TestSampling:
    def test_deterministic(self):
        a = pipeline._sample_indices(100, 10, 42)
        b = pipeline._sample_indices(100, 10, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, pipeline._sample_indices(100, 10, 43))

    def test_without_replacement_in_order(self):
        sample = pipeline._sample_indices(50, 20, 7)
        assert len(set(sample.tolist())) == 20
        assert sample.tolist() == sorted(sample.tolist())

    def test_full_sample_is_identity(self):
        assert np.array_equal(pipeline._sample_indices(9, 9, 1), np.arange(9))

    def test_memory_estimate(self):
        # S, R and A at 8 bytes, plus the jittered copy of S when jitter is on.
        assert estimate_apc_memory_gb(5000) == pytest.approx(0.6, rel=0.01)
        assert estimate_apc_memory_gb(5000, jitter=True) == pytest.approx(0.8, rel=0.01)


# Runs one clustering cell of n points in a fresh process and reports how far
# the resident high-water mark rose above the resident size before the run.
# VmHWM is per process; ru_maxrss would carry over the parent's peak across exec.
MEMORY_CHILD = """
import json, sys
import numpy as np
from apclust.core import ApcConfig, run_apc
from apclust.pipeline import estimate_apc_memory_gb

def status_bytes(field):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024

n, jitter = int(sys.argv[1]), float(sys.argv[2])
config = ApcConfig(q=0.5, max_iterations=3, convergence_window=2, jitter_scale=jitter)
run_apc(np.random.default_rng(0).uniform(0, 1000, size=(50, 2)), config)  # load every code path first
xy = np.random.default_rng(1).uniform(0, 1000, size=(n, 2))
rss_before, hwm_before = status_bytes("VmRSS"), status_bytes("VmHWM")
run_apc(xy, config)
hwm_after = status_bytes("VmHWM")
json.dump(
    {
        "growth": hwm_after - rss_before,
        "hwm_rose": hwm_after > hwm_before,
        "estimate": estimate_apc_memory_gb(n, jitter=jitter > 0) * 1e9,
    },
    sys.stdout,
)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc/<pid>/status")
@pytest.mark.parametrize("n", [1000, 3000])
@pytest.mark.parametrize("jitter", [0.0, 1e-6])
def test_memory_estimate_bounds_measured_peak(n, jitter):
    env = dict(os.environ, PYTHONPATH=str(Path(apclust.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD, str(n), str(jitter)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["hwm_rose"]
    assert 0.75 * stats["estimate"] <= stats["growth"] <= stats["estimate"], stats


def small_manifest(crash_csv, out_dir, **overrides) -> RunManifest:
    defaults = dict(
        input_crashes=crash_csv,
        q_levels=[0.5, 0.9],
        sample_sizes=[30, 60],
        output_dir=out_dir,
        rng_seed=11,
        max_iterations=400,
        convergence_window=40,
    )
    defaults.update(overrides)
    return RunManifest(**defaults)


class TestRunSweep:
    def test_grid_outputs(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        cells = run_sweep(small_manifest(crash_csv, out))
        assert len(cells) == 4
        assert (out / "summary.csv").exists()
        for q in (0.5, 0.9):
            for k in (30, 60):
                assert (out / f"clusters_q{q:g}_s{k}.geojson").exists()

    def test_summary_layout(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        run_sweep(small_manifest(crash_csv, out))
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "q,sample_size,n_clusters,median_area_km2,median_intersections,level"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert first[1] == "30"
        assert first[5] in ("micro", "meso", "macro")

    def test_geojson_structure(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        run_sweep(small_manifest(crash_csv, out))
        payload = json.loads((out / "clusters_q0.5_s60.geojson").read_text())
        assert payload["type"] == "FeatureCollection"
        assert payload["features"]
        total_points = 0
        for feature in payload["features"]:
            geom = feature["geometry"]
            assert geom["type"] == "Polygon"
            (ring,) = geom["coordinates"]
            assert ring[0] == ring[-1]
            assert len(ring) >= 4
            for lon, lat in ring:
                assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
                assert round(lon, 7) == lon and round(lat, 7) == lat
            props = feature["properties"]
            assert set(props) == {"cluster_id", "n_points", "area_km2", "n_intersections", "level"}
            total_points += props["n_points"]
        assert total_points == 60

    def test_byte_identical_reruns(self, crash_csv, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_sweep(small_manifest(crash_csv, out_a))
        run_sweep(small_manifest(crash_csv, out_b))
        for name in ["summary.csv"] + [f"clusters_q{q:g}_s{k}.geojson" for q in (0.5, 0.9) for k in (30, 60)]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_sample_shared_across_q_levels(self, crash_csv, tmp_path):
        # Both q cells at the same sample size must cluster the same points:
        # their polygons cover the same 30 sampled crashes.
        out = tmp_path / "out"
        cells = run_sweep(small_manifest(crash_csv, out, q_levels=[0.5, 0.9], sample_sizes=[30]))
        assert [c.sample_size for c in cells] == [30, 30]

    def test_intersections_and_derived_thresholds(self, crash_csv, intersections_csv, tmp_path):
        out = tmp_path / "out"
        manifest = small_manifest(
            crash_csv, out, input_intersections=intersections_csv, thresholds="derive", q_levels=[0.5]
        )
        cells = run_sweep(manifest)
        assert all(c.level in ("micro", "meso", "macro") for c in cells)
        assert any(c.median_intersections > 0 for c in cells)

    def test_derive_without_intersections_refused(self, crash_csv, tmp_path):
        manifest = small_manifest(crash_csv, tmp_path / "out", thresholds="derive")
        with pytest.raises(InputError):
            run_sweep(manifest)

    def test_oversized_sample_refused(self, crash_csv, tmp_path):
        manifest = small_manifest(crash_csv, tmp_path / "out", sample_sizes=[61])
        with pytest.raises(InputError):
            run_sweep(manifest)

    def test_memory_cap_refusal(self, crash_csv, tmp_path):
        manifest = small_manifest(crash_csv, tmp_path / "out", mem_cap_gb=1e-6)
        with pytest.raises(ResourceLimitError):
            run_sweep(manifest)

    def test_strict_convergence_failure(self, crash_csv, tmp_path):
        # At q=0.5 the deeply negative preference keeps every decision
        # diagonal below zero for far more than five damped iterations.
        manifest = small_manifest(
            crash_csv,
            tmp_path / "out",
            q_levels=[0.5],
            max_iterations=5,
            convergence_window=4,
            require_convergence=True,
        )
        with pytest.raises(ConvergenceError, match="q=0.5 sample=30 iterations=5, q=0.5 sample=60 iterations=5"):
            run_sweep(manifest)

    def test_unconverged_cells_still_reported(self, crash_csv, tmp_path, caplog):
        manifest = small_manifest(crash_csv, tmp_path / "out", max_iterations=3, convergence_window=2)
        cells = run_sweep(manifest)
        assert len(cells) == 4
        assert [c.iterations for c in cells] == [3] * 4
        # q=0.5 cannot settle in 3 iterations; every stalled cell gets its own warning.
        assert [c.converged for c in cells[:2]] == [False, False]
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warned == [
            f"cell q={c.q:g} sample={c.sample_size} did not converge in 3 iterations"
            for c in cells
            if not c.converged
        ]

    def test_memory_cap_bounds_concurrent_cells(self, crash_csv, tmp_path, monkeypatch):
        # A cap that holds one largest run, but not two, allows one worker,
        # so the cells run one by one in the calling thread with no pool;
        # one that holds two but not three allows two.
        seen = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv("APCLUST_THREADS", "4")
        est = estimate_apc_memory_gb(60)
        run_sweep(small_manifest(crash_csv, tmp_path / "one", mem_cap_gb=1.5 * est))
        assert seen == []
        run_sweep(small_manifest(crash_csv, tmp_path / "two", mem_cap_gb=2.5 * est))
        assert seen == [2]

    def test_thread_cap_respected(self, crash_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("APCLUST_THREADS", "1")
        cells = run_sweep(small_manifest(crash_csv, tmp_path / "out"))
        assert len(cells) == 4

    def test_bad_thread_env_refused(self, crash_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("APCLUST_THREADS", "many")
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out"))
        monkeypatch.setenv("APCLUST_THREADS", "0")
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out2"))

    def test_manifest_validation(self, crash_csv, tmp_path):
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out", q_levels=[]))
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out", q_levels=[1.2]))
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out", sample_sizes=[1]))
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out", thresholds="auto"))

    @pytest.mark.parametrize(
        "grid",
        [
            {"q_levels": [0.9999999, 1.0]},
            {"q_levels": [0.5, 0.5]},
            {"sample_sizes": [30, 30]},
            {"sample_sizes": [None, 60]},
        ],
    )
    def test_colliding_output_names_refused(self, crash_csv, tmp_path, grid):
        # Both cells would write the same clusters_q<q>_s<size>.geojson;
        # None is the full 60-point dataset.
        with pytest.raises(InputError):
            run_sweep(small_manifest(crash_csv, tmp_path / "out", **grid))
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_cluster_command(self, crash_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "cluster",
                "--input", str(crash_csv),
                "--q", "0.5",
                "--sample", "40",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        line, wrote = capsys.readouterr().out.splitlines()
        assert line.startswith("q=0.5 sample=40 clusters=")
        assert re.search(r" level=\w+ converged=(true|false) iterations=\d+$", line)
        assert wrote == f"wrote {out / 'summary.csv'}"
        assert (out / "clusters_q0.5_s40.geojson").exists()
        assert (out / "summary.csv").exists()

    def test_cluster_defaults_to_full_dataset(self, crash_csv, capsys):
        code = main(["cluster", "--input", str(crash_csv), "--q", "0.5"])
        assert code == 0
        assert "sample=60" in capsys.readouterr().out

    def test_cluster_without_out_writes_nothing(self, crash_csv, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["cluster", "--input", str(crash_csv), "--q", "0.5", "--sample", "30"]) == 0
        assert list(work.iterdir()) == []

    def test_cluster_derive_without_intersections_exit_2(self, crash_csv, capsys):
        code = main(["cluster", "--input", str(crash_csv), "--q", "0.5", "--thresholds", "derive"])
        assert code == 2
        assert "requires an intersections input" in capsys.readouterr().err

    def test_repeated_q_exit_2(self, crash_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--input", str(crash_csv), "--q", "0.5,0.5", "--samples", "30", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_run_parameter_exit_2_before_any_cell(self, crash_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--input", str(crash_csv), "--q", "0.5", "--samples", "10", "--damping", "0.3"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: damping must be in [0.5, 1), got 0.3" in err
        assert "cell" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--mem-cap-gb", "nan"),
            ("--mem-cap-gb", "inf"),
            ("--mem-cap-gb", "0"),
            ("--jitter-scale", "nan"),
            ("--jitter-scale", "inf"),
            ("--buffer-m", "0"),
            ("--buffer-m", "nan"),
            ("--buffer-m", "inf"),
            ("--cell-km", "nan"),
            ("--cell-km", "inf"),
        ],
    )
    def test_non_finite_or_zero_option_exit_2(self, option, value, crash_csv, intersections_csv, tmp_path, capsys):
        out = tmp_path / "out"
        if option == "--cell-km":
            argv = ["derive-threshold", "--intersections", str(intersections_csv)]
        else:
            argv = ["sweep", "--input", str(crash_csv), "--q", "0.5", "--samples", "30", "--out", str(out)]
        assert main(argv + [option, value]) == 2
        assert f"finite, got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_fails_before_clustering(self, crash_csv, tmp_path, monkeypatch, capsys):
        calls = []

        def no_clustering(*args, **kwargs):
            calls.append(args)
            raise AssertionError("run_apc called although the output directory cannot be made")

        monkeypatch.setattr(pipeline, "run_apc", no_clustering)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        code = main(["sweep", "--input", str(crash_csv), "--q", "0.5,0.9", "--samples", "30,60", "--out", str(out)])
        assert code == 2
        assert calls == []
        assert "error:" in capsys.readouterr().err

    def test_failed_export_exit_2(self, crash_csv, tmp_path, capsys):
        # A directory where the cell's GeoJSON goes makes its export fail;
        # the run stops there, before the summary is written.
        out = tmp_path / "out"
        (out / "clusters_q0.5_s30.geojson").mkdir(parents=True)
        code = main(["cluster", "--input", str(crash_csv), "--q", "0.5", "--sample", "30", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["clusters_q0.5_s30.geojson"]

    def test_run_defaults_are_the_manifest_defaults(self, crash_csv, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "run_sweep", lambda manifest: built.append(manifest) or [])
        out = tmp_path / "out"
        assert main(["sweep", "--input", str(crash_csv), "--q", "0.5", "--samples", "30", "--out", str(out)]) == 0
        assert built == [RunManifest(input_crashes=crash_csv, q_levels=[0.5], sample_sizes=[30], output_dir=out)]

    def test_option_sets(self):
        # Adding or dropping a knob must edit this list on purpose.
        run_options = [
            "--input", "--seed", "--intersections", "--thresholds", "--damping", "--max-iter", "--window",
            "--jitter-scale", "--buffer-m", "--mem-cap-gb", "--strict-convergence",
        ]
        expected = {
            "cluster": ["-h", "--help", "--q", "--sample", "--out", *run_options],
            "sweep": ["-h", "--help", "--q", "--samples", "--out", *run_options],
        }
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for command, options in expected.items():
            parser = sub.choices[command]
            assert [o for action in parser._actions for o in action.option_strings] == options, command

    def test_sweep_command(self, crash_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--input", str(crash_csv),
                "--q", "0.5,0.9",
                "--samples", "30,60",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("clusters=") == 4
        assert stdout.count(" converged=") == 4
        assert stdout.splitlines()[-1] == f"wrote {out / 'summary.csv'}"
        assert (out / "summary.csv").exists()

    def test_derive_threshold_command(self, intersections_csv, capsys):
        code = main(["derive-threshold", "--intersections", str(intersections_csv), "--cell-km", "1.0"])
        assert code == 0
        value = capsys.readouterr().out.strip()
        assert value.isdigit() and int(value) >= 1

    def test_explicit_thresholds_accepted(self, crash_csv, intersections_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--input", str(crash_csv),
                "--q", "0.5",
                "--samples", "30",
                "--intersections", str(intersections_csv),
                "--thresholds", "2,40",
                "--out", str(out),
            ]
        )
        assert code == 0

    def test_bad_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wrong.csv"
        path.write_text("x,y\n1,2\n")
        code = main(["cluster", "--input", str(path), "--q", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["cluster", "--input", str(tmp_path / "nope.csv"), "--q", "0.5"]) == 2

    def test_single_point_dataset_exit_2(self, tmp_path):
        # The default sample is the whole dataset, here below the minimum of 2.
        path = tmp_path / "one.csv"
        path.write_text("lat,lon\n45.0,7.0\n")
        assert main(["cluster", "--input", str(path), "--q", "0.5"]) == 2

    def test_memory_cap_exit_3(self, crash_csv):
        code = main(["cluster", "--input", str(crash_csv), "--q", "0.5", "--mem-cap-gb", "1e-6"])
        assert code == 3

    def test_out_of_memory_in_cell_exit_3(self, crash_csv, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pipeline, "run_apc", out_of_memory)
        code = main(["cluster", "--input", str(crash_csv), "--q", "0.5", "--sample", "30"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: sweep cell q=0.5 sample=30 ran out of memory (estimated " in err

    def test_bug_in_cell_propagates_with_cell_logged(self, crash_csv, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(pipeline, "run_apc", broken)
        with pytest.raises(ZeroDivisionError):
            main(["cluster", "--input", str(crash_csv), "--q", "0.5", "--sample", "30"])
        assert ("apclust", logging.ERROR, "sweep cell q=0.5 sample=30 failed") in caplog.record_tuples

    def test_convergence_exit_4(self, crash_csv, capsys, caplog):
        code = main(
            [
                "cluster",
                "--input", str(crash_csv),
                "--q", "0.5",
                "--max-iter", "3",
                "--window", "2",
                "--strict-convergence",
            ]
        )
        assert code == 4
        assert "cell q=0.5 sample=60 did not converge in 3 iterations" in caplog.messages
        err = capsys.readouterr().err
        assert "error: no cell converged within the iteration budget: q=0.5 sample=60 iterations=3" in err

    def test_bad_threshold_spec_exit_2(self, crash_csv, tmp_path):
        code = main(
            [
                "sweep",
                "--input", str(crash_csv),
                "--q", "0.5",
                "--samples", "30",
                "--thresholds", "nonsense",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_cluster_matches_sweep_cell(self, crash_csv, tmp_path, capsys):
        # The same seed and grid cell through either entry point must give
        # the same cell line and byte-identical output files.
        common = ["--input", str(crash_csv), "--q", "0.5", "--seed", "5"]
        assert main(["sweep", *common, "--samples", "30", "--out", str(tmp_path / "sweep")]) == 0
        sweep_line = capsys.readouterr().out.splitlines()[0]
        assert main(["cluster", *common, "--sample", "30", "--out", str(tmp_path / "cluster")]) == 0
        cluster_line = capsys.readouterr().out.splitlines()[0]
        assert cluster_line == sweep_line
        names = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert names == ["clusters_q0.5_s30.geojson", "summary.csv"]
        assert sorted(p.name for p in (tmp_path / "cluster").iterdir()) == names
        for name in names:
            assert (tmp_path / "cluster" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes(), name


@pytest.mark.parametrize(
    "grid, threads",
    [
        (["cluster", "--q", "0.5"], "1"),
        (
            ["sweep", "--q", "0.1,0.9", "--samples", "30,60", "--thresholds", "derive", "--jitter-scale", "1e-6"],
            "2",
        ),
    ],
    ids=["cluster", "sweep"],
)
def test_traced_bench_call_reports_every_layer_metric(grid, threads, crash_csv, intersections_csv, tmp_path, monkeypatch):
    # The benchmark's traced child on the shapes of its workloads: a small
    # cluster run, and a sweep that derives its thresholds, adds jitter and
    # runs cells in a thread pool. A metric that reads None or NaN (a wrapped
    # function the program stopped calling) makes the bench's result line
    # malformed.
    result = tmp_path / "result.json"
    args = [*grid, "--input", str(crash_csv), "--intersections", str(intersections_csv), "--out", str(tmp_path / "out")]
    src = str(Path(apclust.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), src, str(result), "traced", "--", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, APCLUST_THREADS=threads),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LAYER_METRICS, layer_metrics

    metrics = layer_metrics(record["trace"])
    assert sorted(metrics) == sorted(LAYER_METRICS)
    bad = {k: v for k, v in metrics.items() if not isinstance(v, (int, float)) or not math.isfinite(v)}
    assert bad == {}


@pytest.fixture
def small_units():
    xy = np.random.default_rng(4).uniform(0, 500, size=(20, 2))
    result = run_apc(xy, ApcConfig(q=0.5))
    units, cell = build_units(result, xy, np.empty((0, 2)), ScaleThresholds(), q=0.5, sample_size=20)
    return units, cell


class HalfWrite:
    """A text file whose write stores half of what it is given, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestAtomicWrites:
    @pytest.mark.parametrize("name", ["clusters.geojson", "summary.csv"])
    def test_failed_write_leaves_no_partial_file(self, small_units, tmp_path, monkeypatch, name):
        units, cell = small_units

        def export(path):
            if name == "summary.csv":
                export_summary([cell], path)
            else:
                export_geojson(units, BLOB_FRAME_ORIGIN, path)

        export(tmp_path / name)
        before = (tmp_path / name).read_bytes()
        monkeypatch.setattr(pipeline, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            export(tmp_path / name)
        with pytest.raises(OSError):
            export(tmp_path / f"new-{name}")
        assert (tmp_path / name).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
