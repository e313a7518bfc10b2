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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import apclust
from apclust import cli, pipeline
from apclust.cli import build_parser, main
from apclust.core import ApcConfig, run_apc
from apclust.errors import ConvergenceError, FormatError, InputError, ResourceLimitError
from apclust.geo import MAX_SUPPORTED_LAT_DEG, GeoPoint, centroid, project, unproject
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
    # The supported band's edges, and a quoted field spanning two file lines.
    st.sampled_from(["89.9", "-89.95", "90", '"89.95\n"', '"a\nb"']),
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


@st.composite
def in_band_csv(draw) -> str:
    """A clean points file whose latitudes all lie within the supported band, often at one edge of it."""
    edge = draw(st.sampled_from([MAX_SUPPORTED_LAT_DEG, -MAX_SUPPORTED_LAT_DEG]))
    lat = st.one_of(st.just(edge), st.floats(min_value=-MAX_SUPPORTED_LAT_DEG, max_value=MAX_SUPPORTED_LAT_DEG))
    lon = st.floats(min_value=-180.0, max_value=180.0)
    rows = draw(st.lists(st.tuples(lat, lon), min_size=1, max_size=20))
    return "lat,lon\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows)


class TestIngest:
    def test_reads_valid_rows(self, crash_csv):
        result = ingest_crashes(crash_csv)
        assert result.n_rows == 60
        assert result.n_rows - result.lonlat.shape[0] == 0
        assert result.lonlat.dtype == np.float64 and result.lonlat.shape == (60, 2)

    def test_case_insensitive_headers_and_extra_columns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("ID,LAT,Lon,severity\n1,-30.05,-51.2,3\n2,-30.06,-51.21,1\n")
        result = ingest_crashes(path)
        assert result.lonlat.shape == (2, 2)
        assert result.lonlat[0, 1] == -30.05

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
        # 90 and -90 are valid, so they are kept, and the first of them is refused by its line.
        with pytest.raises(InputError, match=r"line 13: latitude 90\.0 beyond supported range"):
            ingest_crashes(path)
        in_band = [row for row in rows if row not in ("90,-51.2", "-90,-51.2")]
        path.write_text("lat,lon\n" + "\n".join(in_band) + "\n")
        result = ingest_crashes(path)
        assert [(lat, lon) for lon, lat in result.lonlat.tolist()] == [
            (-30.0, -51.2),
            (-30.2, -51.3),
            (-30.6, 180.0),
            (-30.7, -180.0),
        ]
        assert result.n_rows == 13
        assert result.n_rows - result.lonlat.shape[0] == 9

    def test_polar_row_refused_by_line(self, tmp_path):
        # 89.95 is a valid latitude, so the row on line 4 is kept, then refused.
        path = tmp_path / "polar.csv"
        path.write_text("lat,lon\nnan,-51.2\n-30.0,-51.2\n89.95,-51.2\n-30.01,-51.21\n")
        message = rf"^{re.escape(str(path))}: line 4: latitude 89\.95 beyond supported range"
        with pytest.raises(InputError, match=message):
            ingest_crashes(path)

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

    def test_undecodable_bytes_outside_coordinates_ignored(self, tmp_path):
        # A latin-1 byte in an ignored column keeps its row; one inside a
        # coordinate drops only that row.
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"lat,lon,note\n-30.05,-51.2,caf\xe9\n-30.06,-51.21\xe9,x\n-30.07,-51.22,ok\n")
        result = ingest_crashes(path)
        assert result.lonlat[:, 1].tolist() == [-30.05, -30.07]
        assert result.n_rows == 3
        assert result.n_rows - result.lonlat.shape[0] == 1

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbflat,lon\n-30.05,-51.2\n-30.06,-51.21\n")
        result = ingest_crashes(path)
        assert result.lonlat.tolist() == [[-51.2, -30.05], [-51.21, -30.06]]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dirty_csv())
    def test_matches_reference_ingest(self, tmp_path, text):
        path = tmp_path / "fuzzed.csv"
        path.write_bytes(text.encode())
        try:
            points, n_rows, n_dropped, polar_row = reference_ingest(path)
        except (FormatError, InputError) as exc:
            with pytest.raises(type(exc)):
                ingest_crashes(path)
            return
        if polar_row is not None:
            line, lat = polar_row
            with pytest.raises(InputError, match=rf": line {line}: latitude {re.escape(str(lat))} beyond"):
                ingest_crashes(path)
            return
        result = ingest_crashes(path)
        assert (result.n_rows, result.n_rows - result.lonlat.shape[0]) == (n_rows, n_dropped)
        assert result.lonlat.shape == (len(points), 2)
        assert result.lonlat.tobytes() == np.array([(p.lon, p.lat) for p in points], dtype=np.float64).tobytes()
        assert [GeoPoint(lon, lat) for lon, lat in result.lonlat.tolist()] == points

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(in_band_csv())
    @example("lat,lon\n89.9,1\n89.9,1\n89.9,1\n")
    def test_library_recipe_takes_the_command_line_frame(self, tmp_path, text):
        # The README recipe and the command line project a file the same way, bit for bit.
        path = tmp_path / "in-band.csv"
        path.write_text(text)
        lonlat = ingest_crashes(path).lonlat
        origin = centroid(lonlat)
        xy, cli_origin = pipeline._ingest_xy(path)
        assert (cli_origin.lon.hex(), cli_origin.lat.hex()) == (origin.lon.hex(), origin.lat.hex())
        assert xy.tobytes() == project(lonlat, origin).tobytes()

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
        assert result.n_rows == n and result.n_rows - result.lonlat.shape[0] == 0
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
        lonlat = ingest_crashes(path).lonlat.tolist()
        lon, lat = reference_mean([x for x, _ in lonlat]), reference_mean([y for _, y in lonlat])
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
        # S, R and A at 8 bytes, with or without jitter.
        assert estimate_apc_memory_gb(5000) == pytest.approx(0.6, rel=0.01)


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
        "estimate": estimate_apc_memory_gb(n) * 1e9,
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


# Runs CLI commands in a fresh interpreter and fails if any imported numpy.ma,
# which np.quantile and np.median do on their first call: about 1.7 MB
# resident and 12 ms. The test process itself may hold numpy.ma already.
NO_MASKED_ARRAYS_CHILD = """
import json, sys
from apclust.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, f"{argv[0]} imported numpy.ma"
"""


def test_commands_import_no_masked_arrays(crash_csv, intersections_csv, tmp_path):
    inputs = ["--input", str(crash_csv), "--intersections", str(intersections_csv)]
    commands = [
        ["cluster", *inputs, "--q", "0.5", "--sample", "40"],
        ["sweep", *inputs, "--q", "0.5,0.9", "--samples", "30", "--out", str(tmp_path / "out"),
         "--jitter-scale", "1e-6", "--thresholds", "derive"],
        ["derive-threshold", "--intersections", str(intersections_csv)],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(apclust.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS_CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


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

    def test_derived_bound_not_above_micro_max_is_input_error(self, crash_csv, tmp_path):
        # One intersection per occupied 1 km cell derives a meso bound of 1, the default micro_max.
        grid = tmp_path / "grid.csv"
        xy = np.array([(2000.0 * i, 2000.0 * j) for i in range(5) for j in range(5)])
        write_points_csv(unproject(xy, BLOB_FRAME_ORIGIN), grid)
        manifest = small_manifest(crash_csv, tmp_path / "out", input_intersections=grid, thresholds="derive")
        with pytest.raises(InputError, match="not above micro_max 1"):
            run_sweep(manifest)
        assert not (tmp_path / "out").exists()

    def test_oversized_sample_refused(self, crash_csv, tmp_path):
        manifest = small_manifest(crash_csv, tmp_path / "out", sample_sizes=[61])
        with pytest.raises(InputError):
            run_sweep(manifest)

    def test_memory_cap_refusal(self, crash_csv, tmp_path):
        manifest = small_manifest(crash_csv, tmp_path / "out", mem_cap_gb=1e-6)
        with pytest.raises(ResourceLimitError):
            run_sweep(manifest)

    def test_memory_cap_messages_show_small_sizes(self, crash_csv, tmp_path, caplog):
        # Both figures keep three significant digits: a run of 60 points is
        # well under 0.05 GB, which one decimal place would print as 0.0.
        est = estimate_apc_memory_gb(60)
        assert est < 0.05
        refused = f"estimated {est:.3g} GB for the largest run exceeds the 0.000123 GB cap"
        with pytest.raises(ResourceLimitError, match=re.escape(refused)):
            run_sweep(small_manifest(crash_csv, tmp_path / "refused", mem_cap_gb=0.000123))
        run_sweep(small_manifest(crash_csv, tmp_path / "warned", mem_cap_gb=2 * est))
        assert f"largest run estimated at {est:.3g} GB resident" in caplog.messages

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

    def test_largest_cells_run_first_and_outputs_keep_grid_order(self, crash_csv, tmp_path, monkeypatch):
        # One thread runs the cells in run order: largest sample first, q
        # order kept within a size. Two threads write the same bytes, and
        # both report and write in grid order.
        sizes = []
        run_apc = pipeline.run_apc

        def recording(points, config):
            sizes.append(len(points))
            return run_apc(points, config)

        monkeypatch.setattr(pipeline, "run_apc", recording)
        outs = {threads: tmp_path / f"threads{threads}" for threads in ("1", "2")}
        cells = {}
        for threads, out in outs.items():
            monkeypatch.setenv("APCLUST_THREADS", threads)
            cells[threads] = run_sweep(small_manifest(crash_csv, out, sample_sizes=[20, 40]))
        assert sizes[:4] == [40, 40, 20, 20]
        grid = [(0.5, 20), (0.5, 40), (0.9, 20), (0.9, 40)]
        assert [(c.q, c.sample_size) for c in cells["1"]] == grid
        assert cells["2"] == cells["1"]
        rows = (outs["1"] / "summary.csv").read_text().splitlines()[1:]
        assert [tuple(row.split(",")[:2]) for row in rows] == [(f"{q:g}", str(k)) for q, k in grid]
        names = sorted(p.name for p in outs["1"].iterdir())
        assert names == sorted(["summary.csv", *(f"clusters_q{q:g}_s{k}.geojson" for q, k in grid)])
        for name in names:
            assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name

    def test_thread_cap_respected(self, crash_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("APCLUST_THREADS", "1")
        cells = run_sweep(small_manifest(crash_csv, tmp_path / "out"))
        assert len(cells) == 4

    def test_default_thread_cap_counts_usable_cpus(self, monkeypatch):
        # Pinned to one CPU of eight, a six-cell sweep runs one cell at a time.
        monkeypatch.delenv("APCLUST_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert pipeline._max_workers(6) == 1

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

    def test_ring_buffered_past_the_pole_exit_2_and_writes_nothing(self, crash_csv, tmp_path, capsys):
        # At q=1 singleton clusters are buffered into squares 10,000 km wide, past lat 90.
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(crash_csv), "--q", "1", "--buffer-m", "1e7", "--out", str(out)]) == 2
        assert "outside lon [-180, 180], lat [-90, 90]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_ring_past_the_pole_in_a_later_cell_writes_no_file(self, crash_csv, tmp_path, capsys):
        # The q=0.5 cell exports cleanly; the q=1 cell's singleton squares
        # reach past lat 90. No file of the set may be written.
        out = tmp_path / "out"
        argv = ["sweep", "--input", str(crash_csv), "--q", "0.5,1", "--samples", "60", "--buffer-m", "1e7"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"error: cell q=1 sample=60 cluster \d+: point \d+: coordinate ", err), err
        assert "outside lon [-180, 180], lat [-90, 90]" in err
        assert list(out.iterdir()) == []

    # -0 and 0 are one q level, so their cells would write one file.
    @pytest.mark.parametrize(
        ("q_levels", "name"), [("0.5,0.5", "clusters_q0.5_s30.geojson"), ("0,-0", "clusters_q0_s30.geojson")]
    )
    def test_repeated_q_exit_2(self, q_levels, name, crash_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--input", str(crash_csv), "--q", q_levels, "--samples", "30", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert name in err
        assert not out.exists()

    def test_over_long_field_exit_2(self, tmp_path, capsys):
        # The field sits in an ignored column, on the file's second line.
        path = tmp_path / "big.csv"
        note = "x" * 200_000
        path.write_text(f'lat,lon,note\n-30.05,-51.2,"{note}"\n-30.06,-51.21,a\n-30.07,-51.22,b\n')
        out = tmp_path / "o"
        assert main(["cluster", "--input", str(path), "--q", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2: field larger than field limit" in err
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
            ("--seed", "-1"),
        ],
    )
    def test_non_finite_or_zero_option_exit_2(self, option, value, crash_csv, intersections_csv, tmp_path, capsys):
        out = tmp_path / "out"
        if option == "--cell-km":
            argv = ["derive-threshold", "--intersections", str(intersections_csv)]
        else:
            argv = ["sweep", "--input", str(crash_csv), "--q", "0.5", "--samples", "30", "--out", str(out)]
        assert main(argv + [option, value]) == 2
        expected = "non-negative, got -1" if option == "--seed" else f"finite, got {float(value)}"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--q", "0.5,abc", "could not parse q list"),
            ("--q", "", "q_levels must be non-empty"),
            ("--q", "1.5", "q must be in [0, 1], got 1.5"),
            ("--samples", ",", "sample_sizes must be non-empty"),
            ("--thresholds", "1,x", "threshold bounds must be numeric"),
            ("--max-iter", "0", "max_iterations must be positive"),
            ("--window", "0", "convergence_window must be positive"),
        ],
    )
    def test_refused_option_value_exit_2(self, option, value, message, crash_csv, tmp_path, capsys):
        out = tmp_path / "out"
        options = {"--q": "0.5", "--samples": "30", option: value}
        argv = ["sweep", "--input", str(crash_csv), "--out", str(out)]
        assert main(argv + [arg for pair in options.items() for arg in pair]) == 2
        assert message in capsys.readouterr().err
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

    def test_derive_threshold_past_2_31_cells_exit_2(self, intersections_csv, capsys):
        code = main(["derive-threshold", "--intersections", str(intersections_csv), "--cell-km", "1e-300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2**31 or more cells" in captured.err

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

    def test_derived_threshold_not_above_micro_max_exit_2(self, crash_csv, tmp_path, capsys):
        # Points 2 km apart put one intersection in each occupied 1 km cell,
        # so the derived meso bound is 1, equal to the default micro_max.
        grid = tmp_path / "grid.csv"
        xy = [(2000.0 * i, 2000.0 * j) for i in range(5) for j in range(5)]
        write_points_csv(unproject(xy, BLOB_FRAME_ORIGIN), grid)
        out = tmp_path / "out"
        argv = ["sweep", "--input", str(crash_csv), "--q", "0.5", "--samples", "30", "--intersections", str(grid)]
        assert main(argv + ["--thresholds", "derive", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "derived meso threshold 1 is not above micro_max 1" in err
        assert "--thresholds <micro_max>,<meso_max>" in err
        assert not out.exists()

    def test_bad_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wrong.csv"
        path.write_text("x,y\n1,2\n")
        code = main(["cluster", "--input", str(path), "--q", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("polar_file", ["--input", "--intersections"])
    def test_polar_row_names_its_file_exit_2(self, crash_csv, tmp_path, capsys, monkeypatch, polar_file):
        # 89.95 is a valid latitude, so ingest keeps the row; the projection refuses it.
        polar = tmp_path / "polar.csv"
        polar.write_text("lat,lon\nnan,-51.2\n-30.0,-51.2\n-30.01,-51.21\n89.95,-51.2\n")
        files = {"--input": crash_csv, "--intersections": crash_csv, polar_file: polar}
        argv = ["cluster", "--q", "0.5", "--input", str(files["--input"]), "--intersections", str(files["--intersections"])]
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {polar}: line 5: latitude 89.95 beyond supported range" in err
        # The line is found in the one read that ingests the file.
        assert opened.count(polar) == 1
        assert len(opened) == len(set(opened))

    @pytest.mark.parametrize(
        "text,message",
        [
            # A quoted two-line field, a blank line, a short row and an out-of-range row come first.
            ('note,lat,lon\n"a\nb",-30.0,-51.2\n\nz\nz,95,1\nq,-89.95,-51.2\n', "line 7: latitude -89.95"),
        ],
        ids=["rows-dropped-before"],
    )
    def test_polar_line_counts_the_file_lines(self, tmp_path, capsys, text, message):
        polar = tmp_path / "polar.csv"
        polar.write_text(text)
        assert main(["cluster", "--q", "0.5", "--input", str(polar)]) == 2
        assert f"error: {polar}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("lat", [89.9, -89.9])
    def test_rows_at_the_band_edge_accepted(self, tmp_path, lat):
        # Three rows of 89.9 have a left-to-right mean of 89.90000000000002:
        # no row is out of the band, so the origin is held at its edge.
        path = tmp_path / "edge.csv"
        path.write_text(f"lat,lon\n{lat},1\n{lat},1\n{lat},1\n")
        assert main(["cluster", "--q", "0.5", "--input", str(path)]) == 0
        assert pipeline._ingest_xy(path)[1].lat == lat

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
    # Every kept row of both inputs passes through the projection the bench times.
    kept = sum(ingest_crashes(path).lonlat.shape[0] for path in (crash_csv, intersections_csv))
    assert metrics["geo.project_points"] == kept


@pytest.fixture
def small_units():
    xy = np.random.default_rng(4).uniform(0, 500, size=(20, 2))
    result = run_apc(xy, ApcConfig(q=0.5))
    units, cell = build_units(result, xy, np.empty((0, 2)), ScaleThresholds(), q=0.5)
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
                export_geojson(units, [unproject(u.polygon.ring, BLOB_FRAME_ORIGIN) for u in units], path)

        export(tmp_path / name)
        before = (tmp_path / name).read_bytes()
        monkeypatch.setattr(pipeline, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            export(tmp_path / name)
        with pytest.raises(OSError):
            export(tmp_path / f"new-{name}")
        assert (tmp_path / name).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_empty_export_refused_and_writes_nothing(self, tmp_path):
        with pytest.raises(InputError, match="no units to export"):
            export_geojson([], [], tmp_path / "clusters.geojson")
        assert list(tmp_path.iterdir()) == []
