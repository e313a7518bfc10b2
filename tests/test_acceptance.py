"""Acceptance suite: nine go/no-go checks for the whole package.

Each test is one criterion and prints a single PASS line with its evidence
(visible with pytest -s, or on failure). Fixture seeds, tolerances, and
runtime budgets are pinned here and must not be loosened to make a run
pass.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import apclust
from apclust.core import ApcConfig, build_similarity, apply_preference, run_apc, run_apc_on_matrix, set_preference
from apclust.geo import GeoPoint, PlanarPoint, contains, planar_to_array, polygonize, project, unproject
from apclust.pipeline import RunManifest, run_sweep
from apclust.testkit import BLOB_FRAME_ORIGIN, SyntheticSpec, brute_force_exemplars, generate_blobs, write_points_csv
from apclust.units import build_units, classify_level


def blob_xy(n_blobs: int, ppb: int, sigma: float, sep: float, seed: int) -> np.ndarray:
    spec = SyntheticSpec(
        n_blobs=n_blobs, points_per_blob=ppb, blob_sigma_m=sigma, min_separation_m=sep, seed=seed
    )
    return planar_to_array(project(generate_blobs(spec), BLOB_FRAME_ORIGIN))


def test_criterion_1_exact_oracle_agreement_on_separated_blobs():
    """50/50 exemplar sets equal the exhaustive optimum on well-separated blobs.

    2-4 blobs, separation 100x sigma, n <= 12, q = 0.5; budget 10 s.
    """
    schedule = [(2, 4), (3, 4), (4, 3)]
    start = time.perf_counter()
    matches = 0
    for seed in range(50):
        n_blobs, ppb = schedule[seed % 3]
        xy = blob_xy(n_blobs, ppb, sigma=20.0, sep=2000.0, seed=seed)
        m = build_similarity(xy)
        apply_preference(m, 0.5)
        result = run_apc(xy, ApcConfig(q=0.5))
        oracle_set, _ = brute_force_exemplars(m)
        matches += tuple(sorted(result.exemplars)) == oracle_set
    elapsed = time.perf_counter() - start
    print(f"criterion 1: PASS - {matches}/50 exact oracle matches in {elapsed:.2f}s")
    assert matches == 50
    assert elapsed < 10.0


def test_criterion_2_near_optimal_on_uniform_instances():
    """>= 95/100 uniform-random instances land within 1% of the optimum.

    n = 8, q cycling {0.3, 0.5, 0.9}; budget 30 s. The optimum here is
    always negative, so "within 1%" is net >= optimum - 0.01 |optimum|
    (a literal 0.99 x optimum sits above the optimum and is unreachable).
    Damping 0.5 with seeded tie-break jitter is the configuration choice;
    the instance set and seeds are pinned.
    """
    q_cycle = [0.3, 0.5, 0.9]
    start = time.perf_counter()
    hits = 0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        xy = rng.uniform(-500.0, 500.0, size=(8, 2))
        q = q_cycle[i % 3]
        m = build_similarity(xy)
        apply_preference(m, q)
        config = ApcConfig(
            q=q,
            damping=0.5,
            max_iterations=2000,
            convergence_window=100,
            jitter_scale=1e-6,
            rng_seed=9000 + i,
        )
        result = run_apc_on_matrix(m, config)
        _, optimum = brute_force_exemplars(m)
        hits += result.net_similarity >= optimum - 0.01 * abs(optimum)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: PASS - {hits}/100 within 1% of the optimum in {elapsed:.2f}s")
    assert hits >= 95
    assert elapsed < 30.0


def test_criterion_3_all_singletons_when_preference_dominates():
    """Preference above the max off-diagonal similarity yields all singletons.

    20 distinct points, every point an exemplar; the structure is verified
    against the exhaustive oracle at n = 12 (inside its subset cap).
    """
    rng = np.random.default_rng(77)
    xy = rng.uniform(0.0, 1000.0, size=(20, 2))
    m = build_similarity(xy)
    set_preference(m, float(m.off_diagonal().max()) * 0.5)
    result = run_apc_on_matrix(m, ApcConfig(q=0.5))
    assert result.exemplars == list(range(20))
    assert result.converged

    xy12 = xy[:12]
    m12 = build_similarity(xy12)
    set_preference(m12, float(m12.off_diagonal().max()) * 0.5)
    result12 = run_apc_on_matrix(m12, ApcConfig(q=0.5))
    oracle_set, _ = brute_force_exemplars(m12)
    assert oracle_set == tuple(range(12))
    assert tuple(result12.exemplars) == oracle_set
    print("criterion 3: PASS - 20/20 singleton exemplars; oracle agrees at n=12")


def test_criterion_4_sweep_trends_on_desk_scale_dataset():
    """Cluster counts rise and median areas fall across the q sweep.

    2000 points in 20 blobs (sigma 50 m, separation 2000 m),
    q = {0.5, 0.75, 0.99, 0.999, 1}; budget 5 min. A 5 m degenerate-cluster
    buffer keeps single-point polygon area below real hull areas at this
    synthetic scale, so the area trend reflects cluster geometry.
    """
    xy = blob_xy(20, 100, sigma=50.0, sep=2000.0, seed=4)
    assert xy.shape == (2000, 2)
    start = time.perf_counter()
    counts = []
    areas = []
    for q in (0.5, 0.75, 0.99, 0.999, 1.0):
        result = run_apc(xy, ApcConfig(q=q, jitter_scale=1e-6, rng_seed=17))
        _, cell = build_units(
            result, xy, np.empty((0, 2)), q=q, buffer_m=5.0
        )
        counts.append(cell.n_clusters)
        areas.append(cell.median_area_km2)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 4: PASS - counts {counts} rise, median areas "
        f"{[f'{a:.6f}' for a in areas]} fall in {elapsed:.0f}s"
    )
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert all(a >= b for a, b in zip(areas, areas[1:]))
    assert elapsed < 300.0


def test_criterion_5_classification_boundaries():
    """Median intersection counts map to levels with inclusive bounds."""
    expected = {0: "micro", 1: "micro", 1.5: "meso", 30: "meso", 30.5: "macro", 189: "macro"}
    got = {median: classify_level(median) for median in expected}
    assert got == expected
    print(f"criterion 5: PASS - {got}")


def test_criterion_6_geometry_suite():
    """Projection round-trip, analytic areas, and hull containment."""
    origin = BLOB_FRAME_ORIGIN
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(500):
        g = GeoPoint(
            lon=origin.lon + float(rng.uniform(-0.05, 0.05)),
            lat=origin.lat + float(rng.uniform(-0.05, 0.05)),
        )
        ((lon, lat),) = unproject(project(np.array([(g.lon, g.lat)]), origin), origin)
        worst = max(worst, abs(lon - g.lon), abs(lat - g.lat))
    assert worst < 1e-9

    square = polygonize(np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]]))
    assert square.area_km2 == pytest.approx(0.01, rel=1e-9)
    triangle = polygonize(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    assert triangle.area_km2 == pytest.approx(6.0 / 1e6, rel=1e-9)
    hexagon = polygonize(
        np.array(
            [[1000.0 * math.cos(k * math.pi / 3), 1000.0 * math.sin(k * math.pi / 3)] for k in range(6)]
        )
    )
    assert hexagon.area_km2 == pytest.approx(1.5 * math.sqrt(3.0), rel=1e-9)

    contained = 0
    total = 0
    for case in range(1000):
        gen = np.random.default_rng(5000 + case)
        size = int(gen.integers(1, 41))
        pts = gen.normal(0.0, float(gen.uniform(0.5, 200.0)), size=(size, 2))
        if case % 7 == 0:
            pts[:, 1] = 0.0  # collinear
        if case % 11 == 0 and size > 1:
            pts[1] = pts[0]  # duplicate
        poly = polygonize(pts)
        total += size
        contained += sum(contains(poly, PlanarPoint(float(x), float(y))) for x, y in pts)
    assert contained == total
    print(
        f"criterion 6: PASS - round-trip <= {worst:.2e} deg, analytic areas exact, "
        f"{contained}/{total} members inside 1000 fuzzed hulls"
    )


def test_criterion_7_byte_identical_sweep(tmp_path):
    """The same manifest run twice produces byte-identical outputs."""
    spec = SyntheticSpec(n_blobs=4, points_per_blob=25, blob_sigma_m=40.0, min_separation_m=1500.0, seed=31)
    crashes = tmp_path / "crashes.csv"
    write_points_csv(generate_blobs(spec), crashes)
    inter_spec = SyntheticSpec(n_blobs=4, points_per_blob=40, blob_sigma_m=50.0, min_separation_m=1500.0, seed=31)
    intersections = tmp_path / "intersections.csv"
    write_points_csv(generate_blobs(inter_spec), intersections)

    outputs = []
    for run in ("a", "b"):
        manifest = RunManifest(
            input_crashes=crashes,
            q_levels=[0.5, 0.9],
            sample_sizes=[50, 100],
            output_dir=tmp_path / run,
            input_intersections=intersections,
            rng_seed=17,
            jitter_scale=1e-6,
            max_iterations=500,
            convergence_window=50,
        )
        run_sweep(manifest)
        names = ["summary.csv"] + [
            f"clusters_q{q:g}_s{k}.geojson" for q in (0.5, 0.9) for k in (50, 100)
        ]
        outputs.append({name: (tmp_path / run / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]
    print(f"criterion 7: PASS - {len(outputs[0])} output files byte-identical across reruns")


def test_criterion_8_assignment_invariants_on_fuzzed_runs():
    """Conservation and self-assignment hold on 1000 fuzzed clusterings."""
    checked = 0
    start = time.perf_counter()
    for case in range(1000):
        rng = np.random.default_rng(20_000 + case)
        n = int(rng.integers(2, 21))
        xy = rng.uniform(-300.0, 300.0, size=(n, 2))
        if case % 9 == 0:
            xy[: n // 2] = xy[0]  # heavy duplicates
        q = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
        result = run_apc(xy, ApcConfig(q=q, max_iterations=300, convergence_window=30))
        assignment = result.assignment
        assert len(assignment) == n
        assert set(assignment.tolist()) <= set(result.exemplars)
        for e in result.exemplars:
            assert assignment[e] == e
        assert np.bincount(assignment, minlength=n)[result.exemplars].sum() == n
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 8: PASS - invariants held on {checked}/1000 fuzzed runs in {elapsed:.0f}s")
    assert checked == 1000


CHILD_SCRIPT = """
import json, resource, sys, time
import numpy as np
from apclust.core import ApcConfig, run_apc
from apclust.geo import planar_to_array, project
from apclust.testkit import BLOB_FRAME_ORIGIN, SyntheticSpec, generate_blobs

spec = SyntheticSpec(n_blobs=50, points_per_blob=100, blob_sigma_m=50.0, min_separation_m=1500.0, seed=99)
xy = planar_to_array(project(generate_blobs(spec), BLOB_FRAME_ORIGIN))
start = time.perf_counter()
result = run_apc(xy, ApcConfig(q=0.5, damping=0.9, convergence_window=100))
elapsed = time.perf_counter() - start
rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
json.dump(
    {
        "n": int(xy.shape[0]),
        "seconds": elapsed,
        "max_rss_gb": rss_gb,
        "clusters": len(result.exemplars),
        "converged": bool(result.converged),
    },
    sys.stdout,
)
"""


def test_criterion_9_performance_envelope_n5000():
    """A full n = 5000 run finishes inside 15 minutes and 1.5 GB resident.

    Measured in a subprocess so ru_maxrss reflects only that run. The child
    imports the package from where this process found it, installed or not.
    """
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        capture_output=True,
        text=True,
        timeout=900,
        env=dict(os.environ, PYTHONPATH=str(Path(apclust.__file__).parent.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    print(
        f"criterion 9: PASS - n={stats['n']} in {stats['seconds']:.0f}s, "
        f"{stats['max_rss_gb']:.2f} GB peak, {stats['clusters']} clusters, "
        f"converged={stats['converged']}"
    )
    assert stats["n"] == 5000
    assert stats["seconds"] < 900.0
    assert stats["max_rss_gb"] < 1.5
    assert stats["converged"]
