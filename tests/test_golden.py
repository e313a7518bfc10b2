"""Golden digests of the files and results a run produces, pinned byte for byte.

The digests were recorded with numpy 2.4.6 on Python 3.11. A change meant
to alter outputs updates them and says so in CHANGES.md; any other change
must leave them as they are.
"""

from __future__ import annotations

import hashlib

from apclust import pipeline
from apclust.cli import main
from apclust.core import ApcConfig, run_apc
from apclust.geo import planar_to_array, project
from apclust.testkit import BLOB_FRAME_ORIGIN, SyntheticSpec, generate_blobs, write_points_csv

CRASHES = SyntheticSpec(n_blobs=4, points_per_blob=30, blob_sigma_m=60.0, min_separation_m=1500.0, seed=16)
# Same seed and blob count, so the inventory shares the crash blob centers.
INTERSECTIONS = SyntheticSpec(n_blobs=4, points_per_blob=80, blob_sigma_m=50.0, min_separation_m=1500.0, seed=16)
# n = 700 puts the kernel over 4 row blocks of 187 rows.
KERNEL = SyntheticSpec(n_blobs=7, points_per_blob=100, blob_sigma_m=80.0, min_separation_m=1500.0, seed=16)

CLUSTER_DIGESTS = {
    "clusters_q0.5_s120.geojson": "84b1d03e955b079b3e66173b61c7c73aee96893ab0e86f252703e7e2f49ba988",
    "summary.csv": "a803d66aaad807e5ff9f0f81ab7c331d74bc8789db0c3966da05982d9001f33b",
}
SWEEP_DIGESTS = {
    "clusters_q0.1_s40.geojson": "98de68181308556bb22a7724353a1bf523e96346c3f645d0235dac5c6dd676b4",
    "clusters_q0.1_s80.geojson": "f2002a6a455cf60d2c75d3baa7ad8ba8252f0f5a574e8de25f4922de2013a5d3",
    "clusters_q0.9_s40.geojson": "380aa47e66dd754aa24f7f848fd13c628caaf88b3c377588ccc4eed2a34fbf06",
    "clusters_q0.9_s80.geojson": "a49db2ff513fbefbdb6f95e4f3292b17126186d24f9a27508ed01f477f216cc7",
    "summary.csv": "8363def350256096446d5ab10b65200537705ed26adf96e1f30918efa20d9a36",
}
KERNEL_RESULT = ([4, 102, 266, 337, 431, 545, 645], 131, "-0x1.064b339acec6ep+30")


def write_inputs(tmp_path):
    crashes, intersections = tmp_path / "crashes.csv", tmp_path / "intersections.csv"
    write_points_csv(generate_blobs(CRASHES), crashes)
    write_points_csv(generate_blobs(INTERSECTIONS), intersections)
    return ["--input", str(crashes), "--intersections", str(intersections)]


def digests(out) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def cluster_digests(tmp_path) -> dict[str, str]:
    out = tmp_path / "cluster"
    assert main(["cluster", *write_inputs(tmp_path), "--q", "0.5", "--out", str(out)]) == 0
    return digests(out)


def sweep_digests(tmp_path) -> dict[str, str]:
    out = tmp_path / "sweep"
    argv = ["sweep", *write_inputs(tmp_path), "--q", "0.1,0.9", "--samples", "40,80"]
    argv += ["--jitter-scale", "1e-6", "--thresholds", "derive", "--out", str(out)]
    assert main(argv) == 0
    return digests(out)


def kernel_result() -> tuple[list[int], int, str]:
    xy = planar_to_array(project(generate_blobs(KERNEL), BLOB_FRAME_ORIGIN))
    result = run_apc(xy, ApcConfig(q=0.5))
    return result.exemplars, result.iterations_run, result.net_similarity.hex()


def test_cluster_outputs(tmp_path):
    assert cluster_digests(tmp_path) == CLUSTER_DIGESTS


def test_two_thread_sweep_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv(pipeline.THREADS_ENV_VAR, "2")
    assert sweep_digests(tmp_path) == SWEEP_DIGESTS


def test_kernel_result_at_n_700():
    assert kernel_result() == KERNEL_RESULT
