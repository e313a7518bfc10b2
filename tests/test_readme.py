"""The README's library example runs as written against the package root."""

from __future__ import annotations

import re
from pathlib import Path

from apclust.testkit import SyntheticSpec, generate_blobs, write_points_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    spec = SyntheticSpec(n_blobs=3, points_per_blob=10, blob_sigma_m=40.0, min_separation_m=1500.0, seed=3)
    write_points_csv(generate_blobs(spec), tmp_path / "crashes.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    n_clusters, median_area, level = capsys.readouterr().out.split()
    assert int(n_clusters) >= 1
    assert float(median_area) > 0
    assert level in ("micro", "meso", "macro")
