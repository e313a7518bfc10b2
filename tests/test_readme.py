"""The README's library and command-line examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from apclust.cli import main
from apclust.testkit import SyntheticSpec, generate_blobs, write_points_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    spec = SyntheticSpec(n_blobs=3, points_per_blob=10, blob_sigma_m=40.0, min_separation_m=1500.0, seed=3)
    write_points_csv(generate_blobs(spec), tmp_path / "crashes.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(code_block("Library", "python"), str(README), "exec"), {"__name__": "readme_example"})
    n_clusters, median_area, level = capsys.readouterr().out.split()
    assert int(n_clusters) >= 1
    assert float(median_area) > 0
    assert level in ("micro", "meso", "macro")


def test_command_line_example_runs(tmp_path, monkeypatch):
    block = code_block("Command line", "sh")
    heredoc = re.search(r"^python3 - <<'EOF'\n(.*?)^EOF\n", block, re.DOTALL | re.MULTILINE)
    assert heredoc, "no python heredoc in the command-line block"
    monkeypatch.chdir(tmp_path)
    exec(compile(heredoc.group(1), str(README), "exec"), {"__name__": "readme_example"})
    lines = (block[: heredoc.start()] + block[heredoc.end() :]).replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.strip() and not line.startswith("#")]
    assert commands and all(line.startswith("apclust ") for line in commands), commands
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "results" / "summary.csv").exists()
    assert (tmp_path / "sweep" / "summary.csv").exists()
