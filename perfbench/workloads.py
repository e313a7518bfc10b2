"""The benchmark's workloads: seeded input corpora and the command line each runs.

Inputs are made with apclust.testkit.generate_blobs from the workload seed
and written once per (workload, seed, input set) as lat/lon CSV files; the
program under test receives only those files. An untraced run gives each
call its own input set, so one run averages over several corpora: the
iterations to convergence, and with them the wall time, vary from corpus
to corpus. Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Corpus:
    """A testkit.SyntheticSpec without its seed."""

    n_blobs: int
    points_per_blob: int
    sigma_m: float
    separation_m: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "cluster" (one cell) or "sweep" (a grid of cells)
    crashes: Corpus
    inventory: Corpus
    q: tuple[float, ...]
    samples: tuple[int, ...]
    threads: int
    extra_args: tuple[str, ...] = ()

    @property
    def tag(self) -> str:
        """Short digest of the definition, so that cached inputs and records follow edits to it."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:12]

    @property
    def cells(self) -> list[tuple[float, int]]:
        return [(q, k) for q in self.q for k in self.samples]

    def argv(self, crashes: Path, inventory: Path, out: Path, seed: int) -> list[str]:
        args = [self.command, "--input", str(crashes), "--intersections", str(inventory)]
        if self.command == "cluster":
            args += ["--q", f"{self.q[0]:g}", "--sample", str(self.samples[0])]
        else:
            args += ["--q", ",".join(f"{q:g}" for q in self.q)]
            args += ["--samples", ",".join(str(k) for k in self.samples)]
        return args + ["--seed", str(seed), "--out", str(out), *self.extra_args]


# 6,000 crashes in 40 blobs over a 60k-point intersection inventory.
_CITY = Corpus(n_blobs=40, points_per_blob=150, sigma_m=250.0, separation_m=1500.0)
_CITY_INVENTORY = Corpus(n_blobs=60, points_per_blob=1000, sigma_m=700.0, separation_m=1000.0)

WORKLOADS = {
    w.name: w
    for w in [
        Workload("cell", "cluster", _CITY, _CITY_INVENTORY, q=(0.5,), samples=(2000,), threads=1),
        Workload(
            "sweep",
            "sweep",
            _CITY,
            _CITY_INVENTORY,
            q=(0.1, 0.5, 0.9),
            samples=(600, 1200),
            threads=2,
            extra_args=("--jitter-scale", "1e-6", "--thresholds", "derive"),
        ),
        Workload(
            "inventory",
            "sweep",
            Corpus(n_blobs=40, points_per_blob=2500, sigma_m=250.0, separation_m=1500.0),
            Corpus(n_blobs=100, points_per_blob=2000, sigma_m=700.0, separation_m=1000.0),
            q=(0.0, 0.05, 0.1, 0.2),
            samples=(300,),
            threads=1,
            extra_args=("--thresholds", "derive"),
        ),
    ]
}


def input_seeds(workload: Workload, seed: int, input_set: int) -> tuple[int, int, int]:
    """Seeds of the crash corpus, the inventory and the command's --seed for one input set."""
    index = list(WORKLOADS).index(workload.name)
    crashes, inventory, cli = np.random.SeedSequence([seed, index, input_set]).generate_state(3)
    return int(crashes), int(inventory), int(cli)


def ensure_inputs(workload: Workload, seed: int, input_set: int, cache_dir: Path) -> tuple[Path, Path]:
    """Write the two CSV files of one input set unless they already exist."""
    from apclust.testkit import SyntheticSpec, generate_blobs, write_points_csv

    cache_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for role, corpus, corpus_seed in zip(
        ("crashes", "inventory"), (workload.crashes, workload.inventory), input_seeds(workload, seed, input_set)
    ):
        path = cache_dir / f"{workload.name}-{workload.tag}-{seed}-{input_set}-{role}.csv"
        if not path.exists():
            spec = SyntheticSpec(
                n_blobs=corpus.n_blobs,
                points_per_blob=corpus.points_per_blob,
                blob_sigma_m=corpus.sigma_m,
                min_separation_m=corpus.separation_m,
                seed=corpus_seed,
            )
            partial = path.with_suffix(f".{os.getpid()}.tmp")
            write_points_csv(generate_blobs(spec), partial)
            os.replace(partial, path)
        paths.append(path)
    return paths[0], paths[1]
