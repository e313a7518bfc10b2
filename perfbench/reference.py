"""Promote the output digests recorded by run.py into perfbench/reference_digests.json.

Usage:
    python3 perfbench/run.py ...        # any runs of the current code, as many seeds as wanted
    python3 perfbench/reference.py      # then record their digests as the reference

run.py records the sha256 of every checked call's outputs in
.bench_build/perfbench/records.json, keyed by workload definition, seed,
input set and source digest. This script copies the entries of the
current source tree and workload definitions into the reference file that
run.py compares every later call against. summary.csv and the GeoJSON files
are meant to stay byte-stable, so the reference changes only when a change
to the program is meant to change them.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    code = run.src_digest()
    records = run.load_json(run.WORK / "records.json")
    digests = run.load_json(run.REFERENCE_DIGESTS)
    added = 0
    for name, workload in run.WORKLOADS.items():
        for key, record in records.items():
            w_name, tag, seed, input_set, key_code = key.split(":")
            if (w_name, tag, key_code) == (name, workload.tag, code) and "digest" in record:
                digests.setdefault(name, {})[f"{seed}/{input_set}"] = record["digest"]
                added += 1
    run.save_json(run.REFERENCE_DIGESTS, digests)
    print(f"recorded {added} digests in {run.REFERENCE_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
