"""Record the output digests that benchmark runs compare against.

Usage (from the repository root, at a commit whose outputs are trusted):

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs the ``high_degree`` and ``session`` batches for every seed in
``SEEDS`` at full size, refuses to record a batch with any output that fails
its exact identity check, and rewrites ``expected.json``.
"""

from __future__ import annotations

import json
import os

import workloads

SEEDS = range(1, 11)
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def main():
    table = {}
    for workload in ("high_degree", "session"):
        entries = table[f"{workload}:full"] = {}
        for seed in SEEDS:
            ops = workloads.make_inputs(workload, seed)
            outputs, _, errors = workloads.run_batch(workload, ops)
            failed = set(errors) | workloads.check_batch(workload, ops, outputs)
            if failed:
                raise SystemExit(f"{workload} seed {seed}: operations {sorted(failed)[:10]} fail")
            entries[str(seed)] = workloads.digests(workload, outputs)
            print(f"{workload} seed {seed}: {len(ops)} outputs recorded", flush=True)
    with open(PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
