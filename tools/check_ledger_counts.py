#!/usr/bin/env python3
"""Checks perfbench's per-layer work counters against pinned values.

    python3 tools/check_ledger_counts.py

Run from the root of a checkout. For every workload in
tools/testdata/perfbench_ledger_counts.json it runs

    python3 perfbench/run.py --workload W --seed 1 --size small \
        --seconds 2 --trace 1

and requires each pinned metric to equal its pinned value exactly. The
pinned metrics count work, not time: candidates the batch provider path
returns, filter probes and kept elements, volumes, training pairs and
the engine's contacts, validations, elements, packets and bytes. They
repeat exactly from run to run, so any difference means a layer changed
what it computes. sim.pool_handoffs is not pinned: it depends on thread
scheduling. Exits 0 when every value matches, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tools" / "testdata" / "perfbench_ledger_counts.json"


def run_traced(workload):
    """One traced small seed-1 run; returns its metrics, or None."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--size", "small",
         "--seconds", "2", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    pins = json.loads(PINS.read_text())
    mismatches = 0
    for workload, pinned in pins.items():
        metrics = run_traced(workload)
        if metrics is None:
            print(f"{workload}: perfbench run failed")
            mismatches += 1
            continue
        for name, value in pinned.items():
            measured = metrics.get(name, {}).get("value")
            status = "ok" if measured == value else "DIFFERS"
            if measured != value:
                mismatches += 1
            print(f"{workload:12s} {name:34s} pinned {value!r:>22} "
                  f"measured {measured!r:>22} {status}")
    if mismatches:
        print(f"{mismatches} ledger counter(s) differ from {PINS.name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
