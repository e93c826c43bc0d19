#!/usr/bin/env python3
"""Self-test of the benchmark on reduced inputs (--size small).

    python3 perfbench/test_bench.py

Runs every workload untraced and traced and checks that each metric named
in BENCHMARK.json prints with its unit and that every output check passes;
then corrupts a pinned digest and checks that error_rate rises and the
command exits non-zero; then checks that a directory holding only
BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_copy(name):
    """A fresh directory holding only BENCHMARK.json and perfbench/."""
    copy = ROOT / ".bench_test" / name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    shutil.copytree(ROOT / "perfbench", copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, trace):
        listed = SPEC["per_layer" if trace else "end_to_end"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = run_bench(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in listed})
                for metric in listed:
                    measured = result["metrics"][metric["name"]]
                    self.assertEqual(measured["unit"], metric["unit"])
                    self.assertIsInstance(measured["value"], (int, float))
                    # The human-readable table names it with its unit too.
                    self.assertRegex(
                        proc.stdout,
                        rf"\n\s+{metric['name']}\s+\S+ {metric['unit']}\n")
                self.assertRegex(proc.stdout, r"error_rate\s+0 ratio")

    def test_end_to_end_metrics(self):
        self.check_metrics(trace=0)

    def test_per_layer_metrics(self):
        self.check_metrics(trace=1)

    def test_corrupted_pin_fails(self):
        # A copy of the benchmark whose pins are all wrong. It shares this
        # checkout's sources and build tree (built here first), so the copy
        # rebuilds nothing.
        run.build()
        copy = bench_copy("corrupted")
        (copy / "src").symlink_to(ROOT / "src")
        (copy / ".bench_build").symlink_to(run.BUILD_DIR)
        (copy / "perfbench" / "pinned.json").write_text(json.dumps(
            {f"{w}/small/seed{SEED}": "0000000000000000" for w in WORKLOADS}))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0, cwd=copy,
                                 script=copy / "perfbench" / "run.py")
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertRegex(proc.stdout, r"error_rate\s+0\.\d+ ratio")
        shutil.rmtree(copy)

    def test_bare_directory_fails(self):
        bare = bench_copy("bare")
        proc = run_bench(WORKLOADS[0], 0, cwd=bare,
                         script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
