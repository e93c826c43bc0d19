#!/usr/bin/env python3
"""piggyweb benchmark: one workload run, one JSON result.

    python3 perfbench/run.py --workload dir_server --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script builds the perfbench binary
(perfbench/CMakeLists.txt, into .bench_build/), generates the workload's
input from --seed unless it is already cached under
.bench_build/inputs/<workload>-<size>-seed<N>-<binary hash>/, and runs it.
The binary hash covers everything that writes an input (the generator and
writers in src/trace as well as perfbench.cc), so a change to any of them
regenerates the input. It prints every metric by name with its unit, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger (and writes its spans to .bench_build/spans/).

attempted/failed count output checks: descriptor guards, digest equality
across repetitions, t1 vs t4 and traced vs untraced, and the digest pinned
in perfbench/pinned.json for (workload, size, seed) where one is pinned.
error_rate = failed / attempted. Any failed check makes the exit code 1.

Input generation is harness time and never part of a metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
PINS = BENCH_DIR / "pinned.json"
WORKLOADS = ("dir_server", "prob_server", "engine_tree")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets cmake decide what is out of date."""
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log in {log_path})")


def ensure_inputs(workload, size, seed):
    """Generates the input once per (workload, size, seed) and build of the
    binary that generates it; returns its directory and the generation time
    (0 on a cache hit)."""
    generator = hashlib.sha1(BINARY.read_bytes())
    directory = (BUILD_DIR / "inputs" /
                 f"{workload}-{size}-seed{seed}-{generator.hexdigest()[:10]}")
    if (directory / "descriptor.json").exists():
        return directory, 0.0
    start = time.monotonic()
    proc = subprocess.run(
        [str(BINARY), "gen", f"--workload={workload}", f"--seed={seed}",
         f"--size={size}", f"--dir={directory}"],
        stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"input generation failed for {workload}")
    return directory, time.monotonic() - start


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is the reduced input of the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no piggyweb sources under {ROOT}; run from a full checkout", 2)
    build()
    inputs, generate_s = ensure_inputs(args.workload, args.size, args.seed)

    command = [str(BINARY), "run", f"--workload={args.workload}",
               f"--seed={args.seed}", f"--size={args.size}",
               f"--dir={inputs}", f"--seconds={args.seconds}",
               f"--trace={args.trace}"]
    if args.trace:
        spans = BUILD_DIR / "spans" / f"{args.workload}-{args.size}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        command.append(f"--spans={spans}")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"perfbench exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = result["checks"]
    attempted, failures = checks["attempted"], list(checks["failures"])
    pin_key = f"{args.workload}/{args.size}/seed{args.seed}"
    pins = json.loads(PINS.read_text())
    if pin_key in pins:
        attempted += 1
        if pins[pin_key] != result["digest"]:
            failures.append(f"digest {result['digest']} != pinned "
                            f"{pins[pin_key]} for {pin_key}")

    metrics = {}
    for name, unit in expected_metrics(args.trace).items():
        attempted += 1
        measured = result["metrics"].get(name)
        if measured is None or measured["unit"] != unit:
            failures.append(f"metric {name} ({unit}) missing")
            continue
        metrics[name] = measured

    failed = len(failures)
    print(f"workload {args.workload} (size {args.size}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}), digest "
          f"{result['digest']}, input {result['descriptor']}")
    print(f"harness: input generation {generate_s:.3f} s "
          f"({'cache hit' if generate_s == 0 else 'generated'})")
    for name, measured in metrics.items():
        print(f"  {name:34s} {measured['value']:>16.6g} {measured['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} output checks failed)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
