#!/usr/bin/env python3
"""Build the benchmark and run one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out DIR]

Builds perfbench/ (the repo's src/ libraries plus the driver, Release with
NDEBUG) into .bench_build/perfbench, runs the driver from the repo root,
keeps its full record in DIR (default .bench_out) as
<workload>-seed<N>-trace<T>.json, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics: the end_to_end
metrics of BENCHMARK.json with --trace 0, its per_layer metrics with
--trace 1. A traced run also writes its spans to DIR. Exits non-zero without
that line if the build or the run fails, and non-zero after it if any
output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")

    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        sys.exit(f"run.py: build failed: {e}")

    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(args.out, f"spans-{stem}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
        else:
            print(line)
    if record is None:
        sys.exit(f"run.py: the driver exited with {proc.returncode} and no record")
    with open(os.path.join(args.out, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"run.py: metric {m['name']} ({m['unit']}) missing from the record")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = proc.returncode == 0 and record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
