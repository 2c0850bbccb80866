#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json:
  * two runs of the default seed give equal digests, and a second seed gives
    a different digest (the simulated results repeat, and the inputs really
    come from --seed);
  * traced runs on the default seed and on a held-out seed report no errors
    (which includes the serial-driver digest check of the cluster workloads)
    and no shape-guard failure, so each workload keeps exercising the layers
    it was chosen for.
Runs are short; their records go to .bench_out/selftest. Exits 1 on any
failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")
DEFAULT_SEED = 1
OTHER_SEED = 2
HELD_OUT_SEED = 90001


def run(workload, seed, trace, tag):
    out = os.path.join(OUT, tag)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True)
    path = os.path.join(out, f"{workload}-seed{seed}-trace{trace}.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return None, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(path) as f:
        return json.load(f), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for w in workloads:
        first, log1 = run(w, DEFAULT_SEED, 0, "first")
        second, log2 = run(w, DEFAULT_SEED, 0, "second")
        other, log3 = run(w, OTHER_SEED, 0, "first")
        if first is None or second is None or other is None:
            failures.append(f"{w}: untraced run failed\n{log1}{log2}{log3}")
            continue
        if first["digest"] != second["digest"]:
            failures.append(f"{w}: seed {DEFAULT_SEED} gave digests {first['digest']} "
                            f"and {second['digest']}")
        if first["digest"] == other["digest"]:
            failures.append(f"{w}: seeds {DEFAULT_SEED} and {OTHER_SEED} gave one digest")
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            traced, log = run(w, seed, 1, "traced")
            if traced is None:
                failures.append(f"{w}: traced run on seed {seed} failed\n{log}")
                continue
            if traced["shape_failures"]:
                failures.append(f"{w}: seed {seed} shape: {traced['shape_failures']}")
            if seed == DEFAULT_SEED and traced["digest"] != first["digest"]:
                failures.append(f"{w}: traced digest differs from the untraced one")
        print(f"{w}: checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
