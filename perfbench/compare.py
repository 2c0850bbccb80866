#!/usr/bin/env python3
"""Compare two sets of perfbench runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes (<workload>-seed<N>-trace<T>.json,
by default in .bench_out; pass --out to run.py to keep sets apart).

* A simulated or count metric ("kind": "sim") is deterministic for a seed.
  For every (workload, seed, trace) present in both sets it must match
  exactly; any difference is reported as a BEHAVIOUR CHANGE.
* A host-time metric ("kind": "host") is noise-prone. It is reported per
  workload with the median and quartiles of each set, and the change of the
  median as a share of the base median. For an end_to_end metric of
  BENCHMARK.json, a change worse than its bound is a REGRESSION, or
  unresolved when the base set's own quartile spread is wider than the bound.

Exits 1 if any behaviour change or regression was found, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    records = {}
    for path in glob.glob(os.path.join(directory, "*-seed*-trace*.json")):
        if os.path.basename(path).startswith("spans-"):
            continue
        with open(path) as f:
            r = json.load(f)
        records[(r["workload"], r["seed"], r["trace"])] = r
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0

    print("== simulated and count metrics (exact per seed) ==")
    for key in sorted(set(base) & set(new)):
        b, n = base[key]["metrics"], new[key]["metrics"]
        changed = [name for name in sorted(set(b) | set(n))
                   if (b.get(name) or n.get(name))["kind"] == "sim"
                   and (name not in b or name not in n or b[name]["value"] != n[name]["value"])]
        if changed:
            bad += 1
            print(f"BEHAVIOUR CHANGE {key[0]} seed={key[1]} trace={key[2]}:")
            for name in changed:
                bv = b[name]["value"] if name in b else "absent"
                nv = n[name]["value"] if name in n else "absent"
                print(f"    {name}: {bv} -> {nv}")
    unmatched = sorted(set(base) ^ set(new))
    print(f"{len(set(base) & set(new))} (workload, seed, trace) pairs compared; "
          f"{len(unmatched)} present in one set only")

    print("\n== host metrics: median [q1, q3] per set ==")
    for workload, trace in sorted({(k[0], k[2]) for k in base} & {(k[0], k[2]) for k in new}):
        print(f"-- {workload} trace={trace}")
        names = sorted({name for k, r in base.items() if (k[0], k[2]) == (workload, trace)
                        for name, m in r["metrics"].items() if m["kind"] == "host"})
        for name in names:
            bv = [r["metrics"][name]["value"] for k, r in base.items()
                  if (k[0], k[2]) == (workload, trace) and name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for k, r in new.items()
                  if (k[0], k[2]) == (workload, trace) and name in r["metrics"]]
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change > 0 if better.get(name, "lower") == "lower" else change < 0
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            verdict = ""
            if name in e2e and worse and abs(change) > e2e[name]["bound"]:
                if spread > e2e[name]["bound"]:
                    verdict = "unresolved (base spread wider than the bound)"
                else:
                    verdict = "REGRESSION"
                    bad += 1
            elif worse and abs(change) <= spread:
                verdict = "within the base spread"
            print(f"    {name:30s} {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] -> "
                  f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {change:+.1%} {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
