#!/usr/bin/env bash
# Paired parent/change timing of one perfbench workload.
#
#   scripts/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N [SECONDS]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository. Each
# side's benchmark runs through its own perfbench/run.py (which builds it on
# first use), untraced, N times, alternating which side goes first in each
# pair, pinned with taskset to the highest-numbered CPU this process may use.
# SECONDS defaults to run_seconds in CHANGE_DIR/BENCHMARK.json; both sides
# always run for the same length.
#
# Prints every pair, then each side's wall_s median and quartiles, the
# change's win count (ties count for neither), whether the median gap
# exceeds the parent's interquartile range, and each side's run digests;
# then one "json:" line with the raw runs, for a BENCH_*.json record.
# A gain holds only with wins >= 9/10 of the pairs, a gap above the
# parent's IQR and identical digests. Writes nothing inside either
# checkout except what run.py itself builds and records there.

set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  echo "usage: scripts/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N [SECONDS]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
seconds=${6:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$change/BENCHMARK.json")}

core=$(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' | sed 's/.*-//' | sort -n | tail -1)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run_side DIR LABEL PAIR: one untraced run; appends "LABEL PAIR wall_s digest".
run_side() {
  local dir=$1 label=$2 pair=$3
  local rec_dir="$out/$label-$pair"
  (cd "$dir" && taskset -c "$core" python3 perfbench/run.py --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --trace 0 --out "$rec_dir" >/dev/null 2>"$rec_dir.log") || {
    echo "perf_pairs: $label run $pair failed; see below" >&2
    cat "$rec_dir.log" >&2
    exit 1
  }
  python3 - "$rec_dir/$workload-seed$seed-trace0.json" "$label" "$pair" >>"$out/runs" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
print(sys.argv[2], sys.argv[3], repr(r["metrics"]["wall_s"]["value"]), r["digest"])
EOF
}

echo "perf_pairs: $workload seed $seed, $pairs pairs of ${seconds}s runs on CPU $core"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run_side "$parent" parent "$i"
    run_side "$change" change "$i"
  else
    run_side "$change" change "$i"
    run_side "$parent" parent "$i"
  fi
  grep " $i " "$out/runs" | tr '\n' ' '
  echo
done

python3 - "$out/runs" <<'EOF'
import json, statistics, sys
runs = {"parent": {}, "change": {}}
digests = {"parent": set(), "change": set()}
for line in open(sys.argv[1]):
    label, pair, wall, digest = line.split()
    runs[label][int(pair)] = float(wall)
    digests[label].add(digest)

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3

summary = {}
for label in ("parent", "change"):
    q1, med, q3 = quartiles(sorted(runs[label].values()))
    summary[label] = (q1, med, q3)
    print(f"{label:6s} wall_s median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"digests {' '.join(sorted(digests[label]))}")
pairs = sorted(runs["parent"])
wins = sum(runs["change"][p] < runs["parent"][p] for p in pairs)
losses = sum(runs["change"][p] > runs["parent"][p] for p in pairs)
gap = summary["parent"][1] - summary["change"][1]
iqr = summary["parent"][2] - summary["parent"][0]
print(f"change wins {wins}/{len(pairs)} (losses {losses}); median gap {gap:+.4f} s "
      f"({gap / summary['parent'][1]:+.1%}) vs parent IQR {iqr:.4f} s")
same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
gain = wins * 10 >= 9 * len(pairs) and gap > iqr and same
print("digests identical" if same else "DIGESTS DIFFER")
print("gain holds" if gain else "gain not shown")
print("json:", json.dumps({
    "pairs": len(pairs), "change_won": wins,
    "parent_q1_median_q3_s": [round(v, 5) for v in summary["parent"]],
    "change_q1_median_q3_s": [round(v, 5) for v in summary["change"]],
    "parent_wall_s": [round(runs["parent"][p], 5) for p in pairs],
    "change_wall_s": [round(runs["change"][p], 5) for p in pairs],
    "digests": sorted(digests["parent"] | digests["change"])}))
EOF
