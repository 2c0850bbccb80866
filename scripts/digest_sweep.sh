#!/usr/bin/env bash
# Bit-exact check of a change against its parent.
#
#   scripts/digest_sweep.sh PARENT_DIR CHANGE_DIR
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository. For each
# one the script
#   1. runs every perfbench workload at seeds 1, 3 and 5, untraced and
#      traced, through the checkout's own perfbench/run.py (2 s runs), and
#      keeps each run's digest;
#   2. builds the checkout's examples and paper benches (Release, in a
#      temporary directory) and keeps the stdout and exit code of each.
# It then requires every digest to be equal on both sides, and every stdout
# to be equal once host-time columns are masked: google-benchmark's Time,
# CPU and Iterations columns and its *_per_second counters,
# cluster_scaling's parallel_ms/serial_ms/speedup, migration_failover's
# "chkpt host ns" and sec53_signal's "teardown host ns". Not compared:
# microbench_host (it prints only host time), sec51_code_size (it counts the
# source tree, which a change moves on purpose), and the trace checkers
# (they take a trace file). A binary present on one side only is listed.
#
# Prints every mismatch (a diff for stdout) and exits 1 if there was any,
# 0 otherwise. Writes nothing inside either checkout except what run.py
# builds there.

set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/digest_sweep.sh PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mismatches=0

# digests DIR LABEL: one "workload seed trace digest" line per run.
digests() {
  local dir=$1 label=$2 workloads
  workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in
    json.load(open(sys.argv[1]))["workloads"]))' "$dir/BENCHMARK.json")
  for workload in $workloads; do
    for seed in 1 3 5; do
      for traced in 0 1; do
        local rec="$out/$label-runs"
        (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 2 --trace "$traced" --out "$rec" >/dev/null 2>"$rec.log") || {
          echo "digest_sweep: $label $workload seed $seed trace $traced failed:" >&2
          tail -5 "$rec.log" >&2
          echo "$workload $seed $traced FAILED"
          continue
        }
        python3 -c 'import json,sys; print(*sys.argv[2:], json.load(open(sys.argv[1]))["digest"])' \
          "$rec/$workload-seed$seed-trace$traced.json" "$workload" "$seed" "$traced"
      done
    done
  done
}

# mask NAME: host-time columns of binary NAME's stdout replaced by "#".
mask() {
  case $1 in
    migration_failover) awk 'NF == 8 && $1 ~ /^[0-9]+$/ { $8 = "#" } { print }' ;;
    sec53_signal) awk 'NF == 4 && $1 ~ /^[0-9]+$/ && $2 ~ /^[0-9]+$/ { $3 = "#" } { print }' ;;
    *) sed -E -e '/^BM_/ s/^(BM_[^ ]+) +[0-9.]+ [mun]?s +[0-9.]+ [mun]?s +[0-9]+/\1 # # #/' \
              -e 's/[a-z_]+_per_second=[^ ]+/#/g' \
              -e '/^BM_ClusterScaling/ s/(parallel_ms|serial_ms|speedup)=[^ ]+/\1=#/g' ;;
  esac
}

# outputs DIR LABEL: build the examples and paper benches, keep masked stdout.
outputs() {
  local dir=$1 label=$2
  local build="$out/build-$label" targets=() name
  for src in "$dir"/examples/*.cc "$dir"/bench/*.cc; do
    name=$(basename "$src" .cc)
    case $name in
      microbench_host | sec51_code_size | trace_check | cluster_trace_check) ;;
      *) targets+=("$name") ;;
    esac
  done
  cmake -S "$dir" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build" -j "$jobs" --target "${targets[@]}" >"$out/build-$label.log" 2>&1 || {
    echo "digest_sweep: $label build failed; see below" >&2
    tail -20 "$out/build-$label.log" >&2
    exit 1
  }
  mkdir -p "$out/stdout-$label"
  for name in "${targets[@]}"; do
    local bin="$build/bench/$name" code=0
    [ -x "$bin" ] || bin="$build/examples/$name"
    "$bin" 2>/dev/null | mask "$name" >"$out/stdout-$label/$name.txt" || code=$?
    echo "exit $code" >>"$out/stdout-$label/$name.txt"
  done
}

echo "digest_sweep: perfbench digests (seeds 1 3 5, untraced and traced)"
digests "$parent" parent >"$out/digests-parent"
digests "$change" change >"$out/digests-change"
if ! diff -u "$out/digests-parent" "$out/digests-change"; then
  echo "digest_sweep: MISMATCH in perfbench digests"
  mismatches=$((mismatches + 1))
fi
if grep -q FAILED "$out/digests-parent" "$out/digests-change"; then
  mismatches=$((mismatches + 1))
fi
echo "  $(wc -l <"$out/digests-change") runs per side"

echo "digest_sweep: example and paper-bench stdout (host-time columns masked)"
outputs "$parent" parent
outputs "$change" change
compared=0
for file in "$out"/stdout-change/*.txt "$out"/stdout-parent/*.txt; do
  name=$(basename "$file")
  other="$out/stdout-parent/$name"
  if [[ $file == "$out"/stdout-parent/* ]]; then
    [ -e "$out/stdout-change/$name" ] || echo "  only in parent: ${name%.txt}"
    continue
  fi
  if [ ! -e "$other" ]; then
    echo "  only in change: ${name%.txt}"
    continue
  fi
  compared=$((compared + 1))
  if ! diff -u --label "parent/${name%.txt}" --label "change/${name%.txt}" "$other" "$file"; then
    echo "digest_sweep: MISMATCH in ${name%.txt} stdout"
    mismatches=$((mismatches + 1))
  fi
done
echo "  $compared binaries compared"

if [ "$mismatches" -ne 0 ]; then
  echo "digest_sweep: $mismatches mismatch(es)"
  exit 1
fi
echo "digest_sweep: identical"
