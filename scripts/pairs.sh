#!/usr/bin/env bash
# Alternating benchmark pairs against an earlier revision (ROADMAP 23(c)).
# Builds the frozen benchmark from <rev> and from the working tree side by
# side, then runs `benchmark --workload <workload> --seed 1 --seconds 10
# --trace 0` <n> times in each, alternating which tree goes first in each
# pair so that drift on the machine falls on both sides. For every
# end-to-end cell of BENCHMARK.json it prints each side's median, IQR
# (quartiles by linear interpolation), min and max, and how many pairs the
# working tree won (strictly better in the cell's `better` direction).
# Virtual-clock cells repeat exactly for a seed, so they win all pairs or
# none; wall-clock cells (cpu_us_per_op, setup_s, peak_rss_mb, and every
# cell of live_serial) are the ones pairs are for.
# <rev> is exported with `git archive` into target/pairs/base, so no git
# metadata comes along; each tree builds in its own target directory under
# target/pairs/. Every run's last output line is kept in
# target/pairs/out/{base,head}-<i>.json. Exits 1 if a run reports
# `"correct": false`.
# With `trace` as a fourth argument the runs are traced (`--trace 1`) and
# the summary covers the per-layer cells of BENCHMARK.json instead (a
# traced run reports no end-to-end cell); a cell no run reports is skipped.
# A manual tool, not a tier-1 step: two cold builds (~3 min on 2 cores),
# then a few seconds per run (a live_serial pair took ~7 s on a 2-core VM).
# Usage: scripts/pairs.sh <rev> <workload> <n> [trace]
#   e.g. scripts/pairs.sh HEAD~ failover 10; scripts/pairs.sh HEAD~ live_serial 5 trace
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

if [[ $# -lt 3 || $# -gt 4 || ($# -eq 4 && $4 != trace) ]]; then
  echo "usage: scripts/pairs.sh <rev> <workload> <n> [trace]"
  exit 2
fi
rev=$1 workload=$2 n=$3 trace=0
[[ $# -eq 4 ]] && trace=1
head=$PWD
work=$head/target/pairs
base=$work/base
out=$work/out

rm -rf "$base" "$out"
mkdir -p "$base" "$out"
git archive "$rev" | tar -x -C "$base"

for side in base head; do
  tree=$base
  [[ $side == head ]] && tree=$head
  echo "==> building $side"
  CARGO_TARGET_DIR=$work/target-$side cargo build --release --offline --locked --quiet \
    --manifest-path "$tree/crates/bench/src/bin/benchmark/Cargo.toml"
done

bench() { # side pair
  (cd "$out" && "$work/target-$1/release/benchmark" --workload "$workload" --seed 1 \
    --seconds 10 --trace "$trace" 2>/dev/null | tail -n 1 >"$1-$2.json")
}
for ((i = 1; i <= n; i++)); do
  echo "==> pair $i of $n"
  if ((i % 2)); then
    bench base "$i" && bench head "$i"
  else
    bench head "$i" && bench base "$i"
  fi
done

if grep -l '"correct": false' "$out"/*.json; then
  echo "pairs: a run above reports \"correct\": false"
  exit 1
fi

# `name better` for each end-to-end cell (traced: each per-layer cell), in
# BENCHMARK.json's order.
cells=$(awk -v trace="$trace" '
  /"end_to_end"/ { inside = !trace }
  /"per_layer"/ { inside = trace }
  inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  inside && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json)

value() { # file cell
  sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p" "$1"
}
# median q1 q3 min max of the numbers on stdin.
summary() {
  sort -g | awk '
    { v[NR] = $1 }
    function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END { v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75), v[1], v[NR] }'
}

echo "pairs: $workload, $n pairs, working tree against $rev$( ((trace)) && echo ", traced")"
w=16
((trace)) && w=38 # the longest per-layer name
printf "%-${w}s %-6s  %-44s  %-44s  %s\n" cell better \
  "$rev: median [IQR] (min-max)" "head: median [IQR] (min-max)" "head wins"
while read -r cell better; do
  [[ -z $(cat "$out"/*.json | value /dev/stdin "$cell") ]] && continue
  wins=0
  for ((i = 1; i <= n; i++)); do
    b=$(value "$out/base-$i.json" "$cell")
    h=$(value "$out/head-$i.json" "$cell")
    if awk -v b="$b" -v h="$h" -v up="$better" \
      'BEGIN { exit !(up == "higher" ? h > b : h < b) }'; then
      wins=$((wins + 1))
    fi
  done
  row=""
  for side in base head; do
    read -r med q1 q3 lo hi < <(for ((i = 1; i <= n; i++)); do
      value "$out/$side-$i.json" "$cell"
    done | summary)
    row+=$(printf '%-44s  ' "$med [$q1-$q3] ($lo-$hi)")
  done
  printf "%-${w}s %-6s  %s%d/%d\n" "$cell" "$better" "$row" "$wins" "$n"
done <<<"$cells"
