#!/usr/bin/env bash
# Byte-identity against an earlier revision, for changes that must not move
# a seeded schedule. Builds <rev> and the working tree side by side and
# diffs what such a change has to leave untouched:
#   - the full nemesis sweep, `nemesis` with no arguments (every column of
#     each tree's own bin/nemesis.rs COLUMNS over its own seeds): exit
#     status, stdout, stderr and every trace dump (.jsonl) it wrote;
#   - the benchmark at `--seed 7 --seconds 10 --trace 1` on read_mostly,
#     write_contended, write_leader and failover: every cell except the
#     wall-clock ones (WALL_CLOCK below);
#   - the explorer tests' distinct-state, schedule and checked-schedule
#     counts (`explore:` lines; a tree whose tests print none has nothing
#     to compare there, and the script says so);
#   - every `experiments all` table: exit status, stdout and stderr (~5 s
#     a tree);
#   - the seed ranges EXPERIMENTS.md reports beyond `all`: E8 churn seeds
#     31-50 (`experiments partial_writes 9 30 s`) and E13 seeds 41-60
#     (`experiments safety_ablation 9 40 s`): output and exit status per
#     seed.
# <rev> is exported with `git archive` into target/parity/base, so no git
# metadata comes along; each tree builds in its own target directory under
# target/parity/. Outputs land in target/parity/out/{base,head}.
# A manual tool, not a tier-1 step: ~15 min cold on 2 cores, less when the
# target directories are warm.
# Usage: scripts/parity.sh <rev>   e.g. scripts/parity.sh HEAD~
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/parity.sh <rev>"
  exit 2
fi
rev=$1
head=$PWD
work=$head/target/parity
base=$work/base

# Benchmark cells measured on the wall clock: they differ run to run.
WALL_CLOCK='_ns|step_share|step_growth|request_self_share|overhead_pct'
WALL_CLOCK+='|events_per_cpu_s|check_ms_per_kop|cpu_us_per_op|peak_rss_mb'
WALL_CLOCK+='|setup_s|"host\.'
WORKLOADS=(read_mostly write_contended write_leader failover)
# Reported seed ranges: experiment, its leading arguments, first and last seed.
SEED_RANGES=("partial_writes 9 30 31 50" "safety_ablation 9 40 41 60")

rm -rf "$base" "$work/out" "$work/raw"
mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"

build() { # name tree
  echo "==> building $1"
  export CARGO_TARGET_DIR=$work/target-$1
  cargo build --release --offline --locked --quiet --manifest-path "$2/Cargo.toml" \
    -p coterie-harness --bin nemesis --bin experiments
  cargo build --release --offline --locked --quiet \
    --manifest-path "$2/crates/bench/src/bin/benchmark/Cargo.toml"
  cargo test --release --offline --locked --quiet --no-run --manifest-path "$2/Cargo.toml" \
    -p coterie-harness --test explore --test features 2>/dev/null
  unset CARGO_TARGET_DIR
}

run() { # name tree
  local bin=$work/target-$1/release out=$work/out/$1 raw=$work/raw/$1
  mkdir -p "$out" "$raw"
  echo "==> $1: nemesis (the full sweep)"
  # Trace dumps go to target/ under the working directory.
  local dir=$out/nemesis status=0
  mkdir -p "$dir/target"
  (cd "$dir" && "$bin/nemesis" >stdout 2>stderr) || status=$?
  echo "$status" >"$dir/status"
  for w in "${WORKLOADS[@]}"; do
    echo "==> $1: benchmark $w"
    (cd "$raw" && "$bin/benchmark" --workload "$w" --seed 7 --seconds 10 --trace 1 \
      >"$w.json" 2>"$w.err")
    # One JSON field per line, wall-clock cells dropped.
    tr ',' '\n' <"$raw/$w.json" | grep -Ev "$WALL_CLOCK" >"$out/bench-$w.cells" || true
  done
  echo "==> $1: experiments all"
  status=0
  "$bin/experiments" all >"$out/experiments.stdout" 2>"$out/experiments.stderr" || status=$?
  echo "$status" >"$out/experiments.status"
  for range in "${SEED_RANGES[@]}"; do
    read -r name n secs first last <<<"$range"
    echo "==> $1: $name $n $secs, seeds $first-$last"
    for ((seed = first; seed <= last; seed++)); do
      status=0
      "$bin/experiments" "$name" "$n" "$secs" "$seed" || status=$?
      echo "seed $seed status $status"
    done >"$out/$name-seeds.stdout" 2>&1
  done
  echo "==> $1: explorer tests"
  CARGO_TARGET_DIR=$work/target-$1 cargo test --release --offline --locked --quiet \
    --manifest-path "$2/Cargo.toml" -p coterie-harness --test explore --test features \
    -- --nocapture --test-threads 1 2>/dev/null | grep -o 'explore: .*' | sort \
    >"$out/explore.counts" || true
}

build base "$base"
build head "$head"
run base "$base"
run head "$head"

if [[ ! -s $work/out/base/explore.counts ]]; then
  echo "parity: $rev's explorer tests print no counts; nothing to compare there"
  rm -f "$work/out/base/explore.counts" "$work/out/head/explore.counts"
fi
if diff -r "$work/out/base" "$work/out/head"; then
  echo "parity: byte-identical to $rev ($(find "$work/out/head" -type f | wc -l) files)"
else
  echo "parity: differs from $rev (outputs in $work/out)"
  exit 1
fi
