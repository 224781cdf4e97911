#!/usr/bin/env bash
# Byte-identity against an earlier revision, for changes that must not move
# a seeded schedule. Builds <rev> and the working tree side by side and
# diffs what such a change has to leave untouched:
#   - `nemesis 400 0 3000 grid` and `nemesis 1200 0 3000 majority`: exit
#     status, stdout, stderr and every flight-recorder file;
#   - the benchmark at `--seed 7 --seconds 10 --trace 1` on read_mostly,
#     write_contended, write_leader and failover: every cell except the
#     wall-clock ones (WALL_CLOCK below);
#   - the explorer tests' distinct-state, schedule and checked-schedule
#     counts (`explore:` lines; a tree whose tests print none has nothing
#     to compare there, and the script says so).
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
SWEEPS=("400 0 3000 grid" "1200 0 3000 majority")

rm -rf "$base" "$work/out" "$work/raw"
mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"

build() { # name tree
  echo "==> building $1"
  export CARGO_TARGET_DIR=$work/target-$1
  cargo build --release --offline --locked --quiet --manifest-path "$2/Cargo.toml" \
    -p coterie-harness --bin nemesis
  cargo build --release --offline --locked --quiet \
    --manifest-path "$2/crates/bench/src/bin/benchmark/Cargo.toml"
  cargo test --release --offline --locked --quiet --no-run --manifest-path "$2/Cargo.toml" \
    -p coterie-harness --test explore --test features 2>/dev/null
  unset CARGO_TARGET_DIR
}

run() { # name tree
  local bin=$work/target-$1/release out=$work/out/$1 raw=$work/raw/$1
  mkdir -p "$out" "$raw"
  for sweep in "${SWEEPS[@]}"; do
    echo "==> $1: nemesis $sweep"
    # Flight-recorder dumps go to target/ under the working directory.
    local dir=$out/nemesis-${sweep// /-}
    mkdir -p "$dir/target"
    local status=0
    # shellcheck disable=SC2086 # the sweep is four separate arguments
    (cd "$dir" && "$bin/nemesis" $sweep >stdout 2>stderr) || status=$?
    echo "$status" >"$dir/status"
  done
  for w in "${WORKLOADS[@]}"; do
    echo "==> $1: benchmark $w"
    (cd "$raw" && "$bin/benchmark" --workload "$w" --seed 7 --seconds 10 --trace 1 \
      >"$w.json" 2>"$w.err")
    # One JSON field per line, wall-clock cells dropped.
    tr ',' '\n' <"$raw/$w.json" | grep -Ev "$WALL_CLOCK" >"$out/bench-$w.cells" || true
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
