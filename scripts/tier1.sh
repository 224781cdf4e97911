#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
# Usage: scripts/tier1.sh   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# The repo's own packages (vendored crates under vendor/ are kept verbatim
# and excluded from the formatting gate).
PACKAGES=(dyncoterie coterie-base coterie-quorum coterie-simnet coterie-core
  coterie-markov coterie-harness coterie-bench)
FMT_ARGS=()
for p in "${PACKAGES[@]}"; do FMT_ARGS+=(-p "$p"); done

echo "==> cargo fmt --check"
cargo fmt "${FMT_ARGS[@]}" -- --check

echo "==> the frozen benchmark's lockfile still resolves"
# BENCHMARK.json builds crates/bench/src/bin/benchmark/ from its own
# manifest and Cargo.lock, which pin the workspace crates' dependency
# lists. A manifest edit that would rewrite that lockfile (dropping
# simnet's unused `rand`, say) fails here instead of in the benchmark.
cargo metadata --offline --locked --format-version 1 \
  --manifest-path crates/bench/src/bin/benchmark/Cargo.toml >/dev/null

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> traced write_leader: history flatness, and what a committed write leaves behind"
# One ratio inside one run, so machine speed cancels, and counts that repeat
# exactly for a seed.
# core.step_growth <= 2.0: one step() must cost at the end of a 6 000-write
# history what it costs at the start (3.8 when a step's delta came from
# rescanning the decision table; ~1.0 now that each durable transition
# records its own change, so a step reads nothing it did not touch).
# driver.pending_timers_max <= 64: a decided participant holds no timer (20;
# 1 368 when every committed write leaves its DecisionRetry chain armed).
# storage.bytes_per_write <= 1500: a write journals the log entry it pushed
# (794 B over its 2.75 records now that four writes share a round's 2PC;
# 683 B over 12.0 with one write per round; 7 226 when each apply re-ships the
# whole log).
# core.heavy_per_op <= 0.05: a coordinator asks a quorum holding a replica it
# last saw current, so its own serial writes never poll all nine (0.00; 0.34
# with the seeded rotation alone, which ignores which replicas are current).
# core.msgs_per_op.commit <= 5: writes queued at one coordinator share rounds
# and chain them, so a write's share of 2PC traffic falls (3.75; 15.0 with
# one write per round).
# core.client_skew <= 2: no client starves behind another's lock window at
# the shared coordinator (1.0; 4 021 with one write per round).
traced_run() { # workload
  traced=$(cargo run --release --quiet -p coterie-bench --bin benchmark -- \
    --workload "$1" --seed 1 --seconds 10 --trace 1 | tail -n 1)
}
metric() { sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\).*/\1/p" <<<"$traced"; }
at_most() { # name bound complaint
  local value
  value=$(metric "${1//./\\.}")
  echo "$1 = ${value:-missing} (bound $2)"
  awk -v v="$value" -v b="$2" 'BEGIN { exit !(v != "" && v + 0 <= b) }' || {
    echo "tier-1: $3"
    exit 1
  }
}
traced_run write_leader
at_most core.step_growth 2.0 "step() cost grows with history"
at_most driver.pending_timers_max 64 "decided operations leave timers armed"
at_most storage.bytes_per_write 1500 "a committed write journals more than it touched"
at_most core.heavy_per_op 0.05 "write quorums miss the current replicas and go heavy"
at_most core.msgs_per_op.commit 5 "writes at one coordinator stopped sharing 2PC rounds"
at_most core.client_skew 2 "one client's writes starve the others at a shared coordinator"

echo "==> traced read_mostly: a read is one round trip to a current replica"
# All three repeat exactly for a seed on the virtual clock.
# core.msgs_per_op.fetch <= 0: a granted read carries its replica's object,
# so no read fetches (1.53 when reads fetch from a current replica).
# core.read_p50_us <= 250: one round trip (207; 414 with the fetch trip).
# core.heavy_per_op <= 0.05: reads ask a quorum holding a replica their
# coordinator last saw current (0.00; 0.42 with the seeded rotation alone).
traced_run read_mostly
at_most core.msgs_per_op.fetch 0 "a read fetched the object in a second round trip"
at_most core.read_p50_us 250 "the median read takes more than one round trip"
at_most core.heavy_per_op 0.05 "read quorums miss the current replicas and go heavy"

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
# Carries the repo's own rules (DESIGN.md §8): the determinism and I/O bans
# of crates/core/clippy.toml, the panic, print and wildcard-arm denies in the
# protocol crates' roots, checked arithmetic in engine/{codec,storage}.rs,
# and every argued exception as an #[expect] that fails once it stops firing.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> example smoke runs"
cargo run --release --example quickstart
cargo run --release --example failover
# The one crash-plus-epoch-change run over real threads outside the tests.
cargo run --release --example live_threads
# Every experiment through the `experiments` binary's own dispatch (~1 s).
cargo run --release -p coterie-harness --bin experiments -- all --quick >/dev/null

echo "==> nemesis smoke (bounded storage-fault soak)"
# Fixed seeds, short schedules: 6 runs on grid and 6 on majority, 12
# schedules in all, of
# crashes, partitions, torn writes, and journal corruption; exits non-zero on any
# epoch-safety, coherence, or 1SR violation. Dirty runs dump their flight
# recorder as causally-merged JSONL + timeline under target/.
cargo run --release -p coterie-harness --bin nemesis -- 6 42 1500

echo "==> nemesis grid sweep (seeds 0-399)"
# 400 full-length schedules (~1.5 s), all clean on grid (ROADMAP 1(c)).
# Majority has known-dirty seeds, so it runs under the ratchet below.
cargo run --release -p coterie-harness --bin nemesis -- 400 0 3000 grid

echo "==> nemesis majority ratchet (seeds 0-1199)"
# 1 200 schedules (~7 s). Fails on any dirty run missing from
# scripts/nemesis_known_dirty.txt and on any listed run that came back
# clean, so the list only shrinks (ROADMAP 1(c)).
scripts/nemesis_ratchet.sh

echo "==> trace determinism smoke"
# Same-seed runs must produce byte-identical trace JSONL (in-process and
# across a self-exec process boundary), and attaching a sink must not
# change a single journal/digest/output byte.
cargo test -q -p coterie-core --test determinism --test trace_determinism

echo "==> line budget (per-crate src ceilings, shrink-only)"
scripts/loc_budget.sh

echo "tier-1: all green"
