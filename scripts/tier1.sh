#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
# Usage: scripts/tier1.sh   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# The repo's own packages (vendored crates under vendor/ are kept verbatim
# and excluded from the formatting gate).
PACKAGES=(dyncoterie coterie-base coterie-quorum coterie-simnet coterie-core
  coterie-markov coterie-harness coterie-bench coterie-lint)
FMT_ARGS=()
for p in "${PACKAGES[@]}"; do FMT_ARGS+=(-p "$p"); done

echo "==> cargo fmt --check"
cargo fmt "${FMT_ARGS[@]}" -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> traced write_leader: history flatness and timer/permission step ratio"
# Two ratios inside one run, so machine speed cancels in both.
# core.step_growth <= 2.0: one step() must cost at the end of a 6 000-write
# history what it costs at the start (3.8 if the durable capture rescans the
# decision table, ~1.0 when it records what changed).
# core.step_ns.timer <= core.step_ns.permission: on this workload a timer step
# is a no-op DecisionRetry fire, so the ratio prices removing one entry from
# the driver's pool against a real message step (1.6 if removal shifts the
# whole pool, ~0.4 when it shifts the shorter side).
traced=$(cargo run --release --quiet -p coterie-bench --bin benchmark -- \
  --workload write_leader --seed 1 --seconds 10 --trace 1 | tail -n 1)
metric() { sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\).*/\1/p" <<<"$traced"; }
growth=$(metric 'core\.step_growth')
timer=$(metric 'core\.step_ns\.timer')
permission=$(metric 'core\.step_ns\.permission')
echo "core.step_growth = ${growth:-missing}"
echo "core.step_ns.timer = ${timer:-missing}, core.step_ns.permission = ${permission:-missing}"
awk -v g="$growth" 'BEGIN { exit !(g != "" && g + 0 <= 2.0) }' || {
  echo "tier-1: step() cost grows with history"
  exit 1
}
awk -v t="$timer" -v p="$permission" 'BEGIN { exit !(t != "" && p != "" && t + 0 <= p + 0) }' || {
  echo "tier-1: a no-op timer step costs more than a permission step (pool removal is O(pool)?)"
  exit 1
}

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo bench --no-run"
cargo bench --no-run --workspace

echo "==> coterie-lint --deny (determinism, surface, lock, arith, baseline)"
# All rule families: D1-D3 token rules plus the flow-aware P1 surface
# matrix, P2 lock discipline, P3 codec arithmetic, and the P4 ratcheted
# allow baseline (crates/lint/baseline.json). The JSON report is left in
# target/ so PRs can diff per-rule finding and allow counts.
cargo run --release -p coterie-lint -- --deny --report target/lint-report.json
# The explain text doubles as the rules' documentation; smoke it so a
# renamed rule can't silently orphan its docs.
cargo run --release -p coterie-lint -- --explain surface >/dev/null

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> example smoke runs"
cargo run --release --example quickstart
cargo run --release --example failover

echo "==> nemesis smoke (bounded storage-fault soak)"
# Fixed seeds, short schedules: 6 grid + 6 majority runs of crashes,
# partitions, torn writes, and journal corruption; exits non-zero on any
# epoch-safety, coherence, or 1SR violation. Dirty runs dump their flight
# recorder as causally-merged JSONL + timeline under target/.
cargo run --release -p coterie-harness --bin nemesis -- 6 42 1500

echo "==> trace determinism smoke"
# Same-seed runs must produce byte-identical trace JSONL (in-process and
# across a self-exec process boundary), and attaching a sink must not
# change a single journal/digest/output byte.
cargo test -q -p coterie-core --test determinism --test trace_determinism

echo "==> line budget (per-crate src ceilings, shrink-only)"
scripts/loc_budget.sh

echo "tier-1: all green"
