//! Safety of the PR-6 write-path optimisations (DESIGN.md §10) under
//! adversarial schedules: interleaving exploration with batching and
//! pipelining enabled, and a bounded nemesis soak with all three features
//! (batching, pipelining, group commit) on.

// Test-side issued-op bookkeeping; hash order never feeds the engine.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use coterie_core::{keys, ClientRequest, PartialWrite, ProtocolConfig, ProtocolEvent, StepDriver};
use coterie_harness::explore::{explore, ExplorerConfig};
use coterie_harness::nemesis::{soak, NemesisConfig};
use coterie_harness::workload::IssuedOp;
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::SimDuration;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// A 3-node grid with batching and pipelining on: a burst of writes at one
/// coordinator (so rounds coalesce and chain) racing a write and a read
/// elsewhere.
fn pipelined_grid() -> (StepDriver, HashMap<u64, IssuedOp>) {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 3)
        .pages(4)
        .write_batch(2)
        .pipeline(3);
    let mut driver = StepDriver::new(3, config);
    let mut issued = HashMap::new();
    let ops: [(u64, u32, Option<PartialWrite>); 5] = [
        (1, 0, Some(PartialWrite::new([(0, b("a1"))]))),
        (2, 0, Some(PartialWrite::new([(1, b("a2"))]))),
        (3, 0, Some(PartialWrite::new([(0, b("a3"))]))),
        (4, 1, Some(PartialWrite::new([(2, b("rival"))]))),
        (5, 2, None),
    ];
    for (id, node, write) in ops {
        driver.advance(SimDuration::from_millis(1));
        let request = match &write {
            Some(w) => ClientRequest::Write {
                id,
                write: w.clone(),
            },
            None => ClientRequest::Read { id },
        };
        driver.inject(NodeId(node), request);
        issued.insert(
            id,
            IssuedOp {
                id,
                at: driver.now(),
                coordinator: NodeId(node),
                write,
            },
        );
    }
    (driver, issued)
}

/// The deterministic schedule actually pipelines: the coordinator opens at
/// least one chained round (round k+1's prepare in flight while round k's
/// decision still is), so the explorer below genuinely covers ≥2
/// concurrent write rounds.
#[test]
fn pipelined_grid_schedule_chains_rounds() {
    let (mut driver, issued) = pipelined_grid();
    driver.run_for(SimDuration::from_secs(10));

    let oks = driver
        .outputs()
        .iter()
        .filter(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { .. }))
        .count();
    assert_eq!(oks, 4, "all four writes must commit");
    let stats = &driver.node(NodeId(0)).stats;
    assert!(
        stats.counter(keys::CHAINED_ROUNDS) >= 1,
        "expected a pipelined lock handoff, got chained_rounds = {}",
        stats.counter(keys::CHAINED_ROUNDS)
    );
    assert!(
        stats.counter(keys::BATCHED_WRITES) >= 2,
        "expected writes to share a round, got batched_writes = {}",
        stats.counter(keys::BATCHED_WRITES)
    );
    drop(issued);
}

/// Every explored interleaving of the pipelined workload keeps epoch
/// safety, current-replica coherence, and one-copy serializability.
#[test]
fn pipelined_grid_interleavings_are_serializable() {
    let (driver, issued) = pipelined_grid();
    let explorer = ExplorerConfig {
        max_depth: 14,
        max_states: 60_000,
        n_pages: 4,
        ..ExplorerConfig::default()
    };
    let report = explore(&driver, &issued, &explorer);

    assert!(
        report.violations.is_empty(),
        "violations found:\n{}",
        report.violations.join("\n")
    );
    assert!(
        report.distinct_states >= 5_000,
        "explored only {} distinct states",
        report.distinct_states
    );
    assert!(
        report.schedules_checked > 0,
        "no schedule reached the 1SR check"
    );
}

/// A bounded nemesis soak — crashes, partitions, torn writes, journal
/// corruption — with batching and pipelining enabled.
#[test]
fn feature_enabled_soak_is_clean() {
    let cfg = NemesisConfig {
        steps: 800,
        client_ops: 10,
        write_batch: 4,
        pipeline_window: 3,
        ..Default::default()
    };
    let report = soak(Arc::new(GridCoterie::new()), 0xFACE, 3, &cfg);
    assert!(report.clean(), "violations: {:#?}", report.dirty);
    assert!(report.crashes > 0 && report.recoveries > 0);
    assert!(report.writes_committed > 0, "soak must commit writes");
}
