//! Safety of the write-path optimisations (DESIGN.md §10), which every
//! write runs, under adversarial schedules: interleaving exploration of
//! shared and chained rounds, and a bounded nemesis soak.

// Test-side issued-op bookkeeping; hash order never feeds the engine.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use coterie_core::{
    keys, ClientRequest, Msg, PartialWrite, ProtocolConfig, ProtocolEvent, StepDriver,
};
use coterie_harness::explore::{explore, ExplorerConfig};
use coterie_harness::nemesis::{soak, NemesisConfig};
use coterie_harness::workload::IssuedOp;
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::SimDuration;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// A 3-node grid (writes batch and chain by default), with each op
/// injected 1 ms after the last as `(id, coordinator, write or read)`.
fn grid3(ops: &[(u64, u32, Option<PartialWrite>)]) -> (StepDriver, HashMap<u64, IssuedOp>) {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 3).pages(4);
    let mut driver = StepDriver::new(3, config);
    let mut issued = HashMap::new();
    for (id, node, write) in ops.iter().cloned() {
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

/// A burst of three writes at node 0.
fn burst() -> Vec<(u64, u32, Option<PartialWrite>)> {
    vec![
        (1, 0, Some(PartialWrite::new([(0, b("a1"))]))),
        (2, 0, Some(PartialWrite::new([(1, b("a2"))]))),
        (3, 0, Some(PartialWrite::new([(0, b("a3"))]))),
    ]
}

/// The burst racing a write at node 1 and a read at node 2: rounds at
/// node 0 coalesce and may chain while the rival contends for the locks.
fn pipelined_grid() -> (StepDriver, HashMap<u64, IssuedOp>) {
    let mut ops = burst();
    ops.push((4, 1, Some(PartialWrite::new([(2, b("rival"))]))));
    ops.push((5, 2, None));
    grid3(&ops)
}

fn count(driver: &StepDriver, matching: fn(&ProtocolEvent) -> bool) -> usize {
    driver
        .outputs()
        .iter()
        .filter(|(_, _, e)| matching(e))
        .count()
}

/// With nobody else asking for the replicas, the burst pipelines: the
/// coordinator opens at least one chained round (round k+1's prepare in
/// flight while round k's decision still is).
#[test]
fn an_uncontended_burst_chains_rounds() {
    let (mut driver, _) = grid3(&burst());
    driver.run_for(SimDuration::from_secs(10));

    let oks = count(&driver, |e| matches!(e, ProtocolEvent::WriteOk { .. }));
    assert_eq!(oks, 3, "all three writes must commit");
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
}

/// The rival write and the read are refused by the burst's locks, so the
/// burst's chain yields to them instead of running on: every write and
/// the read commit.
#[test]
fn a_contended_chain_yields_and_the_rival_and_the_read_commit() {
    let (mut driver, _) = pipelined_grid();
    driver.run_for(SimDuration::from_secs(10));

    let oks = count(&driver, |e| matches!(e, ProtocolEvent::WriteOk { .. }));
    assert_eq!(oks, 4, "all four writes must commit");
    let reads = count(&driver, |e| matches!(e, ProtocolEvent::ReadOk { .. }));
    assert_eq!(reads, 1, "the read must commit");
    let retries = |n| driver.node(NodeId(n)).stats.counter(keys::RETRIES);
    assert!(retries(1) >= 1 && retries(2) >= 1, "nobody was refused");
    let stats = &driver.node(NodeId(0)).stats;
    assert_eq!(
        stats.counter(keys::CHAINED_ROUNDS),
        0,
        "the burst chained past the refusals its votes reported"
    );
    assert!(stats.counter(keys::BATCHED_WRITES) >= 2, "no shared round");
}

/// Every explored interleaving of the contended schedule, whose chain
/// yields, and of the uncontended burst, whose rounds chain, keeps epoch
/// safety, current-replica coherence, and one-copy serializability.
#[test]
fn pipelined_grid_interleavings_are_serializable() {
    let explorer = ExplorerConfig {
        max_depth: 14,
        max_states: 60_000,
        ..ExplorerConfig::default()
    };
    let schedules = [("", pipelined_grid()), (" (burst)", grid3(&burst()))];
    for (label, (driver, issued)) in schedules {
        let report = explore(&driver, &issued, &explorer);
        // scripts/parity.sh diffs these counts between two builds.
        println!(
            "explore: pipelined_grid_interleavings_are_serializable{label}: {} distinct states, {} schedules, {} checked",
            report.distinct_states, report.schedules, report.schedules_checked
        );
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
}

/// The explorer's first schedule delivers the oldest pending message at
/// every step, which is the driver's own schedule. On the burst, that
/// schedule delivers a lock handoff within the explored depth, so the
/// explored interleavings include chained rounds, not only their drains.
#[test]
fn the_explored_burst_reaches_a_lock_handoff() {
    let (mut driver, _) = grid3(&burst());
    let handoff = (0..14).any(|_| {
        let chained = matches!(
            driver.pending_messages().first().map(|e| &e.msg),
            Some(Msg::Decision { chain: Some(_), .. })
        );
        driver.deliver(0);
        chained
    });
    assert!(handoff, "no handoff in the explored prefix");
}

/// A bounded nemesis soak — crashes, partitions, torn writes, journal
/// corruption — on the grid, where writes share and chain rounds.
#[test]
fn feature_enabled_soak_is_clean() {
    let cfg = NemesisConfig {
        steps: 800,
        client_ops: 10,
        ..Default::default()
    };
    let report = soak(Arc::new(GridCoterie::new()), 0xFACE, 3, &cfg);
    assert!(report.clean(), "violations: {:#?}", report.dirty);
    assert!(report.crashes > 0 && report.recoveries > 0);
    assert!(report.writes_committed > 0, "soak must commit writes");
}
