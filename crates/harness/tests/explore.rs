//! Tier-1 model-checking pass: bounded interleaving exploration of the
//! dynamic grid protocol on small clusters, asserting one-copy
//! serializability and epoch safety on every explored schedule.

// Test-side issued-op bookkeeping; hash order never feeds the engine.
#![allow(clippy::disallowed_types)]

mod common;

use std::sync::Arc;

use bytes::Bytes;
use coterie_core::{PartialWrite, ProtocolConfig, ProtocolEvent, ReplayVerdict, StepDriver};
use coterie_harness::explore::{explore, settle, ExplorerConfig};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use coterie_simnet::SimDuration;

use common::inject;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// Two concurrent writes plus a read on a 4-node grid: the bread-and-butter
/// conflict pattern. Explores well past 10k distinct states.
#[test]
fn grid_write_write_read_interleavings_are_serializable() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).pages(4);
    let mut driver = StepDriver::new(4, config);
    let issued = inject(
        &mut driver,
        &[
            (1, 0, Some(PartialWrite::new([(0, b("alpha"))]))),
            (2, 1, Some(PartialWrite::new([(1, b("beta"))]))),
            (3, 2, None),
        ],
    );

    let explorer = ExplorerConfig {
        max_depth: 14,
        max_states: 60_000,
        ..ExplorerConfig::default()
    };
    let report = explore(&driver, &issued, &explorer);
    // scripts/parity.sh diffs these counts between two builds.
    println!(
        "explore: grid_write_write_read_interleavings_are_serializable: {} distinct states, {} schedules, {} checked",
        report.distinct_states, report.schedules, report.schedules_checked
    );

    assert!(
        report.violations.is_empty(),
        "violations found:\n{}",
        report.violations.join("\n")
    );
    assert!(
        report.distinct_states >= 10_000,
        "explored only {} distinct states",
        report.distinct_states
    );
    assert!(
        report.schedules_checked > 0,
        "no schedule reached the 1SR check"
    );
}

/// A write racing a crash of its coordinator-side peer on a 3-node majority
/// cluster, with recovery in the mix: exercises 2PC in-doubt handling and
/// epoch atomicity under failures.
#[test]
fn majority_write_under_crash_recovery_stays_safe() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3).pages(4);
    let mut driver = StepDriver::new(3, config);
    let issued = inject(
        &mut driver,
        &[
            (1, 0, Some(PartialWrite::new([(0, b("solo"))]))),
            (2, 2, None),
        ],
    );

    let explorer = ExplorerConfig {
        max_depth: 12,
        max_states: 40_000,
        crash_budget: 1,
        crashable: vec![NodeId(1)],
    };
    let report = explore(&driver, &issued, &explorer);
    // scripts/parity.sh diffs these counts between two builds.
    println!(
        "explore: majority_write_under_crash_recovery_stays_safe: {} distinct states, {} schedules, {} checked",
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
    assert!(report.schedules_checked > 0);
}

/// `settle` ends every harness run the same way. On a 4-node grid with
/// node 3 crashed and node 2 partitioned away, it heals the partition,
/// recovers node 3 through one checked replay, and drains, so a write
/// injected beforehand commits.
#[test]
fn settle_heals_recovers_and_drains() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).pages(4);
    let mut driver = StepDriver::new(4, config);
    driver.crash(NodeId(3));
    driver.set_partition(vec![0, 0, 1, 0]);
    inject(
        &mut driver,
        &[(1, 0, Some(PartialWrite::new([(0, b("settled"))])))],
    );

    let verdicts = settle(&mut driver, SimDuration::from_secs(30));

    assert_eq!(verdicts, [ReplayVerdict::Clean]);
    let nodes = || (0..4).map(NodeId);
    assert!(nodes().all(|a| !driver.is_down(a)), "a node is still down");
    for a in nodes() {
        for b in nodes() {
            assert!(driver.connected(a, b), "{a:?} and {b:?} are cut off");
        }
    }
    let outputs = driver.outputs();
    assert!(
        outputs
            .iter()
            .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1, .. })),
        "the write injected before settle did not commit"
    );
}
