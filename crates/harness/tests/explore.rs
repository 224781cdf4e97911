//! Tier-1 model-checking pass: bounded interleaving exploration of the
//! dynamic grid protocol on small clusters, asserting one-copy
//! serializability and epoch safety on every explored schedule.

// Test-side issued-op bookkeeping; hash order never feeds the engine.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use coterie_core::{ClientRequest, PartialWrite, ProtocolConfig, StepDriver};
use coterie_harness::explore::{explore, ExplorerConfig};
use coterie_harness::workload::IssuedOp;
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use coterie_simnet::SimDuration;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// Injects `ops` (id, coordinator, Some(write) | None for a read) into the
/// driver 1 ms apart and returns the checker's issued-op map.
fn inject(
    driver: &mut StepDriver,
    ops: &[(u64, u32, Option<PartialWrite>)],
) -> HashMap<u64, IssuedOp> {
    let mut issued = HashMap::new();
    for (id, node, write) in ops {
        driver.advance(SimDuration::from_millis(1));
        let request = match write {
            Some(w) => ClientRequest::Write {
                id: *id,
                write: w.clone(),
            },
            None => ClientRequest::Read { id: *id },
        };
        driver.inject(NodeId(*node), request);
        issued.insert(
            *id,
            IssuedOp {
                id: *id,
                at: driver.now(),
                coordinator: NodeId(*node),
                write: write.clone(),
            },
        );
    }
    issued
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
