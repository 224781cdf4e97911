//! **E8 — partial writes: stale marking vs write-all-current.** The
//! paper's second contribution: with stale marking, "different coordinators
//! can communicate with different write quorums, and synchronous
//! reconciliation of obsolete replicas is never needed". The conventional
//! discipline must ship full-object snapshots inline whenever the current
//! replicas alone do not form a quorum. We run the same churny workload
//! under both modes and compare replicas touched per write, synchronous
//! reconciliations, traffic, and latency.

use crate::faults::{FaultConfig, FaultPlan};
use crate::report::Table;
use crate::scenario::{run_scenario, Scenario, ScenarioResult};
use crate::workload::{Workload, WorkloadConfig};
use coterie_core::{ProtocolConfig, WriteMode};
use coterie_quorum::GridCoterie;
use coterie_simnet::SimDuration;
use std::sync::Arc;

/// One measured mode.
#[derive(Debug)]
pub struct PartialWriteRow {
    /// Mode label.
    pub mode: String,
    /// Aggregate results.
    pub result: ScenarioResult,
}

/// Runs the comparison. `churn` injects crash/repair cycles so replicas
/// drift out of date (the situation stale marking is designed for).
pub fn compute(n: usize, duration_secs: u64, seed: u64, churn: bool) -> Vec<PartialWriteRow> {
    [WriteMode::StaleMarking, WriteMode::WriteAllCurrent]
        .into_iter()
        .map(|mode| {
            let mut protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
                .check_period(SimDuration::from_secs(3));
            protocol.write_mode = mode;
            let workload = Workload::generate(
                &WorkloadConfig {
                    ops_per_sec: 30.0,
                    read_fraction: 0.3,
                    duration: SimDuration::from_secs(duration_secs),
                    seed,
                },
                &protocol,
            );
            let faults = if churn {
                FaultPlan::generate(
                    &FaultConfig {
                        lambda_per_sec: 0.03,
                        mu_per_sec: 0.3,
                        duration: SimDuration::from_secs(duration_secs),
                        seed: seed ^ 0xFA17,
                    },
                    n,
                )
            } else {
                FaultPlan::default()
            };
            let scenario = Scenario {
                protocol,
                seed,
                workload,
                faults,
                drain: SimDuration::from_secs(10),
            };
            PartialWriteRow {
                mode: format!("{mode:?}"),
                result: run_scenario(&scenario),
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(n: usize, duration_secs: u64, seed: u64, churn: bool) -> String {
    let rows = compute(n, duration_secs, seed, churn);
    let mut t = Table::new(
        format!("E8 - partial-write handling, N = {n}, churn = {churn}"),
        &[
            "mode",
            "write ok%",
            "replicas/write",
            "stale-marks/write",
            "sync recons",
            "msgs/op",
            "wr lat ms",
            "wr p99 ms",
        ],
    );
    for row in &rows {
        let r = &row.result;
        t.row(&[
            row.mode.clone(),
            format!("{:.1}", r.write_success_rate() * 100.0),
            format!("{:.2}", r.replicas_touched_avg),
            format!("{:.2}", r.marked_stale_avg),
            r.sync_reconciliations.to_string(),
            format!("{:.1}", r.msgs_per_op),
            format!("{:.2}", r.write_latency.mean() / 1e3),
            format!("{:.2}", r.write_latency.quantile(0.99) as f64 / 1e3),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_are_consistent_under_churn() {
        for row in compute(9, 30, 31, true) {
            let invariants = &row.result.invariants;
            assert!(invariants.is_empty(), "{}: {invariants:?}", row.mode);
            assert!(
                row.result.check.consistent(),
                "{}: {:?}",
                row.mode,
                row.result.check.violations
            );
            assert!(row.result.writes_ok > 0, "{}", row.mode);
        }
    }

    #[test]
    fn stale_marking_never_reconciles_synchronously() {
        let rows = compute(9, 30, 32, true);
        let stale = rows.iter().find(|r| r.mode == "StaleMarking").unwrap();
        assert_eq!(stale.result.sync_reconciliations, 0);
    }

    #[test]
    fn fault_free_stale_marking_uses_fewer_messages() {
        // Without churn the paper's light path shines at larger N: a write
        // contacts a quorum (~2*sqrt(N) - 1 nodes) instead of all N
        // replicas, and marks the behind members instead of updating them.
        let rows = compute(25, 20, 34, false);
        let stale = rows.iter().find(|r| r.mode == "StaleMarking").unwrap();
        let wac = rows.iter().find(|r| r.mode == "WriteAllCurrent").unwrap();
        assert!(
            stale.result.msgs_per_op < wac.result.msgs_per_op,
            "stale-marking {:.1} msgs/op vs write-all-current {:.1}",
            stale.result.msgs_per_op,
            wac.result.msgs_per_op
        );
        assert!(
            stale.result.replicas_touched_avg < wac.result.replicas_touched_avg,
            "touched: {:.2} vs {:.2}",
            stale.result.replicas_touched_avg,
            wac.result.replicas_touched_avg
        );
        assert!(stale.result.write_success_rate() > 0.95);
        assert!(wac.result.write_success_rate() > 0.95);
    }

    #[test]
    fn write_all_current_pays_for_reconciliation_under_churn() {
        let rows = compute(9, 40, 33, true);
        let wac = rows.iter().find(|r| r.mode == "WriteAllCurrent").unwrap();
        assert!(
            wac.result.sync_reconciliations > 0,
            "churn should force synchronous reconciliations in the baseline"
        );
    }
}
