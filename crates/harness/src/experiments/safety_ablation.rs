//! **E13 — ablating the §4.1 safety threshold.** The paper sketches a
//! remedy for its vulnerability window (the object becomes write-
//! unavailable when every replica holding the newest version is briefly
//! down): record the good list at every write and have coordinators with
//! too few good participants include extra current replicas, permission-
//! free. This experiment sweeps the threshold under write-heavy churn and
//! measures write success rate, traffic, and the number of newest-version
//! holders over time.

use crate::faults::{FaultConfig, FaultPlan};
use crate::report::Table;
use crate::scenario::{run_scenario, Scenario, ScenarioResult};
use crate::workload::{Workload, WorkloadConfig};
use coterie_core::ProtocolConfig;
use coterie_quorum::GridCoterie;
use coterie_simnet::SimDuration;
use std::sync::Arc;

/// One threshold setting's results.
#[derive(Debug)]
pub struct SafetyRow {
    /// The configured threshold (0 disables the mechanism).
    pub threshold: usize,
    /// Aggregate scenario results.
    pub result: ScenarioResult,
}

/// Sweeps the safety threshold under churn.
pub fn compute(n: usize, duration_secs: u64, seed: u64) -> Vec<SafetyRow> {
    [0usize, 2, 3, 4]
        .into_iter()
        .map(|threshold| {
            let protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
                .check_period(SimDuration::from_secs(3))
                .safety(threshold);
            let workload = Workload::generate(
                &WorkloadConfig {
                    ops_per_sec: 30.0,
                    read_fraction: 0.2,
                    duration: SimDuration::from_secs(duration_secs),
                    seed,
                },
                &protocol,
            );
            let faults = FaultPlan::generate(
                &FaultConfig {
                    lambda_per_sec: 0.03,
                    mu_per_sec: 0.3,
                    duration: SimDuration::from_secs(duration_secs),
                    seed: seed ^ 0x5AFE,
                },
                n,
            );
            let scenario = Scenario {
                protocol,
                seed,
                workload,
                faults,
                drain: SimDuration::from_secs(10),
            };
            SafetyRow {
                threshold,
                result: run_scenario(&scenario),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(n: usize, duration_secs: u64, seed: u64) -> String {
    let rows = compute(n, duration_secs, seed);
    let mut t = Table::new(
        format!("E13 - safety-threshold ablation, N = {n}, churny partial writes"),
        &[
            "threshold",
            "write ok%",
            "replicas/write",
            "msgs/op",
            "wr lat ms",
        ],
    );
    for row in &rows {
        let r = &row.result;
        t.row(&[
            row.threshold.to_string(),
            format!("{:.1}", r.write_success_rate() * 100.0),
            format!("{:.2}", r.replicas_touched_avg),
            format!("{:.1}", r.msgs_per_op),
            format!("{:.2}", r.write_latency.mean() / 1e3),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_stay_consistent_and_help_availability() {
        // Write success under churn swings by tens of points from one seed
        // to the next (EXPERIMENTS.md, E13), so compare means over seeds.
        let runs: Vec<SafetyRow> = (41..46).flat_map(|seed| compute(9, 30, seed)).collect();
        for row in &runs {
            let invariants = &row.result.invariants;
            assert!(invariants.is_empty(), "{}: {invariants:?}", row.threshold);
            assert!(
                row.result.check.consistent(),
                "threshold {}: {:?}",
                row.threshold,
                row.result.check.violations
            );
        }
        let ok = |t: usize| {
            let rates: Vec<f64> = (runs.iter().filter(|r| r.threshold == t))
                .map(|r| r.result.write_success_rate())
                .collect();
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        // The mechanism must not hurt: threshold 3 at least matches
        // disabled within a small tolerance, and usually helps.
        assert!(
            ok(3) + 0.02 >= ok(0),
            "threshold 3 ({:.3}) should not trail disabled ({:.3})",
            ok(3),
            ok(0)
        );
    }
}
