//! **E7 — load sharing and message traffic.** Backs the paper's claim that
//! the grid's quorum function spreads requests over different quorums
//! ("good load sharing and light network traffic", §1/§6) compared with
//! ROWA's primary-heavy pattern, while using fewer messages per operation
//! than majority voting for large N.

use crate::faults::FaultPlan;
use crate::report::Table;
use crate::scenario::{run_scenario, Scenario, ScenarioResult};
use crate::workload::{Workload, WorkloadConfig};
use coterie_core::ProtocolConfig;
use coterie_quorum::{CoterieRule, GridCoterie, MajorityCoterie, RowaCoterie};
use coterie_simnet::SimDuration;
use std::sync::Arc;

/// One measured configuration.
#[derive(Debug)]
pub struct LoadRow {
    /// Coterie rule name.
    pub rule: String,
    /// The scenario's aggregate results.
    pub result: ScenarioResult,
}

fn rules() -> Vec<(&'static str, Arc<dyn CoterieRule>)> {
    vec![
        ("grid", Arc::new(GridCoterie::new())),
        ("majority", Arc::new(MajorityCoterie::new())),
        ("rowa", Arc::new(RowaCoterie::new())),
    ]
}

/// Runs the same fault-free workload under each coterie rule.
pub fn compute(n: usize, duration_secs: u64, seed: u64) -> Vec<LoadRow> {
    rules()
        .into_iter()
        .map(|(name, rule)| {
            let protocol = ProtocolConfig::new(rule, n);
            let workload = Workload::generate(
                &WorkloadConfig {
                    ops_per_sec: 40.0,
                    read_fraction: 0.6,
                    duration: SimDuration::from_secs(duration_secs),
                    seed,
                },
                &protocol,
            );
            let scenario = Scenario {
                protocol,
                seed,
                workload,
                faults: FaultPlan::default(),
                drain: SimDuration::from_secs(5),
            };
            LoadRow {
                rule: name.into(),
                result: run_scenario(&scenario),
            }
        })
        .collect()
}

/// Renders the comparison table.
pub fn render(n: usize, duration_secs: u64, seed: u64) -> String {
    let rows = compute(n, duration_secs, seed);
    let mut t = Table::new(
        format!("E7 - load sharing and traffic, N = {n}, fault-free"),
        &[
            "rule",
            "write ok%",
            "read ok%",
            "msgs/op",
            "load CV",
            "peak/mean",
            "wr lat ms",
            "rd lat ms",
        ],
    );
    for row in &rows {
        let r = &row.result;
        t.row(&[
            row.rule.clone(),
            format!("{:.1}", r.write_success_rate() * 100.0),
            format!("{:.1}", r.read_success_rate() * 100.0),
            format!("{:.1}", r.msgs_per_op),
            format!("{:.3}", r.load.cv()),
            format!("{:.2}", r.load.peak_to_mean()),
            format!("{:.2}", r.write_latency.mean() / 1e3),
            format!("{:.2}", r.read_latency.mean() / 1e3),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rules_complete_the_workload_consistently() {
        for row in compute(9, 15, 21) {
            let r = &row.result;
            assert!(r.invariants.is_empty(), "{}: {:?}", row.rule, r.invariants);
            assert!(
                r.check.consistent(),
                "{}: {:?}",
                row.rule,
                r.check.violations
            );
            assert!(
                r.write_success_rate() > 0.95,
                "{}: write success {:.3}",
                row.rule,
                r.write_success_rate()
            );
            assert!(r.read_success_rate() > 0.95, "{}", row.rule);
        }
    }

    #[test]
    fn rowa_writes_cost_more_messages_than_grid() {
        let rows = compute(9, 15, 22);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.rule == name)
                .map(|r| r.result.replicas_touched_avg)
                .unwrap()
        };
        // ROWA writes touch all 9 replicas; grid writes a quorum (~5).
        assert!(get("rowa") > 8.9);
        assert!(get("grid") < 7.0, "grid avg {}", get("grid"));
    }
}
