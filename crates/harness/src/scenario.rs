//! The full-protocol scenario runner: builds a replica cluster on the step
//! driver's modelled network, injects a workload and a fault plan, collects
//! the outputs, audits the run, and aggregates metrics.

use crate::checker::CheckReport;
use crate::explore::audit;
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::LoadStats;
use crate::workload::Workload;
use coterie_core::keys;
use coterie_core::{ClientRequest, Histogram, MsgClass, ProtocolConfig, ProtocolEvent, StepDriver};
use coterie_quorum::NodeId;
use coterie_simnet::{SimDuration, SimTime};

/// Everything a scenario needs.
#[derive(Clone)]
pub struct Scenario {
    /// Protocol configuration shared by all replicas.
    pub protocol: ProtocolConfig,
    /// Run seed: the engines' jitter and the network's delays.
    pub seed: u64,
    /// Pre-generated workload.
    pub workload: Workload,
    /// Pre-generated faults.
    pub faults: FaultPlan,
    /// Extra settling time after the last scheduled event.
    pub drain: SimDuration,
}

/// Aggregated results of one scenario run.
#[derive(Clone, Debug, Default)]
pub struct ScenarioResult {
    /// Committed writes.
    pub writes_ok: u64,
    /// Failed writes.
    pub writes_failed: u64,
    /// Completed reads.
    pub reads_ok: u64,
    /// Failed reads.
    pub reads_failed: u64,
    /// Messages delivered or bounced back to their sender, per *completed*
    /// operation.
    pub msgs_per_op: f64,
    /// Write latency distribution, µs.
    pub write_latency: Histogram,
    /// Read latency distribution, µs.
    pub read_latency: Histogram,
    /// Per-node received-message load.
    pub load: LoadStats,
    /// Epoch changes committed.
    pub epoch_changes: u64,
    /// Synchronous reconciliations (write-all-current baseline).
    pub sync_reconciliations: u64,
    /// Mean replicas touched per committed write.
    pub replicas_touched_avg: f64,
    /// Mean replicas marked stale per committed write.
    pub marked_stale_avg: f64,
    /// Cluster invariant violations in the final state (empty = none).
    pub invariants: Vec<String>,
    /// Consistency verdict.
    pub check: CheckReport,
}

impl ScenarioResult {
    /// Fraction of issued writes that committed.
    pub fn write_success_rate(&self) -> f64 {
        success_rate(self.writes_ok, self.writes_failed)
    }

    /// Fraction of issued reads that completed.
    pub fn read_success_rate(&self) -> f64 {
        success_rate(self.reads_ok, self.reads_failed)
    }
}

fn success_rate(ok: u64, failed: u64) -> f64 {
    match ok + failed {
        0 => 1.0,
        total => ok as f64 / total as f64,
    }
}

/// One scheduled input of a scenario run.
enum Scheduled<'a> {
    Request(NodeId, &'a ClientRequest),
    Fault(&'a FaultEvent),
}

/// Runs a scenario to completion. A request that reaches a down node is
/// dropped (the client's connection attempt fails).
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    let n = scenario.protocol.n_replicas;
    // Thread the run seed into the engine: protocol jitter is drawn from
    // the sans-I/O engine's own RNG, so distinct scenario seeds must reach
    // it for runs to decorrelate.
    let protocol = scenario.protocol.clone().rng_seed(scenario.seed);
    let mut driver = StepDriver::with_latency(n, protocol);

    // Workload and faults as one timeline; at equal times requests go first.
    let requests =
        (scenario.workload.ops.iter()).map(|(at, node, req)| (*at, Scheduled::Request(*node, req)));
    let faults = (scenario.faults.events.iter()).map(|(at, fault)| (*at, Scheduled::Fault(fault)));
    let mut timeline: Vec<_> = requests.chain(faults).collect();
    timeline.sort_by_key(|(at, _)| *at);
    let end = timeline.last().map_or(SimTime::ZERO, |(at, _)| *at) + scenario.drain;
    for (at, input) in timeline {
        driver.run_until(at);
        match input {
            Scheduled::Request(node, req) if !driver.is_down(node) => {
                driver.inject(node, req.clone())
            }
            Scheduled::Request(..) => {}
            Scheduled::Fault(fault) => fault.apply(&mut driver),
        }
    }
    driver.run_until(end);

    // Aggregate.
    let mut result = ScenarioResult::default();
    for (t, _, e) in driver.outputs() {
        match e {
            ProtocolEvent::WriteOk { id, .. } => {
                if let Some(op) = scenario.workload.issued.get(id) {
                    result.write_latency.record(t.since(op.at).micros());
                }
            }
            ProtocolEvent::ReadOk { id, .. } => {
                if let Some(op) = scenario.workload.issued.get(id) {
                    result.read_latency.record(t.since(op.at).micros());
                }
            }
            _ => {}
        }
    }
    let total = driver.metrics();
    let count = |key| total.counter(key);
    result.writes_ok = count(keys::WRITES_OK);
    result.writes_failed = count(keys::WRITES_FAILED);
    result.reads_ok = count(keys::READS_OK);
    result.reads_failed = count(keys::READS_FAILED);
    result.epoch_changes = count(keys::EPOCH_CHANGES);
    result.sync_reconciliations = count(keys::SYNC_RECONCILIATIONS);
    let msgs_sent: u64 = (MsgClass::ALL.iter())
        .map(|&class| count(keys::msgs_in(class)) + count(keys::msgs_bounced(class)))
        .sum();
    // Both sums grow only when a write commits.
    let per_write = |key| count(key) as f64 / result.writes_ok.max(1) as f64;
    result.replicas_touched_avg = per_write(keys::REPLICAS_TOUCHED_SUM);
    result.marked_stale_avg = per_write(keys::MARKED_STALE_SUM);
    let completed = result.writes_ok + result.reads_ok;
    result.msgs_per_op = if completed > 0 {
        msgs_sent as f64 / completed as f64
    } else {
        0.0
    };
    let mut received = vec![0; n];
    for (id, load) in received.iter_mut().enumerate() {
        let stats = &driver.node(NodeId(id as u32)).stats;
        for class in MsgClass::ALL {
            *load += stats.counter(keys::msgs_in(class));
        }
    }
    result.load = LoadStats::new(received);
    (result.invariants, result.check) = audit(&driver, &scenario.workload.issued);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::workload::WorkloadConfig;
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn base_scenario(seed: u64, faults: FaultPlan) -> Scenario {
        let n = 9;
        let protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
            .check_period(SimDuration::from_secs(2));
        let workload = Workload::generate(
            &WorkloadConfig {
                ops_per_sec: 20.0,
                duration: SimDuration::from_secs(20),
                seed,
                ..Default::default()
            },
            &protocol,
        );
        Scenario {
            protocol,
            seed,
            workload,
            faults,
            drain: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn fault_free_run_is_consistent_and_complete() {
        let s = base_scenario(1, FaultPlan::default());
        let r = run_scenario(&s);
        assert!(r.invariants.is_empty(), "{:?}", r.invariants);
        assert!(r.check.consistent(), "{:?}", r.check.violations);
        assert!(r.write_success_rate() > 0.99, "{r:?}");
        assert!(r.read_success_rate() > 0.99);
        assert!(r.msgs_per_op > 1.0);
        assert!(r.epoch_changes == 0, "no failures, no epoch changes");
    }

    #[test]
    fn faulty_run_stays_consistent() {
        let n = 9;
        let faults = FaultPlan::generate(
            &FaultConfig {
                lambda_per_sec: 0.05,
                mu_per_sec: 0.5,
                duration: SimDuration::from_secs(20),
                seed: 99,
            },
            n,
        );
        let s = base_scenario(2, faults);
        let r = run_scenario(&s);
        assert!(r.invariants.is_empty(), "{:?}", r.invariants);
        assert!(
            r.check.consistent(),
            "consistency violated under faults: {:?}",
            r.check.violations
        );
        assert!(r.writes_ok > 0);
        assert!(r.epoch_changes > 0, "faults should trigger epoch changes");
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let a = run_scenario(&base_scenario(7, FaultPlan::default()));
        let b = run_scenario(&base_scenario(7, FaultPlan::default()));
        assert_eq!(a.writes_ok, b.writes_ok);
        assert_eq!(a.msgs_per_op, b.msgs_per_op);
        assert_eq!(a.reads_ok, b.reads_ok);
        assert!(a.invariants.is_empty(), "{:?}", a.invariants);
    }
}
