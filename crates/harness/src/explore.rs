//! Bounded interleaving exploration over the sans-I/O engine.
//!
//! `StepDriver::run_for` samples *one* schedule per seed; this module instead
//! walks the tree of schedules. From every reached cluster state it forks
//! the [`StepDriver`] and tries each enabled event — every pending message
//! delivery, every armed timer, and (under a budget) crashing or
//! recovering a replica — deduplicating revisited states by digest.
//!
//! At every state it asserts the **epoch-safety invariant** (two replicas
//! in the same epoch number agree on the epoch list, and two current
//! replicas at the same version hold identical objects); at the end of
//! every explored schedule it drains the cluster deterministically and
//! runs the **one-copy-serializability checker** over the complete output
//! history. A clean report therefore says: on every explored interleaving
//! of this workload, the protocol never tore an epoch and never produced a
//! non-serializable run.

// Explorer frontier/dedup tables are tool-side state (digests are already
// canonical strings); hash collections are fine here.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};

use coterie_core::{DriverEvent, ReplayVerdict, StepDriver};
use coterie_quorum::NodeId;
use coterie_simnet::SimDuration;

use crate::checker::{check_run, CheckReport};
use crate::workload::IssuedOp;

/// How much driver time the deterministic drain at the end of each
/// schedule simulates before the 1SR check runs.
const DRAIN: SimDuration = SimDuration::from_secs(30);

/// Exploration bounds and fault options.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Maximum schedule length (events from the root) before a branch is
    /// force-drained and checked.
    pub max_depth: usize,
    /// Maximum distinct states to visit; exploration truncates beyond it.
    pub max_states: usize,
    /// Crash events allowed per schedule.
    pub crash_budget: usize,
    /// Nodes the explorer may crash (and later recover).
    pub crashable: Vec<NodeId>,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            max_depth: 24,
            max_states: 50_000,
            crash_budget: 0,
            crashable: Vec::new(),
        }
    }
}

/// What an exploration saw.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Distinct cluster states visited (after dedup).
    pub distinct_states: usize,
    /// Schedules explored: every maximal path, whether it ended quiescent,
    /// hit the depth bound, merged into a visited state, or was truncated.
    pub schedules: usize,
    /// Schedules whose drained output history went through the 1SR checker.
    pub schedules_checked: usize,
    /// True if `max_states` stopped the walk before exhausting the tree.
    pub truncated: bool,
    /// Human-readable descriptions of every violation found.
    pub violations: Vec<String>,
}

impl ExploreReport {
    /// True when no invariant or serializability violation was found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively (within bounds) explores schedules of `driver`'s cluster.
///
/// `driver` should already have the workload injected; `issued` is the
/// checker's view of that workload.
pub fn explore(
    driver: &StepDriver,
    issued: &HashMap<u64, IssuedOp>,
    config: &ExplorerConfig,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(driver.state_digest());
    report.distinct_states = 1;
    check_invariants(driver, &mut report);
    dfs(driver, 0, 0, &mut visited, issued, config, &mut report);
    report
}

/// Caps the violation list so a badly broken protocol doesn't drown the
/// report (and the explorer short-circuits once it is pointless).
const MAX_VIOLATIONS: usize = 32;

fn dfs(
    driver: &StepDriver,
    depth: usize,
    crashes_used: usize,
    visited: &mut HashSet<u64>,
    issued: &HashMap<u64, IssuedOp>,
    config: &ExplorerConfig,
    report: &mut ExploreReport,
) {
    if report.violations.len() >= MAX_VIOLATIONS {
        return;
    }

    let events = enabled_events(driver, crashes_used, config);
    if events.is_empty() || depth >= config.max_depth {
        finish_schedule(driver, issued, report);
        return;
    }

    for event in events {
        if visited.len() >= config.max_states {
            report.truncated = true;
            report.schedules += 1;
            return;
        }
        if report.violations.len() >= MAX_VIOLATIONS {
            return;
        }
        let mut next = driver.clone();
        next.perform(event);
        if visited.insert(next.state_digest()) {
            report.distinct_states += 1;
            check_invariants(&next, report);
            let crashed = matches!(event, DriverEvent::Crash(_)) as usize;
            dfs(
                &next,
                depth + 1,
                crashes_used + crashed,
                visited,
                issued,
                config,
                report,
            );
        } else {
            // This schedule merged into an already-explored state; its
            // future is covered by the first visit.
            report.schedules += 1;
        }
    }
}

fn enabled_events(
    driver: &StepDriver,
    crashes_used: usize,
    config: &ExplorerConfig,
) -> Vec<DriverEvent> {
    let deliveries = (0..driver.pending_messages().len()).map(DriverEvent::Deliver);
    let firings = (0..driver.pending_timers().len()).map(DriverEvent::Fire);
    let mut events: Vec<DriverEvent> = deliveries.chain(firings).collect();
    for &node in &config.crashable {
        if driver.is_down(node) {
            events.push(DriverEvent::Recover(node));
        } else if crashes_used < config.crash_budget {
            events.push(DriverEvent::Crash(node));
        }
    }
    events
}

/// Ends a schedule: settle the cluster, then audit the complete output
/// history.
fn finish_schedule(
    driver: &StepDriver,
    issued: &HashMap<u64, IssuedOp>,
    report: &mut ExploreReport,
) {
    report.schedules += 1;
    let mut fin = driver.clone();
    settle(&mut fin, DRAIN);
    let (invariants, check) = audit(&fin, issued);
    for v in invariants {
        push_violation(report, v);
    }
    report.schedules_checked += 1;
    for v in check.violations {
        push_violation(report, format!("1SR violation: {v:?}"));
    }
}

/// Per-state safety invariants over all replicas' **durable** state (a
/// down replica's disk still exists and must stay consistent):
///
/// 1. *Epoch agreement*: replicas with equal epoch numbers have equal
///    epoch lists — the atomic-epoch-installation guarantee of §4.3.
/// 2. *Current-replica coherence*: two non-stale replicas at the same
///    version hold byte-identical objects — versions name object states.
///
/// Returns a description of every violated pair. Checked by the explorer
/// at every distinct state, by the nemesis soak harness after every
/// recovery, and by [`audit`] at the end of every harness run.
pub fn cluster_invariant_violations(driver: &StepDriver) -> Vec<String> {
    let mut violations = Vec::new();
    let n = driver.cluster_size();
    let durable = |i: usize| &driver.node(NodeId(i as u32)).durable;
    for a in 0..n {
        for b in (a + 1)..n {
            let (da, db) = (durable(a), durable(b));
            if da.enumber == db.enumber && da.elist != db.elist {
                violations.push(format!(
                    "epoch safety: nodes {a} and {b} both in epoch {} but lists {:?} vs {:?}",
                    da.enumber, da.elist, db.elist
                ));
            }
            if da.version == db.version
                && !da.stale
                && !db.stale
                && da.object.digest() != db.object.digest()
            {
                violations.push(format!(
                    "coherence: nodes {a} and {b} both current at version {} with \
                     different contents",
                    da.version
                ));
            }
        }
    }
    violations
}

/// Ends a run the one way every harness runner does: heal all partitions,
/// recover each down node in node order (checked journal replay first,
/// then the boot), and let the cluster run for `drain` so blocked
/// operations resolve. Returns the replay verdicts, in node order.
pub fn settle(driver: &mut StepDriver, drain: SimDuration) -> Vec<ReplayVerdict> {
    driver.heal_partition();
    let mut verdicts = Vec::new();
    for node in (0..driver.cluster_size() as u32).map(NodeId) {
        if driver.is_down(node) {
            verdicts.push(driver.replay_checked(node).verdict);
            driver.recover(node);
        }
    }
    driver.run_for(drain);
    verdicts
}

/// Judges a run the one way every harness runner does: the
/// [`cluster_invariant_violations`] of its final state, then the 1SR
/// checker over its output history at the cluster's own page count.
pub fn audit(driver: &StepDriver, issued: &HashMap<u64, IssuedOp>) -> (Vec<String>, CheckReport) {
    let n_pages = driver.node(NodeId(0)).config.n_pages;
    (
        cluster_invariant_violations(driver),
        check_run(issued, driver.outputs(), n_pages),
    )
}

fn check_invariants(driver: &StepDriver, report: &mut ExploreReport) {
    for v in cluster_invariant_violations(driver) {
        push_violation(report, v);
    }
}

fn push_violation(report: &mut ExploreReport, v: String) {
    if report.violations.len() < MAX_VIOLATIONS {
        report.violations.push(v);
    }
}
