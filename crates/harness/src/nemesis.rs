//! Nemesis soak harness: long randomized crash / partition / storage-fault
//! schedules over a [`StepDriver`] cluster, with safety re-checked after
//! every recovery and a full one-copy-serializability audit at the end.
//!
//! Each seeded run drives one cluster through a weighted random schedule
//! of message deliveries, timer firings, client operations, fail-stops,
//! recoveries, single-node partitions, and storage faults at the journal
//! boundary (failed appends, torn appends, silent bit flips). Recoveries
//! go through the checked journal replay, so torn tails are truncated and
//! corrupted journals take the stale-rejoin path — the soak proves the
//! recovery machinery preserves the protocol's invariants, not just that
//! the happy path does.
//!
//! **Fault model**: any number of nodes may crash, lose un-acknowledged
//! torn tails, or be partitioned, but *silent corruption of acknowledged
//! state* (bit flips) is confined to one designated victim node per run.
//! Quorum intersection can repair one amnesiac replica — every committed
//! write is still known to an intact member of any responder quorum — but
//! no quorum protocol survives simultaneous corruption of every copy of a
//! record, so unconstrained multi-node corruption would "find" violations
//! that are really model limits (see DESIGN.md §9).

// Harness-side bookkeeping; hash maps never feed engine effects.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use coterie_core::{
    ClientRequest, FaultKind, PartialWrite, ProtocolConfig, ProtocolEvent, ReplayVerdict, Rng64,
    StepDriver,
};
use coterie_quorum::{CoterieRule, NodeId};
use coterie_simnet::SimDuration;

use crate::checker::check_run;
use crate::explore::cluster_invariant_violations;
use crate::recorder::{capture, TraceDump};
use crate::workload::IssuedOp;

/// Pages per object: the protocol's object size and the range that
/// injected writes draw their page from.
const N_PAGES: usize = 8;

// Per-step chances (‰) of each fault. The remaining probability mass goes
// to ordinary progress (deliveries, timer firings, client operations).
/// Fail-stopping a node.
const CRASH_PER_MILLE: u16 = 12;
/// Recovering a downed node.
const RECOVER_PER_MILLE: u16 = 30;
/// Arming a one-shot storage fault.
const STORAGE_FAULT_PER_MILLE: u16 = 10;
/// Toggling a single-node partition.
const PARTITION_PER_MILLE: u16 = 6;

/// Per-node flight-recorder capacity (trace records retained per node).
const TRACE_CAP: usize = 256;

/// Driver time simulated after the schedule to let the cluster converge
/// before the final checks.
const DRAIN: SimDuration = SimDuration::from_secs(120);

/// Nemesis schedule parameters.
#[derive(Clone, Debug)]
pub struct NemesisConfig {
    /// Cluster size.
    pub n_nodes: usize,
    /// Schedule steps per run.
    pub steps: usize,
    /// Client operations injected over the schedule.
    pub client_ops: usize,
}

impl Default for NemesisConfig {
    fn default() -> Self {
        NemesisConfig {
            n_nodes: 4,
            steps: 3_000,
            client_ops: 30,
        }
    }
}

/// What one seeded nemesis schedule observed.
#[derive(Clone, Debug, Default)]
pub struct NemesisRun {
    /// The schedule seed.
    pub seed: u64,
    /// Every safety or serializability violation found (empty = clean).
    pub violations: Vec<String>,
    /// Fail-stops performed.
    pub crashes: usize,
    /// Recoveries performed.
    pub recoveries: usize,
    /// Recoveries that replayed a torn tail.
    pub torn_tails: usize,
    /// Recoveries that quarantined the journal.
    pub quarantines: usize,
    /// Stale-rejoin handshakes that completed.
    pub rejoined: usize,
    /// Storage faults that actually fired at an append.
    pub faults_fired: usize,
    /// Committed writes the checker audited.
    pub writes_committed: usize,
    /// Reads the checker verified.
    pub reads_checked: usize,
    /// Flight-recorder dump captured at the first violation (None for
    /// clean runs).
    pub trace: Option<TraceDump>,
}

impl NemesisRun {
    /// True when the run found no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate over a sweep of seeds.
#[derive(Clone, Debug, Default)]
pub struct NemesisReport {
    /// Runs executed.
    pub runs: usize,
    /// Per-run results (violating runs keep their full description).
    pub dirty: Vec<NemesisRun>,
    /// Totals across all runs.
    pub crashes: usize,
    /// Total recoveries.
    pub recoveries: usize,
    /// Total torn-tail recoveries.
    pub torn_tails: usize,
    /// Total quarantined recoveries.
    pub quarantines: usize,
    /// Total completed stale-rejoins.
    pub rejoined: usize,
    /// Total storage faults fired.
    pub faults_fired: usize,
    /// Total committed writes audited.
    pub writes_committed: usize,
    /// Total reads verified.
    pub reads_checked: usize,
}

impl NemesisReport {
    /// True when every run was clean.
    pub fn clean(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Runs one seeded nemesis schedule and returns what it saw.
pub fn run_nemesis(rule: Arc<dyn CoterieRule>, seed: u64, cfg: &NemesisConfig) -> NemesisRun {
    let n = cfg.n_nodes;
    assert!(n >= 3, "nemesis needs at least 3 nodes");
    let protocol = ProtocolConfig::new(rule, n).pages(N_PAGES).rng_seed(seed);
    let mut driver = StepDriver::new(n, protocol);
    driver.enable_tracing(TRACE_CAP);
    // The schedule RNG is independent of the engines' (different stream).
    let mut rng = Rng64::new(seed ^ 0x4E45_4D45_5349_5321);
    // Silent corruption is confined to one victim per run (see module docs).
    let victim = NodeId(rng.below(n as u64) as u32);

    let mut run = NemesisRun {
        seed,
        ..Default::default()
    };
    let mut issued: HashMap<u64, IssuedOp> = HashMap::new();
    let mut next_id = 0u64;
    let mut partitioned = false;
    let inject_gap = (cfg.steps / cfg.client_ops.max(1)).max(1) as u64;

    let crash_cut = CRASH_PER_MILLE;
    let recover_cut = crash_cut + RECOVER_PER_MILLE;
    let fault_cut = recover_cut + STORAGE_FAULT_PER_MILLE;
    let partition_cut = fault_cut + PARTITION_PER_MILLE;

    for step in 0..cfg.steps {
        let roll = rng.below(1000) as u16;
        if roll < crash_cut {
            maybe_crash(&mut driver, &mut rng, victim, &mut run);
        } else if roll < recover_cut {
            maybe_recover(&mut driver, &mut rng, step, &mut run);
            snapshot_on_violation(&driver, &mut run);
        } else if roll < fault_cut {
            arm_fault(&mut driver, &mut rng, victim);
        } else if roll < partition_cut {
            if partitioned {
                driver.heal_partition();
            } else {
                let mut islands = vec![0u8; n];
                islands[rng.below(n as u64) as usize] = 1;
                driver.set_partition(islands);
            }
            partitioned = !partitioned;
        } else {
            if next_id < cfg.client_ops as u64 && rng.below(inject_gap) == 0 {
                inject_op(&mut driver, &mut rng, &mut next_id, &mut issued);
            }
            progress(&mut driver, &mut rng);
        }
    }

    // Wind down: heal, recover everyone (through the checked replay), and
    // let the cluster converge before the final audit.
    driver.heal_partition();
    for node in (0..n as u32).map(NodeId) {
        if driver.is_down(node) {
            classify_recovery(&driver, node, &mut run);
            driver.recover(node);
            run.recoveries += 1;
        }
    }
    driver.run_for(DRAIN);

    for v in cluster_invariant_violations(&driver) {
        run.violations.push(format!("seed {seed} final state: {v}"));
    }
    let check = check_run(&issued, driver.outputs(), N_PAGES);
    run.writes_committed = check.writes_committed;
    run.reads_checked = check.reads_checked;
    for v in check.violations {
        run.violations.push(format!("seed {seed} 1SR: {v:?}"));
    }
    run.rejoined = driver
        .outputs()
        .iter()
        .filter(|(_, _, e)| matches!(e, ProtocolEvent::Rejoined { .. }))
        .count();
    run.faults_fired = (0..n as u32)
        .map(|i| driver.fired_faults(NodeId(i)).len())
        .sum();
    snapshot_on_violation(&driver, &mut run);
    run
}

/// Captures the flight recorder the first time a run turns dirty, so the
/// dump reflects the window leading up to the *first* violation.
fn snapshot_on_violation(driver: &StepDriver, run: &mut NemesisRun) {
    if run.trace.is_none() && !run.violations.is_empty() {
        run.trace = capture(driver);
    }
}

/// Sweeps `count` consecutive seeds starting at `base_seed`.
pub fn soak(
    rule: Arc<dyn CoterieRule>,
    base_seed: u64,
    count: u64,
    cfg: &NemesisConfig,
) -> NemesisReport {
    let mut report = NemesisReport::default();
    for seed in base_seed..base_seed + count {
        let run = run_nemesis(rule.clone(), seed, cfg);
        report.runs += 1;
        report.crashes += run.crashes;
        report.recoveries += run.recoveries;
        report.torn_tails += run.torn_tails;
        report.quarantines += run.quarantines;
        report.rejoined += run.rejoined;
        report.faults_fired += run.faults_fired;
        report.writes_committed += run.writes_committed;
        report.reads_checked += run.reads_checked;
        if !run.clean() {
            report.dirty.push(run);
        }
    }
    report
}

fn up_count(driver: &StepDriver) -> usize {
    (0..driver.cluster_size() as u32)
        .filter(|&i| !driver.is_down(NodeId(i)))
        .count()
}

/// Fail-stops a node if the liveness floor (2 nodes up) allows. Once the
/// victim's journal holds a fired bit flip, prefer crashing the victim so
/// the latent corruption is actually discovered by a replay.
fn maybe_crash(driver: &mut StepDriver, rng: &mut Rng64, victim: NodeId, run: &mut NemesisRun) {
    let n = driver.cluster_size();
    let victim_flipped = driver
        .fired_faults(victim)
        .iter()
        .any(|f| f.kind == FaultKind::BitFlip);
    let target = if victim_flipped && !driver.is_down(victim) {
        victim
    } else {
        NodeId(rng.below(n as u64) as u32)
    };
    if !driver.is_down(target) && up_count(driver) > 2 {
        driver.crash(target);
        run.crashes += 1;
    }
}

/// Recovers a random downed node, classifying its replay verdict first
/// and re-checking the cluster invariants right after the boot.
fn maybe_recover(driver: &mut StepDriver, rng: &mut Rng64, step: usize, run: &mut NemesisRun) {
    let downed: Vec<NodeId> = (0..driver.cluster_size() as u32)
        .map(NodeId)
        .filter(|&x| driver.is_down(x))
        .collect();
    if downed.is_empty() {
        return;
    }
    let node = downed[rng.below(downed.len() as u64) as usize];
    classify_recovery(driver, node, run);
    driver.recover(node);
    run.recoveries += 1;
    let seed = run.seed;
    for v in cluster_invariant_violations(driver) {
        run.violations.push(format!(
            "seed {seed} step {step} after recovering {node:?}: {v}"
        ));
    }
}

fn classify_recovery(driver: &StepDriver, node: NodeId, run: &mut NemesisRun) {
    match driver.replay_checked(node).verdict {
        ReplayVerdict::Clean => {}
        ReplayVerdict::TornTail { .. } => run.torn_tails += 1,
        ReplayVerdict::Quarantined { .. } => run.quarantines += 1,
    }
}

/// Arms a one-shot storage fault: crash-consistent faults (failed or torn
/// appends) on anyone, silent bit flips only on the victim.
fn arm_fault(driver: &mut StepDriver, rng: &mut Rng64, victim: NodeId) {
    let n = driver.cluster_size() as u64;
    match rng.below(3) {
        0 => driver.arm_storage_fault(NodeId(rng.below(n) as u32), FaultKind::AppendFail),
        1 => driver.arm_storage_fault(NodeId(rng.below(n) as u32), FaultKind::TornWrite),
        _ => driver.arm_storage_fault(victim, FaultKind::BitFlip),
    }
}

fn inject_op(
    driver: &mut StepDriver,
    rng: &mut Rng64,
    next_id: &mut u64,
    issued: &mut HashMap<u64, IssuedOp>,
) {
    let n = driver.cluster_size() as u32;
    let up: Vec<NodeId> = (0..n).map(NodeId).filter(|&x| !driver.is_down(x)).collect();
    let Some(&coordinator) = up.get(rng.below(up.len().max(1) as u64) as usize) else {
        return;
    };
    *next_id += 1;
    let id = *next_id;
    let at = driver.now();
    if rng.below(2) == 0 {
        issued.insert(
            id,
            IssuedOp {
                id,
                at,
                coordinator,
                write: None,
            },
        );
        driver.inject(coordinator, ClientRequest::Read { id });
    } else {
        let page = rng.below(N_PAGES as u64) as u16;
        let write = PartialWrite::new([(page, Bytes::from(rng.next_u64().to_le_bytes().to_vec()))]);
        issued.insert(
            id,
            IssuedOp {
                id,
                at,
                coordinator,
                write: Some(write.clone()),
            },
        );
        driver.inject(coordinator, ClientRequest::Write { id, write });
    }
}

/// One unit of ordinary progress: deliver a random in-flight message,
/// else fire a random armed timer, else let time pass.
fn progress(driver: &mut StepDriver, rng: &mut Rng64) {
    let msgs = driver.pending_messages().len();
    if msgs > 0 {
        driver.deliver(rng.below(msgs as u64) as usize);
        return;
    }
    let timers = driver.pending_timers().len();
    if timers > 0 {
        driver.fire(rng.below(timers as u64) as usize);
    } else {
        driver.advance(SimDuration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_quorum::{GridCoterie, MajorityCoterie};

    #[test]
    fn short_soak_is_clean_on_grid() {
        let cfg = NemesisConfig {
            steps: 800,
            client_ops: 10,
            ..Default::default()
        };
        let report = soak(Arc::new(GridCoterie::new()), 0xBEEF, 3, &cfg);
        assert!(report.clean(), "violations: {:#?}", report.dirty);
        assert!(report.crashes > 0 && report.recoveries > 0);
    }

    #[test]
    fn short_soak_is_clean_on_majority() {
        let cfg = NemesisConfig {
            n_nodes: 5,
            steps: 800,
            client_ops: 10,
        };
        let report = soak(Arc::new(MajorityCoterie::new()), 0xFEED, 3, &cfg);
        assert!(report.clean(), "violations: {:#?}", report.dirty);
    }

    /// Regression: majority/5 at seed 9 with a long schedule once produced
    /// a stale read — a quarantined participant's pre-crash 2PC vote
    /// anchored a commit its rejoin poll did not cover. The fix reports
    /// responder locks and prepared slots in rejoin answers; this schedule
    /// must stay clean.
    #[test]
    fn seed9_majority_amnesiac_vote_regression() {
        let cfg = NemesisConfig {
            n_nodes: 5,
            steps: 2_000,
            ..Default::default()
        };
        let run = run_nemesis(Arc::new(MajorityCoterie::new()), 9, &cfg);
        assert!(run.clean(), "violations: {:#?}", run.violations);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = NemesisConfig {
            steps: 600,
            client_ops: 8,
            ..Default::default()
        };
        let a = run_nemesis(Arc::new(GridCoterie::new()), 7, &cfg);
        let b = run_nemesis(Arc::new(GridCoterie::new()), 7, &cfg);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.quarantines, b.quarantines);
        assert_eq!(a.writes_committed, b.writes_committed);
        assert_eq!(a.violations, b.violations);
    }
}
