//! Targeted crash-recovery tests for the two-phase-commit machinery: the
//! paper relies on textbook atomic commit ([2]); these tests pin down the
//! blocking-2PC behaviours our implementation must get right — durable
//! prepared actions, presumed abort, decision-log recovery, and the lock
//! fencing of in-doubt transactions.

mod common;

use bytes::Bytes;
use common::Cluster;
use coterie_base::{SimDuration, SimTime};
use coterie_core::{
    keys, ClientRequest, FaultKind, Mode, PartialWrite, ProtocolConfig, ProtocolEvent, StepDriver,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use std::sync::Arc;

fn cluster(n: usize, seed: u64, check_secs: u64) -> Cluster {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), n)
        .check_period(SimDuration::from_secs(check_secs));
    Cluster::new(n, config, seed)
}

fn w(id: u64, data: &str) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::copy_from_slice(data.as_bytes()))]),
    }
}

#[test]
fn coordinator_crash_before_decision_presumed_aborts() {
    let mut sim = cluster(3, 1, 60);
    // Let a write run its permission phase, then kill the coordinator
    // right as prepares go out (~3-5 ms in): participants may have
    // prepared but no decision was logged.
    sim.inject(NodeId(0), w(1, "doomed"));
    sim.run_until(SimTime(4_000));
    sim.crash(NodeId(0));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    // Recover the coordinator: participants (and the coordinator itself,
    // if it prepared) must resolve via the decision log — presumed abort.
    sim.recover(NodeId(0));
    sim.run_for(SimDuration::from_secs(5));
    for id in 0..3u32 {
        let node = sim.node(NodeId(id));
        assert!(
            node.durable.prepared.is_none(),
            "node {id} stuck in-doubt after coordinator recovery"
        );
    }
    // Versions are 0 or 1 only (the write either aborted or committed);
    // no replica can have invented other versions.
    for id in 0..3u32 {
        assert!(sim.node(NodeId(id)).durable.version <= 1);
    }
    // A fresh write works afterwards.
    sim.inject(NodeId(1), w(2, "after"));
    sim.run_for(SimDuration::from_secs(2));
    let ok = sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 2, .. }));
    assert!(ok, "system must recover to a writable state");
}

#[test]
fn participant_crash_after_prepare_recovers_the_outcome() {
    let mut sim = cluster(3, 2, 60);
    sim.inject(NodeId(0), w(1, "x"));
    sim.run_for(SimDuration::from_secs(1));
    let evs = sim.take_outputs();
    assert!(evs
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1, .. })));
    // Crash a participant and recover it: no in-doubt state, and its
    // durable replica state is intact.
    let v_before = sim.node(NodeId(1)).durable.version;
    sim.crash(NodeId(1));
    sim.recover(NodeId(1));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.node(NodeId(1)).durable.version, v_before);
    assert!(sim.node(NodeId(1)).durable.prepared.is_none());
}

/// A node comes back from its journal alone: a crash as a write starts
/// recovers the node to what its journal committed. Then a torn commit at
/// another node fail-stops it until it is restarted, and every journal
/// ends up reproducing exactly what its node holds. (On the threaded host,
/// where a node cannot mark itself down, the torn commit silences it
/// instead: `threaded.rs`.)
#[test]
fn journaled_host_recovers_exactly_what_its_journal_committed() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .check_period(SimDuration::from_secs(60));
    let mut sim = Cluster::new(3, config, 6);
    let committed = |sim: &mut Cluster, id: u64| {
        sim.take_outputs()
            .iter()
            .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: i, .. } if *i == id))
    };
    sim.inject(NodeId(0), w(1, "kept"));
    sim.run_for(SimDuration::from_secs(1));
    assert!(committed(&mut sim, 1), "first write");

    // Crash the coordinator as its next write starts.
    sim.inject(NodeId(0), w(2, "doomed"));
    let on_disk = sim.replay_journal(NodeId(0));
    sim.crash(NodeId(0));
    sim.recover(NodeId(0));
    assert_eq!(sim.node(NodeId(0)).durable, on_disk);

    // A torn commit fail-stops node 2 from the inside: its next write
    // starts with a journal commit. The other two still form a majority.
    sim.arm_storage_fault(NodeId(2), FaultKind::TornWrite);
    sim.inject(NodeId(2), w(3, "swallowed"));
    assert!(sim.is_down(NodeId(2)), "a torn commit is fail-stop");
    sim.inject(NodeId(1), w(4, "after"));
    sim.run_for(SimDuration::from_secs(5));
    assert!(committed(&mut sim, 4), "write after the faults");
    assert!(
        sim.node(NodeId(2)).durable.version < sim.node(NodeId(1)).durable.version,
        "the stopped node cannot have applied the write"
    );
    sim.recover(NodeId(2));
    sim.run_for(SimDuration::from_secs(5));

    for id in (0..3u32).map(NodeId) {
        assert_eq!(
            sim.replay_journal(id),
            sim.node(id).durable,
            "{id:?} journal replay differs from live state"
        );
        assert!(!sim.node(id).durable.stale, "{id:?} left stale");
    }
}

/// A decision the journal never took dies with the crash: the append of
/// the very step that decides a write fails, so the coordinator's memory
/// holds a decision its journal does not. Recovery installs the replayed
/// state, and no later delta may carry the lost decision — the per-step
/// record of decisions must not leak across `install_durable`.
#[test]
fn recovery_forgets_the_decision_whose_append_failed() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .check_period(SimDuration::from_secs(60));
    let mut driver = StepDriver::new(3, config);
    let coord = NodeId(0);
    let decided = |d: &StepDriver| d.node(coord).durable.decisions.clone();
    driver.inject(coord, w(1, "kept"));
    driver.run_for(SimDuration::from_secs(1));
    let kept = decided(&driver);
    assert_eq!(kept.len(), 1);

    // Deliver message by message up to the one whose step decides write 2
    // (found on a fork of the driver), then fail that step's append.
    driver.inject(coord, w(2, "lost"));
    loop {
        let mut probe = driver.clone();
        probe.deliver(0);
        if decided(&probe).len() > kept.len() {
            break;
        }
        driver.deliver(0);
    }
    driver.arm_storage_fault(coord, FaultKind::AppendFail);
    driver.deliver(0);
    assert!(driver.is_down(coord), "a failed append is fail-stop");
    assert_eq!(decided(&driver).len(), 2, "decided in memory only");
    assert_eq!(driver.replay_journal(coord).decisions, kept);

    driver.recover(coord);
    assert_eq!(
        decided(&driver),
        kept,
        "recovery installs the journal's view"
    );
    assert_eq!(driver.replay_journal(coord), driver.node(coord).durable);
    driver.run_for(SimDuration::from_secs(5));
    driver.inject(coord, w(3, "after"));
    driver.run_for(SimDuration::from_secs(2));
    assert!(driver
        .outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 3, .. })));
    for id in 0..3u32 {
        let n = NodeId(id);
        assert_eq!(
            driver.replay_journal(n),
            driver.node(n).durable,
            "node {id}"
        );
        assert!(
            driver.node(n).durable.prepared.is_none(),
            "node {id} in doubt"
        );
    }
    assert_eq!(
        decided(&driver).len(),
        kept.len() + 1,
        "only write 3 was decided after recovery"
    );
}

#[test]
fn many_coordinator_crashes_never_wedge_the_system() {
    // Fuzz the vulnerable window: writes arrive steadily while the
    // coordinator of every third write crashes shortly after starting and
    // recovers a second later.
    enum Step {
        Write(u64),
        Crash,
        Recover,
    }
    let mut sim = cluster(5, 3, 4);
    let mut timeline = Vec::new();
    for i in 0..30u64 {
        let coord = NodeId((i % 5) as u32);
        let at = SimTime(i * 400_000);
        timeline.push((at, coord, Step::Write(i)));
        if i % 3 == 0 {
            timeline.push((SimTime(at.micros() + 3_000), coord, Step::Crash));
            timeline.push((SimTime(at.micros() + 1_000_000), coord, Step::Recover));
        }
    }
    timeline.sort_by_key(|(at, _, _)| *at);
    for (at, node, step) in timeline {
        match step {
            Step::Write(i) => sim.inject_at(at, node, w(i, &format!("v{i}"))),
            Step::Crash => {
                sim.run_until(at);
                sim.crash(node);
            }
            Step::Recover => {
                sim.run_until(at);
                sim.recover(node);
            }
        }
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));
    // No replica may be left in-doubt or locked out: a final write from
    // every node must succeed.
    for id in 0..5u32 {
        assert!(
            sim.node(NodeId(id)).durable.prepared.is_none(),
            "node {id} left in-doubt"
        );
    }
    sim.take_outputs();
    sim.inject(NodeId(2), w(1000, "final"));
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1000, .. })));
    // And the committed-version history is still gap-free: replay versions.
    let max_v = (0..5u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .max()
        .unwrap();
    assert!(
        max_v >= 10,
        "most writes should have committed, got {max_v}"
    );
}

#[test]
fn static_mode_never_runs_epoch_checks() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).static_mode();
    assert!(matches!(config.mode, Mode::Static));
    let mut sim = Cluster::new(4, config, 4);
    sim.crash(NodeId(3));
    sim.run_for(SimDuration::from_secs(30));
    for id in 0..3u32 {
        assert_eq!(sim.node(NodeId(id)).durable.enumber, 0);
        assert_eq!(sim.node(NodeId(id)).stats.counter(keys::EPOCH_CHANGES), 0);
    }
}

#[test]
fn safety_threshold_extras_receive_the_update() {
    // With threshold = 3 on a 9-node grid, every committed write must land
    // on at least 3 replicas whenever 3 are reachable, even if the quorum's
    // good set was smaller.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
        .check_period(SimDuration::from_secs(2))
        .safety(3);
    let mut sim = Cluster::new(9, config, 5);
    for i in 0..15u64 {
        sim.inject_at(
            SimTime(i * 300_000),
            NodeId((i % 9) as u32),
            w(i, &format!("d{i}")),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    let evs = sim.take_outputs();
    let oks: Vec<usize> = evs
        .iter()
        .filter_map(|(_, _, e)| match e {
            ProtocolEvent::WriteOk {
                replicas_touched, ..
            } => Some(*replicas_touched),
            _ => None,
        })
        .collect();
    assert_eq!(oks.len(), 15);
    // Count holders of the max version: must be >= 3.
    let max_v = (0..9u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .max()
        .unwrap();
    let holders = (0..9u32)
        .filter(|&i| sim.node(NodeId(i)).durable.version == max_v)
        .count();
    assert!(holders >= 3, "only {holders} hold the newest version");
}
