//! End-to-end protocol tests on the step driver's modelled network: happy-path
//! reads and writes, stale marking and propagation, epoch changes under
//! failures, partitions, crash recovery, and one-copy serializability.

mod common;

use bytes::Bytes;
use common::Cluster;
use coterie_base::{SimDuration, SimTime};
use coterie_core::{
    ClientRequest, FailReason, PartialWrite, ProtocolConfig, ProtocolEvent, TraceEvent,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId, RowaCoterie};
use std::collections::BTreeMap;
use std::sync::Arc;

fn grid_cluster(n: usize, seed: u64) -> Cluster {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(2));
    Cluster::new(n, config, seed)
}

fn majority_cluster(n: usize, seed: u64) -> Cluster {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), n)
        .check_period(SimDuration::from_secs(2));
    Cluster::new(n, config, seed)
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn write_req(id: u64, page: u16, data: &str) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(page, b(data))]),
    }
}

/// Drains outputs, separating successes and failures.
fn events(sim: &mut Cluster) -> Vec<ProtocolEvent> {
    sim.take_outputs().into_iter().map(|(_, _, e)| e).collect()
}

fn write_oks(events: &[ProtocolEvent]) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::WriteOk { id, version, .. } => Some((*id, *version)),
            _ => None,
        })
        .collect()
}

fn read_oks(events: &[ProtocolEvent]) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::ReadOk { id, version, .. } => Some((*id, *version)),
            _ => None,
        })
        .collect()
}

fn failures(events: &[ProtocolEvent]) -> Vec<(u64, FailReason)> {
    events
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::Failed { id, reason } => Some((*id, *reason)),
            _ => None,
        })
        .collect()
}

#[test]
fn single_write_commits_and_read_sees_it() {
    let mut sim = grid_cluster(9, 1);
    sim.inject(NodeId(0), write_req(1, 0, "hello"));
    sim.run_for(SimDuration::from_millis(500));
    sim.inject(NodeId(4), ClientRequest::Read { id: 2 });
    sim.run_for(SimDuration::from_millis(500));
    let evs = events(&mut sim);
    assert_eq!(write_oks(&evs), vec![(1, 1)]);
    let reads = read_oks(&evs);
    assert_eq!(reads, vec![(2, 1)]);
    let page = evs.iter().find_map(|e| match e {
        ProtocolEvent::ReadOk { pages, .. } => Some(pages[0].clone()),
        _ => None,
    });
    assert_eq!(page.unwrap(), b("hello"));
    assert!(failures(&evs).is_empty());
}

#[test]
fn sequential_writes_get_increasing_contiguous_versions() {
    let mut sim = grid_cluster(9, 2);
    // Issue from different coordinators, spaced out to avoid contention.
    for i in 0..20u64 {
        sim.inject_at(
            SimTime(i * 300_000),
            NodeId((i % 9) as u32),
            write_req(i, (i % 4) as u16, &format!("v{i}")),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let evs = events(&mut sim);
    let mut oks = write_oks(&evs);
    oks.sort_by_key(|&(_, v)| v);
    assert_eq!(
        oks.len(),
        20,
        "all writes should commit: {:?}",
        failures(&evs)
    );
    for (i, &(_, v)) in oks.iter().enumerate() {
        assert_eq!(v as usize, i + 1, "versions must be contiguous");
    }
}

#[test]
fn different_quorums_cause_stale_marking_and_propagation_catches_up() {
    let mut sim = grid_cluster(9, 3);
    let mut marked = 0u64;
    for i in 0..12u64 {
        sim.inject_at(
            SimTime(i * 400_000),
            NodeId((i % 9) as u32),
            write_req(i, 0, &format!("v{i}")),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
    let evs = events(&mut sim);
    assert_eq!(write_oks(&evs).len(), 12);
    for e in &evs {
        if let ProtocolEvent::WriteOk { marked_stale, .. } = e {
            marked += *marked_stale as u64;
        }
    }
    assert!(
        marked > 0,
        "rotating grid quorums must encounter behind replicas and mark them stale"
    );
    // Propagation must eventually clear every stale flag. (Replicas that
    // never landed in any quorum may legitimately sit behind un-stale —
    // the paper's protocol only repairs replicas it has marked.)
    sim.run_for(SimDuration::from_secs(30));
    let mut at_latest = 0;
    for id in 0..9u32 {
        let node = sim.node(NodeId(id));
        assert!(
            !node.durable.stale,
            "node {id} still stale after quiescence"
        );
        if node.durable.version == 12 {
            at_latest += 1;
        }
    }
    // Every marked-stale replica was caught up to 12, so a write quorum's
    // worth of replicas (>= 5 of 9) must be fully current.
    assert!(at_latest >= 5, "only {at_latest} replicas reached v12");
    // And a read still sees the latest data regardless.
    sim.inject(NodeId(8), ClientRequest::Read { id: 999 });
    sim.run_for(SimDuration::from_secs(1));
    let evs = events(&mut sim);
    assert_eq!(read_oks(&evs), vec![(999, 12)]);
}

#[test]
fn reads_never_return_stale_data() {
    let mut sim = grid_cluster(9, 4);
    let mut expected_version = 0u64;
    for round in 0..10u64 {
        sim.inject(
            NodeId((round % 9) as u32),
            write_req(round, 0, &format!("r{round}")),
        );
        sim.run_for(SimDuration::from_millis(300));
        expected_version += 1;
        sim.inject(
            NodeId(((round + 3) % 9) as u32),
            ClientRequest::Read { id: 100 + round },
        );
        sim.run_for(SimDuration::from_millis(300));
        let evs = events(&mut sim);
        let reads = read_oks(&evs);
        assert_eq!(
            reads,
            vec![(100 + round, expected_version)],
            "read after write {round} returned wrong version"
        );
    }
}

#[test]
fn writes_survive_node_failures_via_epoch_change() {
    let mut sim = grid_cluster(9, 5);
    // Warm up with one write.
    sim.inject(NodeId(0), write_req(0, 0, "x"));
    sim.run_for(SimDuration::from_secs(1));
    // Kill three nodes at once — but not a full column and not one node
    // from every column, either of which would (correctly!) destroy every
    // write quorum of the 9-epoch and freeze it. {3, 6, 7} leaves column 3
    // ({2, 5, 8}) fully alive.
    for &v in &[3u32, 6, 7] {
        sim.crash(NodeId(v));
    }
    // Let epoch checking notice (period 2 s for rank 0 + jitter).
    sim.run_for(SimDuration::from_secs(10));
    let evs = events(&mut sim);
    let epochs: Vec<_> = evs
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::EpochInstalled { enumber, members } => Some((*enumber, members.len())),
            _ => None,
        })
        .collect();
    assert!(
        epochs.iter().any(|&(_, len)| len == 6),
        "a 6-member epoch must form, saw {epochs:?}"
    );
    // Writes now succeed even though a whole original column is dead
    // (the static grid protocol would be stuck: no full column available).
    sim.inject(NodeId(0), write_req(1, 1, "after"));
    sim.run_for(SimDuration::from_secs(2));
    let evs = events(&mut sim);
    assert_eq!(write_oks(&evs).len(), 1, "failures: {:?}", failures(&evs));
}

#[test]
fn static_mode_blocks_when_a_column_dies() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9).static_mode();
    let mut sim = Cluster::new(9, config, 6);
    for &v in &[1u32, 4, 7] {
        sim.crash(NodeId(v));
    }
    sim.inject_at(SimTime(1000), NodeId(0), write_req(1, 0, "w"));
    sim.run_for(SimDuration::from_secs(5));
    let evs = events(&mut sim);
    assert!(write_oks(&evs).is_empty());
    let fails = failures(&evs);
    assert_eq!(fails.len(), 1);
    assert_eq!(fails[0].1, FailReason::NoQuorum);
}

#[test]
fn gradual_failures_leave_three_survivors_still_writable() {
    // The headline fault-tolerance claim: with epoch adjustment between
    // failures, the system stays available down to 3 nodes (grid).
    let mut sim = grid_cluster(9, 7);
    sim.inject(NodeId(0), write_req(0, 0, "start"));
    sim.run_for(SimDuration::from_secs(1));
    let _ = events(&mut sim); // drain the warm-up write's event
    for (i, victim) in [8u32, 7, 6, 5, 4, 3].iter().enumerate() {
        sim.crash(NodeId(*victim));
        // Give epoch checking time to adjust after each failure.
        sim.run_for(SimDuration::from_secs(12));
        sim.inject(NodeId(0), write_req(10 + i as u64, 0, &format!("after{i}")));
        sim.run_for(SimDuration::from_secs(2));
        let evs = events(&mut sim);
        assert_eq!(
            write_oks(&evs).len(),
            1,
            "write after {} failures should commit: {:?}",
            i + 1,
            failures(&evs)
        );
    }
    // Only nodes 0, 1, 2 remain; the epoch should be exactly them.
    let survivors = sim.node(NodeId(0)).durable.elist.clone();
    assert_eq!(survivors, vec![NodeId(0), NodeId(1), NodeId(2)]);
}

#[test]
fn minority_partition_cannot_write_majority_can() {
    let mut sim = majority_cluster(5, 8);
    sim.inject(NodeId(0), write_req(0, 0, "base"));
    sim.run_for(SimDuration::from_secs(1));
    // Partition {3, 4} away.
    sim.set_partition(vec![0, 0, 0, 1, 1]);
    sim.run_for(SimDuration::from_secs(10)); // epoch shrinks to {0,1,2}
    let _ = events(&mut sim);
    sim.inject(NodeId(0), write_req(1, 0, "major"));
    sim.inject(NodeId(3), write_req(2, 0, "minor"));
    sim.run_for(SimDuration::from_secs(3));
    let evs = events(&mut sim);
    let oks = write_oks(&evs);
    assert_eq!(oks.len(), 1, "only the majority side commits: {evs:?}");
    assert_eq!(oks[0].0, 1);
    let fails = failures(&evs);
    assert!(fails.iter().any(|&(id, _)| id == 2), "minority write fails");

    // Heal: the partitioned nodes rejoin and catch up.
    sim.heal_partition();
    sim.run_for(SimDuration::from_secs(30));
    let _ = events(&mut sim);
    for id in 0..5u32 {
        let node = sim.node(NodeId(id));
        assert_eq!(node.durable.version, 2, "node {id} must converge");
        assert!(!node.durable.stale);
        assert_eq!(node.durable.elist.len(), 5, "epoch must re-expand");
    }
}

#[test]
fn crashed_node_recovers_and_is_reabsorbed() {
    let mut sim = grid_cluster(4, 9);
    sim.inject(NodeId(0), write_req(0, 0, "a"));
    sim.run_for(SimDuration::from_secs(1));
    sim.crash(NodeId(3));
    sim.run_for(SimDuration::from_secs(10));
    sim.inject(NodeId(0), write_req(1, 1, "b"));
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.node(NodeId(0)).durable.elist.len(), 3);
    sim.recover(NodeId(3));
    sim.run_for(SimDuration::from_secs(20));
    let node3 = sim.node(NodeId(3));
    assert_eq!(node3.durable.elist.len(), 4, "recovered node rejoins");
    assert_eq!(node3.durable.version, 2, "recovered node catches up");
    assert!(!node3.durable.stale);
}

#[test]
fn rowa_reads_are_one_node_and_writes_touch_all() {
    let config = ProtocolConfig::new(Arc::new(RowaCoterie::new()), 4)
        .check_period(SimDuration::from_secs(2));
    let mut sim = Cluster::new(4, config, 10);
    sim.inject(NodeId(1), write_req(0, 0, "w"));
    sim.run_for(SimDuration::from_secs(1));
    let evs = events(&mut sim);
    let oks = write_oks(&evs);
    assert_eq!(oks.len(), 1);
    if let Some(ProtocolEvent::WriteOk {
        replicas_touched, ..
    }) = evs
        .iter()
        .find(|e| matches!(e, ProtocolEvent::WriteOk { .. }))
    {
        assert_eq!(*replicas_touched, 4);
    }
    sim.inject(NodeId(2), ClientRequest::Read { id: 1 });
    sim.run_for(SimDuration::from_secs(1));
    let evs = events(&mut sim);
    assert_eq!(read_oks(&evs), vec![(1, 1)]);
}

#[test]
fn concurrent_writes_serialize() {
    let mut sim = grid_cluster(9, 11);
    // Fire 6 writes at the same instant from different coordinators.
    for i in 0..6u64 {
        sim.inject(NodeId(i as u32), write_req(i, 0, &format!("c{i}")));
    }
    sim.run_for(SimDuration::from_secs(20));
    let evs = events(&mut sim);
    let mut oks = write_oks(&evs);
    let fails = failures(&evs);
    // Everyone either commits (serialized by locks, with retries) or gives
    // up with a contention failure; versions of committed writes are
    // distinct and contiguous from 1.
    oks.sort_by_key(|&(_, v)| v);
    for (i, &(_, v)) in oks.iter().enumerate() {
        assert_eq!(v as usize, i + 1);
    }
    assert_eq!(oks.len() + fails.len(), 6);
    assert!(!oks.is_empty(), "at least one concurrent write must win");
}

#[test]
fn deterministic_replay() {
    let run = |seed| {
        let mut sim = grid_cluster(9, seed);
        for i in 0..10u64 {
            if i == 8 {
                sim.run_until(SimTime(1_500_000));
                sim.crash(NodeId(2));
            }
            sim.inject_at(
                SimTime(i * 200_000),
                NodeId((i % 9) as u32),
                write_req(i, 0, &format!("d{i}")),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        sim.take_outputs()
            .into_iter()
            .map(|(t, n, e)| format!("{t:?} {n:?} {e:?}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn write_failure_reported_when_too_few_nodes_up() {
    let mut sim = majority_cluster(5, 12);
    sim.inject(NodeId(0), write_req(0, 0, "x"));
    sim.run_for(SimDuration::from_secs(1));
    // Kill 4 of 5 instantly: epoch cannot adjust fast enough (majority of
    // the 5-epoch is gone), so writes must fail.
    for v in 1..5u32 {
        sim.crash(NodeId(v));
    }
    sim.inject(NodeId(0), write_req(1, 0, "y"));
    sim.run_for(SimDuration::from_secs(5));
    let evs = events(&mut sim);
    let fails = failures(&evs);
    assert!(
        fails
            .iter()
            .any(|&(id, r)| id == 1 && r == FailReason::NoQuorum),
        "write must fail with NoQuorum: {evs:?}"
    );
}

/// How many epoch checks each node started over the next `window`, read
/// from the `EpochCheckStart` records of the nodes' flight recorders.
fn checks_started_over(sim: &mut Cluster, window: SimDuration) -> BTreeMap<NodeId, usize> {
    let since = sim.now();
    sim.run_for(window);
    let mut started = BTreeMap::new();
    for id in 0..sim.cluster_size() as u32 {
        let ring = sim.trace_ring(NodeId(id)).expect("tracing is on");
        let n = ring
            .records()
            .filter(|r| r.at >= since && matches!(r.event, TraceEvent::EpochCheckStart { .. }))
            .count();
        started.insert(NodeId(id), n);
    }
    started
}

/// Asserts the rank-stagger pattern over a window of `periods` check
/// periods: `node` started more checks than any other node, and a check
/// started at most once a period (plus one for two ticks that land within
/// a message delay of each other).
fn assert_leads(started: &BTreeMap<NodeId, usize>, node: NodeId, periods: usize, when: &str) {
    assert!(
        started
            .iter()
            .all(|(&other, &n)| other == node || n < started[&node]),
        "{when}: {node:?} must start the most checks: {started:?}"
    );
    let total: usize = started.values().sum();
    assert!(
        total <= periods + 1,
        "{when}: {total} checks in {periods} periods: {started:?}"
    );
}

#[test]
fn the_lowest_ranked_live_member_initiates_epoch_checks() {
    // Rank-stagger (epoch.rs): a node ticks every `check_period * (1 +
    // rank)` plus jitter and starts a check only after a full period of
    // silence. So the rank-0 member starts most checks; a slower tick can
    // still land in the jitter gap between two of its checks.
    let mut sim = grid_cluster(5, 13);
    sim.enable_tracing(1 << 16);
    let period = SimDuration::from_secs(2);
    let settle = period * 5;
    let periods = 10;
    let window = period * periods as u64;

    sim.run_for(settle);
    let full = sim.node(NodeId(0)).durable.elist.clone();
    let (first, next) = (full[0], full[1]);
    let started = checks_started_over(&mut sim, window);
    assert_leads(&started, first, periods, "steady state");

    // The rank-0 member dies: whoever's tick first finds the silence
    // starts a check, the epoch shrinks to the four live members, and the
    // next-ranked member is rank 0 of the new epoch.
    sim.crash(first);
    sim.run_for(settle);
    let shrunk = sim.node(next).durable.elist.clone();
    assert_eq!(
        shrunk,
        full[1..],
        "the epoch must shrink to the live members"
    );
    let started = checks_started_over(&mut sim, window);
    assert_eq!(started[&first], 0);
    assert_leads(&started, next, periods, "after the crash");

    // Recovered, the node is re-included at its old rank and takes the
    // checks back.
    sim.recover(first);
    sim.run_for(settle);
    assert_eq!(
        sim.node(next).durable.elist,
        full,
        "the epoch must re-include the node"
    );
    let started = checks_started_over(&mut sim, window);
    assert_leads(&started, first, periods, "after recovery");
}
