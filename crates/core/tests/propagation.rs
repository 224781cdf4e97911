//! Targeted tests of the §4.2 propagation protocol: incremental log
//! shipping, the snapshot fallback when the log has been trimmed, a
//! propagation source crashing mid-transfer, and stale replicas never
//! serving reads.

mod common;

use bytes::Bytes;
use common::{drain_messages, Cluster};
use coterie_base::{SimDuration, SimTime};
use coterie_core::{config::LOG_CAP, ClientRequest, PartialWrite, ProtocolConfig, ProtocolEvent};
use coterie_quorum::{GridCoterie, NodeId};
use std::sync::Arc;

fn write(id: u64) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([((id % 4) as u16, Bytes::from(format!("payload-{id}")))]),
    }
}

fn run_with_config(config: ProtocolConfig, seed: u64, writes: u64) -> Cluster {
    let n = config.n_replicas;
    let mut sim = Cluster::new(n, config, seed);
    for i in 0..writes {
        sim.inject_at(
            SimTime(i * 250_000),
            NodeId((i % n as u64) as u32),
            write(i),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(writes / 4 + 20));
    sim
}

/// The protocol's actual guarantee: propagation clears every stale flag
/// (replicas that were never marked may legitimately sit behind), at least
/// a write quorum's worth of replicas hold the newest version, and all the
/// newest-version holders agree on content.
fn assert_propagation_converged(sim: &Cluster, n: usize, version: u64) {
    let versions: Vec<u64> = (0..n as u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .collect();
    for i in 0..n as u32 {
        assert!(
            !sim.node(NodeId(i)).durable.stale,
            "replica {i} still stale; versions {versions:?}"
        );
    }
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&i| sim.node(NodeId(i)).durable.version == version)
        .collect();
    assert!(
        holders.len() >= 5,
        "too few replicas at v{version}: {versions:?}"
    );
    let digest = sim.node(NodeId(holders[0])).durable.object.digest();
    for &h in &holders[1..] {
        assert_eq!(
            sim.node(NodeId(h)).durable.object.digest(),
            digest,
            "replica {h} diverged in content"
        );
    }
}

#[test]
fn incremental_log_shipping_converges_everyone() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
    let sim = run_with_config(config, 1, 24);
    assert_propagation_converged(&sim, 9, 24);
}

#[test]
fn trimmed_log_falls_back_to_snapshots() {
    // Replica 8 misses more than `LOG_CAP` writes while down, so no log
    // still holds what it lacks: only a snapshot can bring it current.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
    let (n, victim) = (9, NodeId(8));
    let mut sim = Cluster::new(n, config, 2);
    sim.inject_at(SimTime::ZERO, NodeId(0), write(0));
    sim.run_until(SimTime(1_000_000));
    let before = sim.node(victim).durable.version;
    sim.crash(victim);
    for i in 1..=LOG_CAP as u64 + 8 {
        let at = SimTime(1_000_000 + i * 250_000);
        sim.inject_at(at, NodeId((i % 8) as u32), write(i));
    }
    sim.recover(victim);
    sim.run_for(SimDuration::from_secs(40));
    let newest = (0..n as u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .max()
        .unwrap_or(0);
    assert!(newest - before > LOG_CAP as u64, "only {newest} writes");
    assert_propagation_converged(&sim, n, newest);
    let caught_up = &sim.node(victim).durable;
    assert_eq!(caught_up.version, newest, "replica 8 was not repaired");
    assert!(
        caught_up.log.is_empty(),
        "replica 8 was repaired from a log"
    );
}

#[test]
fn propagation_source_crash_does_not_leave_target_stuck() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
    let n = 9;
    let mut sim = Cluster::new(n, config, 4);
    // A few writes to create stale marks and kick off propagation.
    for i in 0..6u64 {
        sim.inject_at(
            SimTime(i * 200_000),
            NodeId(i as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, Bytes::from(format!("w{i}")))]),
            },
        );
    }
    // Crash every node that could be an early propagation source shortly
    // after the last write, then recover them.
    sim.run_until(SimTime(1_250_000));
    for v in 0..4u32 {
        sim.crash(NodeId(v));
    }
    sim.run_until(SimTime(4_000_000));
    for v in 0..4u32 {
        sim.recover(NodeId(v));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(40));
    // Everyone eventually converges; nobody is left holding a propagation
    // lock or an in-doubt incoming transfer.
    for i in 0..n as u32 {
        let node = sim.node(NodeId(i));
        assert!(node.vol.incoming_prop.is_none(), "node {i} stuck incoming");
        assert!(!node.durable.stale, "node {i} still stale");
    }
    // System still writable.
    sim.take_outputs();
    sim.inject(
        NodeId(5),
        ClientRequest::Write {
            id: 99,
            write: PartialWrite::new([(1, Bytes::from_static(b"post"))]),
        },
    );
    sim.run_for(SimDuration::from_secs(2));
    assert!(sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 99, .. })));
}

#[test]
fn stale_replica_never_serves_reads() {
    // Force replicas stale, then read from every coordinator: a stale
    // replica's grant carries no object, so each read must come back with
    // the newest version, never a stale copy. Messages are delivered but no
    // timer fires, so propagation stays parked and staleness persists.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
    let n = 9;
    let mut sim = Cluster::new(n, config, 6);
    for i in 0..8u64 {
        sim.inject(
            NodeId((i % 9) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, Bytes::from(format!("w{i}")))]),
            },
        );
        drain_messages(&mut sim);
    }
    // With propagation parked there must be stale replicas.
    let stale_count = (0..9u32)
        .filter(|&i| sim.node(NodeId(i)).durable.stale)
        .count();
    assert!(stale_count > 0, "expected lingering stale replicas");
    sim.take_outputs();
    // Reads from every coordinator all see version 8.
    for (j, reader) in (0..9u32).enumerate() {
        sim.inject(NodeId(reader), ClientRequest::Read { id: 100 + j as u64 });
    }
    drain_messages(&mut sim);
    let evs = sim.take_outputs();
    let mut reads = 0;
    for (_, _, e) in &evs {
        if let ProtocolEvent::ReadOk { version, .. } = e {
            assert_eq!(*version, 8, "a read saw a non-latest version");
            reads += 1;
        }
    }
    assert!(
        reads >= 7,
        "most reads should complete, got {reads}: {evs:?}"
    );
}
