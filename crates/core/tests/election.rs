//! Tests of the bully election ([7], §4.3) as the epoch-check initiator:
//! the highest live node wins, epoch checks keep running, failover works,
//! and a recovering higher node reclaims the role.

mod common;

use bytes::Bytes;
use common::Cluster;
use coterie_base::SimDuration;
use coterie_core::{ClientRequest, PartialWrite, ProtocolConfig, ProtocolEvent};
use coterie_quorum::{GridCoterie, NodeId};
use std::sync::Arc;

fn bully_cluster(n: usize, seed: u64) -> Cluster {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(2))
        .bully_election();
    Cluster::new(n, config, seed)
}

fn leader_of(sim: &Cluster, id: u32) -> Option<NodeId> {
    sim.node(NodeId(id)).vol.election.leader
}

#[test]
fn highest_node_becomes_coordinator() {
    let mut sim = bully_cluster(5, 1);
    sim.run_for(SimDuration::from_secs(20));
    // Everyone agrees the highest name leads.
    for id in 0..5u32 {
        assert_eq!(
            leader_of(&sim, id),
            Some(NodeId(4)),
            "node {id} disagrees on the leader"
        );
    }
    // And epoch checking actually runs (the leader's checks suppress
    // everyone else's elections).
    assert!(sim.node(NodeId(4)).vol.last_epoch_check_seen.is_some());
}

#[test]
fn epoch_checks_adapt_under_bully_leadership() {
    let mut sim = bully_cluster(9, 2);
    sim.run_for(SimDuration::from_secs(12)); // settle leadership
    sim.crash(NodeId(3));
    sim.run_for(SimDuration::from_secs(12));
    let evs: Vec<_> = sim.take_outputs();
    assert!(
        evs.iter().any(|(_, _, e)| matches!(
            e,
            ProtocolEvent::EpochInstalled { members, .. } if members.len() == 8
        )),
        "epoch must shrink under bully coordination"
    );
    // Writes work.
    sim.inject(
        NodeId(0),
        ClientRequest::Write {
            id: 1,
            write: PartialWrite::new([(0, Bytes::from_static(b"x"))]),
        },
    );
    sim.run_for(SimDuration::from_secs(2));
    assert!(sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1, .. })));
}

#[test]
fn leadership_fails_over_when_the_leader_dies() {
    let mut sim = bully_cluster(5, 3);
    sim.run_for(SimDuration::from_secs(15));
    assert_eq!(leader_of(&sim, 0), Some(NodeId(4)));
    sim.crash(NodeId(4));
    // Silence triggers elections; node 3 should take over.
    sim.run_for(SimDuration::from_secs(25));
    for id in 0..4u32 {
        assert_eq!(
            leader_of(&sim, id),
            Some(NodeId(3)),
            "node {id} should follow the new leader"
        );
    }
    // Epoch has adapted to exclude the dead leader.
    assert_eq!(sim.node(NodeId(0)).durable.elist.len(), 4);
}

#[test]
fn recovered_higher_node_reclaims_leadership() {
    let mut sim = bully_cluster(5, 4);
    sim.run_for(SimDuration::from_secs(15));
    sim.crash(NodeId(4));
    sim.run_for(SimDuration::from_secs(25));
    assert_eq!(leader_of(&sim, 0), Some(NodeId(3)));
    sim.recover(NodeId(4));
    // The recovering node sees a lower coordinator and bullies the role
    // back (its own ticks start elections; node 3's Coordinator messages
    // provoke it).
    sim.run_for(SimDuration::from_secs(40));
    for id in 0..5u32 {
        assert_eq!(
            leader_of(&sim, id),
            Some(NodeId(4)),
            "node {id} should re-follow the recovered highest node"
        );
    }
    // And the epoch re-includes it.
    assert_eq!(sim.node(NodeId(0)).durable.elist.len(), 5);
}
