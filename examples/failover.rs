//! Failure accumulation and partition tolerance: the paper's headline
//! fault-tolerance scenario.
//!
//! The static grid protocol dies once any read or write quorum's worth of
//! replicas is down. The dynamic protocol re-forms its epoch after every
//! detected failure, staying writable all the way down to three nodes —
//! and a partitioned minority can never form a conflicting epoch.
//!
//! Run with: `cargo run --example failover`

use bytes::Bytes;
use dyncoterie::protocol::{
    ClientRequest, PartialWrite, ProtocolConfig, ProtocolEvent, StepDriver,
};
use dyncoterie::quorum::{GridCoterie, NodeId};
use dyncoterie::simnet::SimDuration;
use std::sync::Arc;

fn write(sim: &mut StepDriver, id: u64, node: u32) -> bool {
    sim.inject(
        NodeId(node),
        ClientRequest::Write {
            id,
            write: PartialWrite::new([(0, Bytes::from(format!("write-{id}")))]),
        },
    );
    sim.run_for(SimDuration::from_secs(2));
    sim.outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: got, .. } if *got == id))
}

fn main() {
    let n = 9;
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(2));
    let mut sim = StepDriver::with_latency(n, config);
    sim.inject(
        NodeId(0),
        ClientRequest::Write {
            id: 0,
            write: PartialWrite::new([(0, Bytes::from_static(b"genesis"))]),
        },
    );
    sim.run_for(SimDuration::from_secs(1));

    // Gradually kill six of nine nodes; after each failure the epoch
    // shrinks and a write from node 0 still succeeds.
    println!("killing nodes one at a time; epoch adapts between failures:");
    for (i, victim) in [8u32, 7, 6, 5, 4, 3].iter().enumerate() {
        sim.crash(NodeId(*victim));
        sim.run_for(SimDuration::from_secs(10)); // epoch check adapts
        let ok = write(&mut sim, 10 + i as u64, 0);
        let epoch = sim.node(NodeId(0)).durable.elist.len();
        println!(
            "  after {} failures: epoch size {epoch}, write {}",
            i + 1,
            if ok { "COMMITTED" } else { "FAILED" }
        );
    }

    // Partition the three survivors: {0} vs {1, 2}. Neither side holds a
    // write quorum of the 3-node epoch forever... but {1, 2} does (the 2x2
    // grid's short column rule), while the singleton {0} cannot write.
    println!("\npartitioning the survivors: {{0}} | {{1, 2}}");
    let mut islands = vec![0; n];
    islands[0] = 1;
    sim.set_partition(islands);
    sim.run_for(SimDuration::from_secs(10));
    let minority_ok = write(&mut sim, 100, 0);
    let majority_ok = write(&mut sim, 101, 1);
    println!(
        "  write at isolated node 0: {}",
        if minority_ok {
            "COMMITTED (!)"
        } else {
            "failed, as it must"
        }
    );
    println!(
        "  write at connected node 1: {}",
        if majority_ok { "COMMITTED" } else { "failed" }
    );
    assert!(!minority_ok, "safety: the singleton side must not commit");

    // Heal and recover everyone: the epoch re-expands and all replicas
    // converge.
    println!("\nhealing the partition and recovering all nodes ...");
    sim.heal_partition();
    for v in [3u32, 4, 5, 6, 7, 8] {
        sim.recover(NodeId(v));
    }
    sim.run_for(SimDuration::from_secs(40));
    let epoch = sim.node(NodeId(0)).durable.elist.len();
    let versions: Vec<u64> = (0..n as u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .collect();
    println!("  epoch size back to {epoch}; replica versions: {versions:?}");
}
