//! The one-round-trip read: a granted, non-stale read answer carries the
//! replica's object, so a read completes from the copies its permission
//! round collected and never sends a fetch.
//!
//! * cluster level ([`StepDriver`], 9-node grid): a read coordinated at a
//!   replica that is not current returns the newest committed version and
//!   object, sends no `MsgClass::Fetch` message, and leaves no shared lock
//!   or lock lease behind;
//! * replica level (a lone engine): which answers carry the object — only
//!   a granted read from a non-stale replica does, and, under
//!   write-all-current, a non-stale write grant;
//! * sharing: consecutive reads of an unchanged object return one image,
//!   not a copy each.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use common::drain_messages;
use coterie_base::{SimDuration, SimTime};
use coterie_core::{
    keys, ClientRequest, DriverEvent, Durable, Effect, Input, Msg, MsgClass, OpId, Pages,
    PartialWrite, ProtocolConfig, ProtocolEvent, ReplicaNode, StepDriver, Timer, WriteMode,
};
use coterie_quorum::{GridCoterie, NodeId};

const N: usize = 9;

fn fetch_messages(driver: &StepDriver) -> u64 {
    (0..N as u32)
        .map(|i| {
            driver
                .node(NodeId(i))
                .stats
                .counter(keys::msgs_in(MsgClass::Fetch))
        })
        .sum()
}

#[test]
fn read_at_a_replica_outside_the_good_set_commits_newest_without_a_fetch() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N)
        .pages(4)
        .rng_seed(0x5EAD);
    let mut driver = StepDriver::new(N, config);

    // Writes from different coordinators lock different quorums, so later
    // ones mark the members that missed earlier ones stale; with no timer
    // fired, propagation never repairs them.
    for (id, coordinator) in [(1u64, 0u32), (2, 4), (3, 8), (4, 2), (5, 6)] {
        let page = (id % 4) as u16;
        let text = Bytes::from(format!("write {id}"));
        driver.inject(
            NodeId(coordinator),
            ClientRequest::Write {
                id,
                write: PartialWrite::new([(page, text)]),
            },
        );
        drain_messages(&mut driver);
        assert!(
            driver
                .outputs()
                .iter()
                .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: got, .. } if *got == id)),
            "write {id} did not commit"
        );
    }
    let durable = |i: u32| &driver.node(NodeId(i)).durable;
    let newest = (0..N as u32).map(|i| durable(i).version).max().unwrap();
    assert_eq!(newest, 5);
    assert!(
        (0..N as u32).any(|i| durable(i).stale),
        "the writes left no replica stale"
    );
    let current = (0..N as u32)
        .find(|&i| !durable(i).stale && durable(i).version == newest)
        .unwrap();
    let digest = durable(current).object.digest();
    let reader = (0..N as u32)
        .find(|&i| durable(i).stale || durable(i).version < newest)
        .map(NodeId)
        .unwrap();

    driver.inject(reader, ClientRequest::Read { id: 99 });
    drain_messages(&mut driver);
    let read = driver.outputs().iter().find_map(|(_, node, e)| match e {
        ProtocolEvent::ReadOk {
            id: 99,
            version,
            digest,
            ..
        } => Some((*node, *version, *digest)),
        _ => None,
    });
    assert_eq!(
        read,
        Some((reader, newest, digest)),
        "the read missed the newest committed version"
    );
    assert_eq!(fetch_messages(&driver), 0, "a read sent a fetch");

    // `run_for`'s schedule for 2 s, failing if a lock lease expires: some
    // grant was never released.
    let deadline = driver.now() + SimDuration::from_secs(2);
    while let Some(event) = driver.next_event(deadline) {
        if let DriverEvent::Fire(i) = event {
            let timer = &driver.pending_timers()[i].timer;
            assert!(
                !matches!(timer, Timer::LockLease { .. }),
                "a lock lease expired: {timer:?}"
            );
        }
        driver.perform(event);
    }
    for i in 0..N as u32 {
        let lock = &driver.node(NodeId(i)).vol.lock;
        assert_eq!(
            lock.shared_holders().count(),
            0,
            "n{i} still holds a shared lock"
        );
    }
}

fn deliver(node: &mut ReplicaNode, msg: Msg) -> Vec<Effect> {
    let input = Input::Deliver {
        from: NodeId(0),
        msg,
        lamport: 0,
    };
    node.step(SimTime::ZERO, input)
}

/// The `StateResp` a lone replica sends in answer to `msg`: whether it
/// granted, and the object it attached.
fn answer(node: &mut ReplicaNode, msg: Msg) -> (bool, Option<Pages>) {
    deliver(node, msg)
        .into_iter()
        .find_map(|e| match e {
            Effect::Send {
                msg: Msg::StateResp { granted, pages, .. },
                ..
            } => Some((granted, pages)),
            _ => None,
        })
        .expect("the replica answers with its state")
}

#[test]
fn only_a_granted_read_from_a_non_stale_replica_carries_the_object() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N).pages(2);
    let mut durable = Durable::pristine(&config);
    durable
        .object
        .apply(&PartialWrite::new([(1, Bytes::from_static(b"payload"))]));
    let mut node = ReplicaNode::new(NodeId(1), config.clone());
    node.install_durable(durable.clone());
    let op = |seq| OpId {
        node: NodeId(0),
        seq,
    };

    // A granted read from a current replica carries exactly its object.
    let object = node.durable.object.snapshot();
    assert_eq!(
        answer(&mut node, Msg::ReadReq { op: op(1) }),
        (true, Some(object))
    );
    // A write refused under that shared lock carries nothing.
    assert_eq!(
        answer(&mut node, Msg::WriteReq { op: op(2) }),
        (false, None)
    );
    deliver(&mut node, Msg::Release { op: op(1) });

    // A write grant carries nothing, and a read refused under it neither.
    assert_eq!(answer(&mut node, Msg::WriteReq { op: op(3) }), (true, None));
    assert_eq!(answer(&mut node, Msg::ReadReq { op: op(4) }), (false, None));
    deliver(&mut node, Msg::Release { op: op(3) });

    // An epoch-check answer carries nothing.
    assert_eq!(
        answer(&mut node, Msg::EpochCheckReq { op: op(5) }),
        (true, None)
    );

    // Under write-all-current a write grant from a current replica carries
    // the object too: it is the base reconciliation ships to obsolete
    // replicas.
    let wac = ProtocolConfig {
        write_mode: WriteMode::WriteAllCurrent,
        ..config
    };
    let mut wac_node = ReplicaNode::new(NodeId(1), wac);
    wac_node.install_durable(durable.clone());
    let object = wac_node.durable.object.snapshot();
    assert_eq!(
        answer(&mut wac_node, Msg::WriteReq { op: op(6) }),
        (true, Some(object))
    );

    // A stale replica grants the shared lock but ships no object.
    durable.stale = true;
    node.install_durable(durable);
    assert_eq!(answer(&mut node, Msg::ReadReq { op: op(7) }), (true, None));
}

#[test]
fn consecutive_reads_of_an_unchanged_object_share_one_image() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N).pages(16);
    let mut driver = StepDriver::new(N, config);
    let write = PartialWrite::new([(3, Bytes::from_static(b"v1"))]);
    driver.inject(NodeId(0), ClientRequest::Write { id: 1, write });
    drain_messages(&mut driver);
    // More reads than replicas: two of them come from one replica, and so
    // (below) return one allocation.
    for id in 2..=N as u64 + 2 {
        driver.inject(NodeId(0), ClientRequest::Read { id });
        drain_messages(&mut driver);
    }
    let image = |i: u32| driver.node(NodeId(i)).durable.object.snapshot();
    let mut reads = 0;
    for (_, _, event) in driver.outputs() {
        if let ProtocolEvent::ReadOk { version, pages, .. } = event {
            assert_eq!(*version, 1);
            // The result is the live image of the replica that answered:
            // its grant and the result each took a refcount, no page copy.
            let shared = (0..N as u32).any(|i| Arc::ptr_eq(pages, &image(i)));
            assert!(shared, "a read result copied its image");
            reads += 1;
        }
    }
    assert_eq!(reads, N + 1);
}
