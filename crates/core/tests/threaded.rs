//! The same `ReplicaNode` engine that runs on the deterministic step driver
//! also runs on real OS threads (a shared pool of workers, a mailbox per
//! node, one wall-clock deadline queue), behind the journaling host, with
//! and without its `fdatasync`'d journal files: the protocol implementation is
//! substrate-independent. The host is a plain runtime `Node`, so the first
//! two tests drive it by hand, with no runtime at all.

// Deadline polling against the real-thread host needs the real clock, and
// the fsync test the journal files a host mirrors to.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use bytes::Bytes;
use coterie_core::{
    ClientRequest, FaultKind, FramedJournal, JournaledNode, Msg, PartialWrite, ProtocolConfig,
    ProtocolEvent,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use coterie_simnet::{Effect, Event, Node, SimDuration, SimTime, ThreadedRuntime};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

fn write(id: u64) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::from(format!("w{id}")))]),
    }
}

/// Steps `nodes[at]` through `event`, then delivers every message sent
/// since, in FIFO order, until none is left. Timers never fire. Returns
/// the outputs, and the first step's messages.
fn settle(
    nodes: &mut [JournaledNode],
    at: NodeId,
    event: Event<JournaledNode>,
) -> (Vec<ProtocolEvent>, Vec<Msg>) {
    let (mut outputs, mut first_sends) = (Vec::new(), None);
    let mut inbox = VecDeque::from([(at, event)]);
    while let Some((at, event)) = inbox.pop_front() {
        let mut sent = Vec::new();
        for effect in nodes[at.index()].step(SimTime::ZERO, event) {
            match effect {
                Effect::Send { to, msg } => {
                    sent.push(msg.msg.clone());
                    inbox.push_back((to, Event::Message { from: at, msg }));
                }
                Effect::Output(out) => outputs.push(out),
                Effect::SetTimer { .. } | Effect::CancelTimer(_) => {}
            }
        }
        first_sends.get_or_insert(sent);
    }
    (outputs, first_sends.unwrap_or_default())
}

/// The host without its runtime: three `JournaledNode`s stepped by hand
/// commit a write, restart from their journals, and a journal with a
/// flipped bit restarts into stale rejoin.
#[test]
fn journaled_nodes_step_by_hand_without_a_runtime() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3);
    let mut nodes: Vec<_> = (0..3)
        .map(|i| JournaledNode::new(NodeId(i), config.clone()))
        .collect();
    for i in 0..3 {
        settle(&mut nodes, NodeId(i), Event::Start);
    }
    let (outputs, _) = settle(&mut nodes, NodeId(0), Event::External(write(1)));
    let committed = |outputs: &[ProtocolEvent], want: u64| {
        let ok = |e: &ProtocolEvent| matches!(e, ProtocolEvent::WriteOk { id, .. } if *id == want);
        outputs.iter().any(ok)
    };
    assert!(
        committed(&outputs, 1),
        "write 1 did not commit: {outputs:?}"
    );

    // A crash asks for nothing; the restart boots from the journal alone.
    assert!(nodes[1].step(SimTime::ZERO, Event::Crash).is_empty());
    settle(&mut nodes, NodeId(1), Event::Start);
    let node = &nodes[1];
    assert_eq!(
        node.journal.replay_checked(&config).durable,
        node.node.durable
    );
    assert_eq!(node.durable.version, 1);

    // A bit flipped by the next commit (the op id write 2 draws) and not
    // overwritten by a later one quarantines the journal: the restart
    // polls its peers for stale rejoin instead of booting current.
    nodes[0].arm_storage_fault(FaultKind::BitFlip);
    let _lost_with_the_crash = nodes[0].step(SimTime::ZERO, Event::External(write(2)));
    assert!(nodes[0].step(SimTime::ZERO, Event::Crash).is_empty());
    let (_, sent) = settle(&mut nodes, NodeId(0), Event::Start);
    let queries = sent.iter().filter(|m| matches!(m, Msg::RejoinQuery { .. }));
    assert_eq!(queries.count(), 2, "the restart sent {sent:?}");
}

/// ROADMAP 1(a)(ii): node 0's journal is quarantined twice, the second
/// time from a shallower prefix than the first, and no op id it issues
/// after the second equals one it issued before.
#[test]
fn a_shallower_second_quarantine_reissues_no_op_id() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3);
    let mut nodes: Vec<_> = (0..3)
        .map(|i| JournaledNode::new(NodeId(i), config.clone()))
        .collect();
    for i in 0..3 {
        settle(&mut nodes, NodeId(i), Event::Start);
    }
    // The op ids of the requests node 0 sends as `event` starts there.
    let ids = |nodes: &mut [JournaledNode], event| {
        let (_, sent) = settle(nodes, NodeId(0), event);
        let op = |m: &Msg| match m {
            Msg::WriteReq { op } | Msg::RejoinQuery { op } => Some(*op),
            _ => None,
        };
        sent.iter().filter_map(op).collect::<BTreeSet<_>>()
    };
    // One write at a time, so each takes an id of its own.
    let writes = |nodes: &mut [JournaledNode], range: std::ops::Range<u64>| {
        range
            .flat_map(|id| ids(nodes, Event::External(write(id))))
            .collect::<BTreeSet<_>>()
    };
    // Flips a bit of node 0's journal at `byte` and restarts it: returns
    // the op counter the quarantine replays, and the restart's ids.
    let quarantine = |nodes: &mut [JournaledNode], byte: usize| {
        assert!(nodes[0].journal.flip_bit(byte, 0));
        let replay = nodes[0].journal.replay_checked(&config);
        assert!(!replay.verdict.is_bootable(), "{:?}", replay.verdict);
        assert!(nodes[0].step(SimTime::ZERO, Event::Crash).is_empty());
        (replay.durable.op_counter, ids(nodes, Event::Start))
    };

    let mut before = writes(&mut nodes, 1..4);
    // Deep: the last record's payload is damaged, the rest replays.
    let last_byte = nodes[0].journal.bytes().len() - 1;
    let (deep, rejoin) = quarantine(&mut nodes, last_byte);
    before.extend(rejoin);
    before.extend(writes(&mut nodes, 4..7));
    // Shallow: a damaged header count loses every record.
    let (shallow, mut after) = quarantine(&mut nodes, 4);
    assert!(shallow < deep, "replayed {shallow} ids, then {deep}");
    after.extend(writes(&mut nodes, 7..13));
    assert_eq!((before.len(), after.len()), (7, 7));
    let reissued: Vec<_> = after.intersection(&before).collect();
    assert!(
        reissued.is_empty(),
        "reissued {reissued:?}; before: {before:?}"
    );
}

/// Epoch checks every `check_ms` of *wall clock*; timeouts as configured.
fn config(n: usize, check_ms: u64) -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_millis(check_ms))
}

fn spawn_cluster(n: usize) -> ThreadedRuntime<JournaledNode> {
    let config = config(n, 500);
    ThreadedRuntime::spawn(n, 42, Duration::from_millis(20), move |id| {
        JournaledNode::new(id, config.clone())
    })
}

/// Waits up to `secs` of wall clock for an output `wanted` accepts.
fn wait_for(
    rt: &ThreadedRuntime<JournaledNode>,
    secs: u64,
    mut wanted: impl FnMut(&ProtocolEvent) -> bool,
) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    while std::time::Instant::now() < deadline {
        if rt
            .recv_output(Duration::from_millis(200))
            .is_some_and(|(_, e)| wanted(&e))
        {
            return true;
        }
    }
    false
}

/// Five serial writes spread over a 9-node cluster of `config`'s replicas,
/// then a read from a different node; returns the hosts once propagation
/// has had a moment to settle.
fn write_read_settle(config: ProtocolConfig) -> Vec<JournaledNode> {
    let rt = ThreadedRuntime::spawn(9, 42, Duration::from_millis(20), |id| {
        JournaledNode::new(id, config.clone())
    });
    for i in 0..5u64 {
        rt.inject(NodeId((i % 9) as u32), write(i));
        // Wait for this write's commit before issuing the next (real time,
        // so ordering is not deterministic otherwise).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut committed = false;
        while std::time::Instant::now() < deadline {
            if let Some((_, e)) = rt.recv_output(Duration::from_millis(200)) {
                match e {
                    ProtocolEvent::WriteOk { id, version, .. } if id == i => {
                        assert_eq!(version, i + 1);
                        committed = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        assert!(committed, "write {i} did not commit over threads");
    }
    // Read from a different node.
    rt.inject(NodeId(7), ClientRequest::Read { id: 99 });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut read_ok = false;
    while std::time::Instant::now() < deadline {
        if let Some((
            _,
            ProtocolEvent::ReadOk {
                id: 99,
                version,
                pages,
                ..
            },
        )) = rt.recv_output(Duration::from_millis(200))
        {
            assert_eq!(version, 5);
            assert_eq!(pages[0], Bytes::from_static(b"w4"));
            read_ok = true;
            break;
        }
    }
    assert!(read_ok, "read did not complete over threads");
    // Give asynchronous propagation a moment to converge.
    std::thread::sleep(Duration::from_millis(1500));
    rt.shutdown()
}

/// Convergence: at least the safety threshold's worth of replicas hold v5
/// and nobody is left stale.
fn assert_converged(nodes: &[JournaledNode]) {
    let holders = nodes.iter().filter(|n| n.durable.version == 5).count();
    assert!(holders >= 2, "only {holders} replicas hold v5");
    assert!(nodes.iter().all(|n| !n.durable.stale), "stale replica left");
}

#[test]
fn writes_and_reads_commit_over_real_threads() {
    let nodes = write_read_settle(config(9, 500));
    assert_converged(&nodes);
}

/// The fsync path: nine hosts mirror their journals to files, each commit
/// an `fdatasync`, while they commit writes and a read over real threads.
/// After shutdown each file holds its node's journal image byte for byte,
/// and replays to the node's durable state.
#[test]
fn synced_journal_files_hold_the_journals_and_replay_to_durable_state() {
    let dir = std::env::temp_dir().join(format!("coterie-synced-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = |id: NodeId| dir.join(format!("node{}.ctj", id.0));
    let config = config(9, 500);
    let rt = ThreadedRuntime::spawn(9, 42, Duration::from_millis(20), |id| {
        let mut node = JournaledNode::new(id, config.clone());
        node.attach_sync_file(std::fs::File::create(path(id)).expect("a journal file"));
        node
    });
    for i in 0..5u64 {
        rt.inject(NodeId((i % 9) as u32), write(i));
        let committed =
            |e: &ProtocolEvent| matches!(e, ProtocolEvent::WriteOk { id, .. } if *id == i);
        assert!(wait_for(&rt, 10, committed), "write {i} did not commit");
    }
    rt.inject(NodeId(7), ClientRequest::Read { id: 99 });
    let read = |e: &ProtocolEvent| {
        matches!(
            e,
            ProtocolEvent::ReadOk {
                id: 99,
                version: 5,
                ..
            }
        )
    };
    assert!(wait_for(&rt, 10, read), "the read did not see version 5");
    for node in rt.shutdown() {
        let on_disk = std::fs::read(path(node.me)).expect("the journal file");
        assert_eq!(on_disk, node.journal.bytes(), "node {:?}'s file", node.me);
        let replay = FramedJournal::from_bytes(on_disk).replay_checked(&config);
        assert_eq!(replay.durable, node.node.durable, "node {:?}", node.me);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_adapts_to_a_crash_over_real_threads() {
    let rt = spawn_cluster(9);
    rt.crash(NodeId(8));
    // Wait for an epoch installation event (check period is 500 ms).
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut installed = false;
    while std::time::Instant::now() < deadline {
        if let Some((_, ProtocolEvent::EpochInstalled { members, .. })) =
            rt.recv_output(Duration::from_millis(200))
        {
            if members.len() == 8 {
                installed = true;
                break;
            }
        }
    }
    assert!(installed, "epoch change did not happen over threads");
    // A write still commits.
    rt.inject(
        NodeId(0),
        ClientRequest::Write {
            id: 1,
            write: PartialWrite::new([(0, Bytes::from_static(b"post-crash"))]),
        },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut committed = false;
    while std::time::Instant::now() < deadline {
        if let Some((_, ProtocolEvent::WriteOk { id: 1, .. })) =
            rt.recv_output(Duration::from_millis(200))
        {
            committed = true;
            break;
        }
    }
    assert!(committed);
    rt.shutdown();
}

/// A torn commit fail-stops a `JournaledNode` from inside a step, where
/// it cannot mark itself down: the runtime still counts it as up, and it
/// answers nothing until the runtime crashes and restarts it. The fault is
/// armed before the node boots, so its first commit — the op counter its
/// first write draws — tears.
#[test]
fn a_torn_commit_silences_the_node_until_the_runtime_restarts_it() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .check_period(SimDuration::from_secs(60));
    let rt = ThreadedRuntime::spawn(3, 6, Duration::from_millis(20), |id| {
        let mut node = JournaledNode::new(id, config.clone());
        if id == NodeId(2) {
            node.arm_storage_fault(FaultKind::TornWrite);
        }
        node
    });
    let answers = |e: &ProtocolEvent, want: u64| match e {
        ProtocolEvent::WriteOk { id, .. }
        | ProtocolEvent::ReadOk { id, .. }
        | ProtocolEvent::Failed { id, .. } => *id == want,
        _ => false,
    };

    // Node 2's first write tears its commit. The other two still form a
    // majority and commit a write of their own; node 2 answers nothing,
    // neither that write nor a later one.
    rt.inject(NodeId(2), write(1));
    rt.inject(NodeId(1), write(2));
    let mut seen = Vec::new();
    let mut record = |e: &ProtocolEvent| {
        seen.push(e.clone());
        matches!(e, ProtocolEvent::WriteOk { id: 2, .. })
    };
    assert!(
        wait_for(&rt, 10, &mut record),
        "the majority did not commit"
    );
    rt.inject(NodeId(2), write(3));
    wait_for(&rt, 1, &mut record);
    assert!(
        !seen.iter().any(|e| answers(e, 1) || answers(e, 3)),
        "a silenced node answered: {seen:?}"
    );

    // Restarted by the runtime, it recovers from its journal and answers.
    rt.crash(NodeId(2));
    rt.recover(NodeId(2));
    rt.inject(NodeId(2), ClientRequest::Read { id: 4 });
    assert!(
        wait_for(&rt, 10, |e| answers(e, 4)),
        "the restarted node stayed silent"
    );

    let nodes = rt.shutdown();
    assert!(
        nodes[2].durable.version < nodes[1].durable.version,
        "the silenced node cannot have applied the majority's write"
    );
    for n in &nodes {
        assert_eq!(
            n.journal.replay_checked(&config).durable,
            n.node.durable,
            "node {:?}: journal replay differs from live durable state",
            n.me
        );
    }
}
