//! Scripted storage-fault recovery scenarios over the [`StepDriver`]:
//!
//! * a bit-flipped journal quarantines on replay, the replica boots via
//!   the stale-rejoin handshake, and the propagation machinery repairs it
//!   back to current — acknowledged writes survive single-replica
//!   corruption end to end;
//! * a torn final append truncates cleanly and boots normally (the torn
//!   record was never acknowledged);
//! * a failed append fail-stops the node without corrupting anything.

use std::sync::Arc;

use bytes::Bytes;
use coterie_base::{SimDuration, SimTime};
use coterie_core::{
    ClientRequest, Durable, Effect, FaultKind, Input, Msg, PartialWrite, ProtocolConfig,
    ProtocolEvent, ReplayVerdict, ReplicaNode, StateTuple, StepDriver,
};
use coterie_quorum::{GridCoterie, NodeId};

const N: usize = 4;

fn cluster(seed: u64) -> StepDriver {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N)
        .pages(4)
        .rng_seed(seed);
    StepDriver::new(N, config)
}

fn write(driver: &mut StepDriver, coordinator: u32, id: u64, page: u16, text: &'static [u8]) {
    driver.inject(
        NodeId(coordinator),
        ClientRequest::Write {
            id,
            write: PartialWrite::new([(page, Bytes::from_static(text))]),
        },
    );
    driver.run_for(SimDuration::from_secs(5));
    assert!(
        driver
            .outputs()
            .iter()
            .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: got, .. } if *got == id)),
        "write {id} did not commit"
    );
}

/// Commits real state, silently corrupts `victim`'s journal behind its
/// back, and crashes it: its journal must now fail checked replay.
fn corrupt_and_crash(driver: &mut StepDriver, victim: NodeId) {
    // Establish real committed state before the corruption.
    write(driver, 0, 1, 0, b"first");
    write(driver, 1, 2, 1, b"second");

    // The victim's next journal append silently flips one bit somewhere in
    // the journal, then more writes commit (the victim participates with
    // intact in-memory state; only its disk is damaged).
    driver.arm_storage_fault(victim, FaultKind::BitFlip);
    write(driver, 3, 3, 2, b"third");
    write(driver, 0, 4, 3, b"fourth");
    assert!(
        driver
            .fired_faults(victim)
            .iter()
            .any(|f| f.kind == FaultKind::BitFlip),
        "bit flip never fired; the victim persisted nothing"
    );

    driver.crash(victim);
    let replay = driver.replay_checked(victim);
    assert!(
        matches!(replay.verdict, ReplayVerdict::Quarantined { .. }),
        "expected quarantine, got {:?}",
        replay.verdict
    );
}

/// The acceptance scenario: corrupt one replica's journal behind its back,
/// crash it, and watch checked replay quarantine the journal, the boot
/// take the stale-rejoin path, and propagation repair the replica to the
/// cluster-current version.
#[test]
fn bit_flip_quarantines_then_rejoin_and_propagation_repair_to_current() {
    let mut driver = cluster(0xC0FFEE);
    let victim = NodeId(3);
    corrupt_and_crash(&mut driver, victim);

    // Recovery installs the quarantine image: the replica re-enters the
    // cluster stale via the rejoin handshake instead of trusting its disk.
    driver.recover(victim);
    driver.run_for(SimDuration::from_secs(60));
    assert!(
        driver
            .outputs()
            .iter()
            .any(|(_, node, e)| *node == victim && matches!(e, ProtocolEvent::Rejoined { .. })),
        "victim never completed the stale-rejoin handshake"
    );

    // Propagation must then repair the victim back to current: same
    // version as the freshest replica, not stale, byte-identical object.
    let current = (0..N as u32)
        .map(|i| driver.node(NodeId(i)).durable.version)
        .max()
        .unwrap();
    let durable = &driver.node(victim).durable;
    assert_eq!(
        durable.version, current,
        "victim not repaired to the cluster-current version"
    );
    assert!(!durable.stale, "victim still stale after propagation");
    let reference = (0..N as u32)
        .map(NodeId)
        .find(|&i| i != victim && !driver.node(i).durable.stale)
        .expect("some intact replica is current");
    assert_eq!(
        durable.object.digest(),
        driver.node(reference).durable.object.digest(),
        "repaired object diverges from an intact current replica"
    );

    // And the repaired replica serves reads again.
    driver.inject(victim, ClientRequest::Read { id: 99 });
    driver.run_for(SimDuration::from_secs(5));
    assert!(driver
        .outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::ReadOk { id: 99, .. })));
}

/// A quarantine is one journal write. The rewritten image already records
/// "stale, rejoin owed" with the fresh incarnation, so when the quarantined
/// boot's own append fails, the next boot replays that image clean and
/// still comes up stale and rejoin-pending — not as a current replica that
/// lost acknowledged writes — and in the new incarnation, so no id it
/// issues equals one it issued before the crash.
#[test]
fn failed_append_after_quarantined_boot_still_boots_stale_and_rejoin_pending() {
    let mut driver = cluster(0xC0FFEE);
    let victim = NodeId(3);
    corrupt_and_crash(&mut driver, victim);
    let before = driver.node(victim).durable.incarnation;

    driver.arm_storage_fault(victim, FaultKind::AppendFail);
    driver.recover(victim);
    assert!(
        driver.is_down(victim),
        "the quarantined boot's append should have failed"
    );
    let drawn = driver.node(victim).durable.incarnation;
    assert_ne!(drawn, before, "the quarantine kept the old incarnation");
    assert!(matches!(
        driver.replay_checked(victim).verdict,
        ReplayVerdict::Clean
    ));

    driver.recover(victim);
    let durable = &driver.node(victim).durable;
    assert!(
        durable.stale,
        "the quarantine image boots a current replica"
    );
    assert!(
        durable.rejoin_pending,
        "the quarantine image forgot the rejoin handshake"
    );
    assert_eq!(
        durable.incarnation, drawn,
        "the image lost the incarnation: ids of {before} would be reused"
    );
    driver.run_for(SimDuration::from_secs(60));
    assert!(driver
        .outputs()
        .iter()
        .any(|(_, node, e)| *node == victim && matches!(e, ProtocolEvent::Rejoined { .. })));
}

/// A torn final append is a clean crash: the record was never
/// acknowledged, so replay truncates it and the node boots normally —
/// no quarantine, no rejoin.
#[test]
fn torn_append_truncates_and_boots_normally() {
    let mut driver = cluster(0x7042);
    write(&mut driver, 0, 1, 0, b"base");

    driver.arm_storage_fault(NodeId(2), FaultKind::TornWrite);
    // The torn append fail-stops node 2 mid-write; the cluster commits
    // around it (grid quorums on 4 nodes survive one failure).
    write(&mut driver, 0, 2, 1, b"survives");
    assert!(driver.is_down(NodeId(2)), "torn write should fail-stop");
    assert!(matches!(
        driver.replay_checked(NodeId(2)).verdict,
        ReplayVerdict::TornTail { dropped_bytes } if dropped_bytes > 0
    ));

    driver.recover(NodeId(2));
    driver.run_for(SimDuration::from_secs(30));
    // Normal boot: no rejoin handshake needed, and the journal is whole
    // again (the torn tail was truncated at recovery).
    assert!(!driver
        .outputs()
        .iter()
        .any(|(_, node, e)| *node == NodeId(2) && matches!(e, ProtocolEvent::Rejoined { .. })));
    assert!(matches!(
        driver.replay_checked(NodeId(2)).verdict,
        ReplayVerdict::Clean
    ));
    assert!(!driver.node(NodeId(2)).durable.stale);
}

/// A failed append writes nothing: the node fail-stops with its journal
/// exactly as it was, and recovery is an ordinary clean boot.
#[test]
fn append_failure_is_fail_stop_with_clean_journal() {
    let mut driver = cluster(0xFA11);
    write(&mut driver, 0, 1, 0, b"base");

    let before = driver.journal(NodeId(1)).bytes().to_vec();
    driver.arm_storage_fault(NodeId(1), FaultKind::AppendFail);
    write(&mut driver, 0, 2, 1, b"second");
    assert!(driver.is_down(NodeId(1)), "failed append should fail-stop");
    assert_eq!(
        driver.journal(NodeId(1)).bytes(),
        &before[..],
        "a failed append must leave no bytes behind"
    );
    assert!(matches!(
        driver.replay_checked(NodeId(1)).verdict,
        ReplayVerdict::Clean
    ));

    driver.recover(NodeId(1));
    driver.run_for(SimDuration::from_secs(30));
    assert!(!driver.node(NodeId(1)).durable.stale);
}

/// Drives a lone engine through the rejoin handshake with hand-crafted
/// peer answers, returning the desired version it adopts.
fn rejoin_dversion_with(answers: Vec<StateTuple>) -> u64 {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N).pages(2);
    let mut quarantined = Durable::pristine(&config);
    quarantined.quarantine(7);
    let mut node = ReplicaNode::new(NodeId(3), config);
    node.install_durable(quarantined);
    let now = SimTime::ZERO;
    let effects = node.step(now, Input::Boot);
    let op = effects
        .iter()
        .find_map(|e| match e {
            Effect::Send {
                msg: Msg::RejoinQuery { op },
                ..
            } => Some(*op),
            _ => None,
        })
        .expect("a quarantined boot polls its peers");
    let mut dversion = None;
    for state in answers {
        let from = state.node;
        for effect in node.step(
            now,
            Input::Deliver {
                from,
                msg: Msg::RejoinInfo { op, state },
                lamport: 0,
            },
        ) {
            if let Effect::Output(ProtocolEvent::Rejoined { dversion: d, .. }) = effect {
                dversion = Some(d);
            }
        }
    }
    dversion.expect("a write quorum of answers completes the handshake")
}

fn answer(node: u32, version: u64, wlocked: bool, prepared_version: Option<u64>) -> StateTuple {
    StateTuple {
        node: NodeId(node),
        version,
        dversion: 0,
        stale: false,
        elist: (0..N as u32).map(NodeId).collect(),
        enumber: 0,
        last_good: Vec::new(),
        wlocked,
        prepared_version,
    }
}

/// The rejoin desired-version bound must cover not just committed writes
/// but the one write the lost journal suffix may have *voted for*: its
/// required participants answer the poll exclusively locked or holding a
/// prepared slot (they were all locked before this replica crashed, and
/// required participants never re-acquire an expired lock at prepare
/// time), so those reports bound the in-flight version.
#[test]
fn rejoin_bound_tracks_locks_and_prepared_slots() {
    // Quiet peers: adopt exactly the committed maximum.
    let quiet = rejoin_dversion_with(vec![
        answer(0, 4, false, None),
        answer(1, 4, false, None),
        answer(2, 4, false, None),
    ]);
    assert_eq!(quiet, 4);

    // A prepared-but-undecided slot names the in-flight version exactly.
    let prepared = rejoin_dversion_with(vec![
        answer(0, 4, false, None),
        answer(1, 4, true, Some(5)),
        answer(2, 4, false, None),
    ]);
    assert_eq!(prepared, 5);

    // An exclusive lock with no prepared slot hides the version, but the
    // one possible in-flight write commits at committed-max + 1.
    let locked = rejoin_dversion_with(vec![
        answer(0, 4, true, None),
        answer(1, 4, false, None),
        answer(2, 4, false, None),
    ]);
    assert_eq!(locked, 5);
}
