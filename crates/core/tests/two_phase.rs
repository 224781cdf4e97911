//! Two-phase commit at one replica, on a lone engine.
//!
//! * A participant that holds a prepared slot has voted on it once, as in
//!   the paper's `Write` and `CheckEpoch`: every other Prepare is refused,
//!   even one that names the held op, and the slot and the lock stay as
//!   they were. A YES to a reused op id let a COMMIT apply the old slot's
//!   action (ROADMAP 1(a)(i)).
//! * From its YES vote until its decision, a prepared op's slot is the
//!   replica's exclusive lock, with no lease: neither a lease expiry nor a
//!   `Release` naming its op id frees it, only the decision does, and every
//!   permission request is refused, a read or write naming the slot's own
//!   op id too, with no grant and no lease. A replica that recovers the
//!   slot from its journal holds the lock the same way. A `Release` of a
//!   reused op id freed an in-doubt slot's lock (ROADMAP 1(a)(ii)), and a
//!   `WriteReq` of one was granted with a fresh lease.
//! * A coordinator whose journal was quarantined may have lost decision
//!   records with the corrupt suffix. Asked about an op of an earlier
//!   incarnation with no record, it stays silent instead of presuming
//!   abort; it answers from a record it kept, whatever the incarnation,
//!   and presumes abort for an op of its current incarnation that is no
//!   longer in flight (DESIGN.md §13).
//! * A replica in rejoin limbo does not know its desired version yet, so
//!   it serves no peer: a read, write or epoch-check poll, a rejoin query,
//!   a Prepare (even an epoch install it could lock at prepare time) and a
//!   propagation offer all go unanswered, and none takes its lock or its
//!   prepared slot. It still answers a decision query from a record it
//!   kept.
//! * A propagation target permitted a transfer, and then a two-phase
//!   commit locked it: the transfer is refused and applies nothing, so
//!   propagation never races a write (§4.2).
//! * A coordinator is an ordinary participant of its own ballot: its
//!   in-doubt slot asks the coordinator, itself, like any other, and a
//!   coordinator still collecting votes does not answer. Its own decision
//!   retry firing before the last vote arrives leaves the slot prepared
//!   until the COMMIT installs it (ROADMAP 31; this one runs three engines
//!   on a [`StepDriver`] to route the coordinator's messages to itself).

mod common;

use bytes::Bytes;
use common::{deliver, majority3, op};
use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_core::{
    Action, ClientRequest, Durable, Effect, FramedJournal, Input, Msg, OpId, PagedObject,
    PartialWrite, PropPayload, PropReply, ProtocolEvent, ReplicaNode, StepDriver, Timer,
};
use coterie_quorum::NodeId;

/// A one-write update to version `new_version`, writing `byte` to page 0.
fn update(new_version: u64, byte: u8) -> Action {
    Action::DoUpdate {
        writes: vec![PartialWrite::new([(0, Bytes::from(vec![byte]))])],
        new_version,
        stale: Vec::new(),
        good: vec![NodeId(1)],
        base: None,
    }
}

/// The `yes` of the one vote among `effects`.
fn vote(effects: &[Effect]) -> bool {
    let votes: Vec<bool> = effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg: Msg::Vote { yes, .. },
                ..
            } => Some(*yes),
            _ => None,
        })
        .collect();
    assert_eq!(votes.len(), 1, "{effects:?}");
    votes[0]
}

/// The `(op, commit)` of every decision among `effects`.
fn decisions(effects: &[Effect]) -> Vec<(OpId, bool)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg: Msg::Decision { op, commit, .. },
                ..
            } => Some((*op, *commit)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_held_prepared_slot_refuses_every_other_prepare() {
    let mut node = ReplicaNode::new(NodeId(1), majority3());
    let (coordinator, a, b) = (NodeId(0), op(0, 1), op(2, 1));
    let prepare = |op, action| Msg::Prepare {
        op,
        action,
        extra: false,
    };
    deliver(&mut node, coordinator, Msg::WriteReq { op: a });
    let first = deliver(&mut node, coordinator, prepare(a, update(1, 1)));
    assert!(vote(&first), "the first Prepare got a NO");
    let held = Some((a, update(1, 1)));
    assert_eq!(node.durable.prepared, held);

    let others = [
        ("the held op and action", coordinator, a, update(1, 1)),
        ("the held op, another action", coordinator, a, update(1, 2)),
        ("another op", NodeId(2), b, update(1, 1)),
    ];
    for (what, from, op, action) in others {
        let effects = deliver(&mut node, from, prepare(op, action));
        assert!(!vote(&effects), "a Prepare for {what} got a YES");
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::Persist(_))),
            "a Prepare for {what} journaled something"
        );
        assert_eq!(node.durable.prepared, held, "after a Prepare for {what}");
        assert_eq!(node.exclusive_holder(), Some(a), "after {what}");
    }
}

/// Folds `effects` into `leases`, the lock-lease timers pending for `op`:
/// each one armed is added, each one cancelled removed.
fn track_leases(leases: &mut Vec<TimerId>, effects: &[Effect], op: OpId) {
    for effect in effects {
        match effect {
            Effect::SetTimer {
                id,
                timer: Timer::LockLease { op: holder },
                ..
            } if *holder == op => leases.push(*id),
            Effect::CancelTimer(id) => leases.retain(|lease| lease != id),
            _ => {}
        }
    }
}

/// `node`, whose prepared slot holds `a`, refuses every permission request:
/// another op's read sets the contention bit as a held lock's refusal
/// does, and a write or read naming `a` itself, a reused id, gets no grant
/// and arms no lease.
fn the_slot_refuses_every_request(node: &mut ReplicaNode, a: OpId) {
    assert!(
        !node.vol.lock.contended(),
        "the bit was set before a refusal"
    );
    let asks = [
        ("another op's ReadReq", Msg::ReadReq { op: op(2, 1) }),
        ("a WriteReq naming the slot's op", Msg::WriteReq { op: a }),
        ("a ReadReq naming the slot's op", Msg::ReadReq { op: a }),
    ];
    for (what, ask) in asks {
        let effects = deliver(node, NodeId(2), ask);
        let granted: Vec<bool> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    msg: Msg::StateResp { granted, .. },
                    ..
                } => Some(*granted),
                _ => None,
            })
            .collect();
        assert_eq!(granted, [false], "{what}");
        let leased = effects.iter().any(|e| {
            matches!(
                e,
                Effect::SetTimer {
                    timer: Timer::LockLease { .. },
                    ..
                }
            )
        });
        assert!(!leased, "{what} armed a lock lease");
        assert!(node.vol.lock.contended(), "{what} left the bit clear");
    }
    assert_eq!(node.exclusive_holder(), Some(a));
}

#[test]
fn a_prepared_op_holds_its_lock_without_a_lease_until_its_decision() {
    let config = majority3();
    let mut node = ReplicaNode::new(NodeId(1), config.clone());
    let (coordinator, a) = (NodeId(0), op(0, 1));
    let (mut journal, mut leases) = (FramedJournal::new(), Vec::new());
    let mut step = |node: &mut ReplicaNode, msg, leases: &mut Vec<TimerId>| {
        let effects = deliver(node, coordinator, msg);
        for effect in &effects {
            if let Effect::Persist(delta) = effect {
                journal.append_delta(delta);
            }
        }
        track_leases(leases, &effects, a);
        effects
    };
    step(&mut node, Msg::WriteReq { op: a }, &mut leases);
    assert_eq!(leases.len(), 1, "the permission armed no lease");
    let prepare = Msg::Prepare {
        op: a,
        action: update(1, 1),
        extra: false,
    };
    assert!(vote(&step(&mut node, prepare, &mut leases)));
    assert_eq!(leases, [], "the YES vote left the op's lease pending");
    the_slot_refuses_every_request(&mut node, a);
    step(&mut node, Msg::Release { op: a }, &mut leases);
    assert_eq!(node.exclusive_holder(), Some(a), "a Release freed the slot");

    let replay = journal.replay_checked(&config);
    assert_eq!(replay.durable.prepared, Some((a, update(1, 1))));
    let mut recovered = ReplicaNode::new(NodeId(1), config);
    recovered.install_durable(replay.durable);
    let mut replayed_leases = Vec::new();
    let booted = recovered.step(SimTime::ZERO, Input::Boot);
    track_leases(&mut replayed_leases, &booted, a);
    deliver(&mut recovered, coordinator, Msg::Release { op: a });
    assert_eq!(replayed_leases, [], "the boot armed a lease for the slot");
    assert_eq!(
        recovered.exclusive_holder(),
        Some(a),
        "a Release freed the slot"
    );
    the_slot_refuses_every_request(&mut recovered, a);

    for node in [&mut node, &mut recovered] {
        let commit = Msg::Decision {
            op: a,
            commit: true,
            chain: None,
        };
        deliver(node, coordinator, commit);
        assert!(!node.is_locked(), "the decision kept the lock");
        assert_eq!((node.durable.version, &node.durable.prepared), (1, &None));
    }
}

/// A quarantined coordinator answers a decision query from its record if
/// it has one, presumes abort for an op of its own incarnation, and stays
/// silent on an unrecorded op of an earlier one, whose record may have
/// been lost with the quarantined suffix.
#[test]
fn a_quarantined_coordinator_is_silent_on_earlier_ops_it_has_no_record_of() {
    let config = majority3();
    let mut durable = Durable::pristine(&config);
    let (lost, kept) = (op(0, 3), op(0, 4));
    durable.decisions.insert(kept, true);
    durable.op_counter = 5;
    durable.quarantine(7);
    let mut node = ReplicaNode::new(NodeId(0), config);
    node.install_durable(durable);
    node.step(SimTime::ZERO, Input::Boot);
    let query = |node: &mut ReplicaNode, op| deliver(node, NodeId(1), Msg::DecisionQuery { op });

    assert_eq!(decisions(&query(&mut node, lost)), vec![]);
    assert_eq!(decisions(&query(&mut node, kept)), vec![(kept, true)]);
    // The same seq in the current incarnation was never started.
    let fresh = OpId { inc: 7, ..lost };
    assert_eq!(decisions(&query(&mut node, fresh)), vec![(fresh, false)]);
}

#[test]
fn a_replica_in_rejoin_limbo_serves_no_peer() {
    let config = majority3();
    let mut durable = Durable::pristine(&config);
    let kept = op(0, 4);
    durable.decisions.insert(kept, true);
    durable.op_counter = 5;
    durable.quarantine(7);
    let mut node = ReplicaNode::new(NodeId(0), config);
    node.install_durable(durable);
    node.step(SimTime::ZERO, Input::Boot);
    assert!(node.durable.rejoin_pending, "the boot left rejoin limbo");
    // An epoch install that lists this replica locks at prepare time, so
    // outside limbo it would be prepared and voted YES.
    let epoch = Action::NewEpoch {
        list: vec![NodeId(0), NodeId(1), NodeId(2)],
        enumber: node.durable.enumber + 1,
        good: vec![NodeId(1)],
        stale: vec![NodeId(0), NodeId(2)],
        desired_version: 0,
    };
    let asker = op(1, 1);
    let requests = [
        ("a ReadReq", Msg::ReadReq { op: asker }),
        ("a WriteReq", Msg::WriteReq { op: asker }),
        ("an EpochCheckReq", Msg::EpochCheckReq { op: asker }),
        ("a RejoinQuery", Msg::RejoinQuery { op: asker }),
        (
            "a Prepare",
            Msg::Prepare {
                op: asker,
                action: epoch,
                extra: true,
            },
        ),
        (
            "a PropOffer",
            Msg::PropOffer {
                prop: asker,
                version: 1,
            },
        ),
    ];
    for (what, msg) in requests {
        let effects = deliver(&mut node, NodeId(1), msg);
        let sent: Vec<&Effect> = effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .collect();
        assert!(sent.is_empty(), "{what} was answered in limbo: {sent:?}");
        assert!(!node.is_locked(), "{what} locked the replica");
        assert_eq!(node.durable.prepared, None, "{what} was prepared in limbo");
    }
    // Decision queries still run in limbo: a decision it kept is answered.
    let answer = deliver(&mut node, NodeId(1), Msg::DecisionQuery { op: kept });
    assert_eq!(decisions(&answer), vec![(kept, true)]);
}

#[test]
fn a_transfer_is_refused_once_a_two_phase_commit_took_the_replica() {
    let mut durable = Durable::pristine(&majority3());
    (durable.stale, durable.dversion) = (true, 1);
    let mut node = ReplicaNode::new(NodeId(1), majority3());
    node.install_durable(durable);
    let (source, prop) = (NodeId(0), op(0, 7));
    let offered = deliver(&mut node, source, Msg::PropOffer { prop, version: 1 });
    let permitted = offered.iter().any(|e| {
        matches!(
            e,
            Effect::Send {
                msg: Msg::PropResp {
                    reply: PropReply::Permitted { .. },
                    ..
                },
                ..
            }
        )
    });
    assert!(permitted, "the offer was not permitted: {offered:?}");
    deliver(&mut node, NodeId(2), Msg::WriteReq { op: op(2, 1) });
    assert_eq!(node.exclusive_holder(), Some(op(2, 1)));

    let pages = PagedObject::new(node.config.n_pages).snapshot();
    let payload = PropPayload::Snapshot { pages, version: 1 };
    let data = Msg::PropData {
        prop,
        payload,
        source_version: 1,
    };
    let acks: Vec<bool> = deliver(&mut node, source, data)
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg: Msg::PropAck { ok, .. },
                ..
            } => Some(*ok),
            _ => None,
        })
        .collect();
    assert_eq!(acks, [false]);
    assert_eq!((node.durable.version, node.durable.stale), (0, true));
}

#[test]
fn a_coordinators_own_decision_retry_waits_for_its_ballot() {
    let config = majority3().pages(4).static_mode();
    let mut driver = StepDriver::new(3, config);
    let coordinator = NodeId(2);
    let write = PartialWrite::new([(0, Bytes::from_static(b"one"))]);
    driver.inject(coordinator, ClientRequest::Write { id: 1, write });
    // Every message but a peer's vote to the coordinator is delivered.
    let held = |e: &coterie_core::Envelope| {
        e.to == coordinator && e.from != coordinator && matches!(e.msg, Msg::Vote { .. })
    };
    let deliver_unheld = |driver: &mut StepDriver| {
        while let Some(i) = driver.pending_messages().iter().position(|e| !held(e)) {
            let answered = matches!(driver.pending_messages()[i].msg, Msg::Decision { .. });
            assert!(!answered, "the coordinator answered while collecting votes");
            driver.deliver(i);
        }
    };
    deliver_unheld(&mut driver);
    let slot = driver.node(coordinator).durable.prepared.clone();
    assert!(slot.is_some(), "the coordinator is not in its own quorum");
    assert!(driver.pending_messages().iter().any(held), "no peer voted");

    let retry = driver
        .pending_timers()
        .iter()
        .position(|t| t.node == coordinator && matches!(t.timer, Timer::DecisionRetry { .. }));
    driver.fire(retry.expect("the coordinator's slot armed no retry"));
    assert_eq!(
        driver.node(coordinator).durable.prepared,
        slot,
        "the coordinator's own retry emptied its slot while it was still collecting votes"
    );
    deliver_unheld(&mut driver);
    assert_eq!(driver.node(coordinator).durable.prepared, slot);

    driver.run_for(SimDuration::from_secs(1));
    let node = driver.node(coordinator);
    assert_eq!((node.durable.version, &node.durable.prepared), (1, &None));
    let acked = driver
        .outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1, .. }));
    assert!(acked, "the write was not acknowledged");
}
