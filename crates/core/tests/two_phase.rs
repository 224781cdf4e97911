//! Two-phase commit at one replica, on a lone engine.
//!
//! * A participant that holds a prepared slot has voted on it once, as in
//!   the paper's `Write` and `CheckEpoch`: every other Prepare is refused,
//!   even one that names the held op, and the slot and the lock stay as
//!   they were. A YES to a reused op id let a COMMIT apply the old slot's
//!   action (ROADMAP 1(a)(i)).
//! * A coordinator whose journal was quarantined may have lost decision
//!   records with the corrupt suffix. Asked about an op behind its
//!   quarantine fence with no record, it stays silent instead of presuming
//!   abort; it answers from a record it kept, and presumes abort for an op
//!   past the fence that is no longer in flight (DESIGN.md §13).

use std::sync::Arc;

use bytes::Bytes;
use coterie_base::SimTime;
use coterie_core::{
    Action, Durable, Effect, Input, Msg, OpId, PartialWrite, ProtocolConfig, ReplicaNode,
};
use coterie_quorum::{MajorityCoterie, NodeId};

fn majority3() -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
}

fn op(node: u32, seq: u64) -> OpId {
    OpId {
        node: NodeId(node),
        seq,
    }
}

fn deliver(node: &mut ReplicaNode, from: NodeId, msg: Msg) -> Vec<Effect> {
    let lamport = 0;
    node.step(SimTime::ZERO, Input::Deliver { from, msg, lamport })
}

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
        assert_eq!(node.vol.lock.exclusive_holder(), Some(a), "after {what}");
    }
}

#[test]
fn a_quarantined_coordinator_is_silent_on_fenced_ops_it_has_no_record_of() {
    let config = majority3();
    let mut durable = Durable::pristine(&config);
    let (lost, kept) = (op(0, 3), op(0, 4));
    durable.decisions.insert(kept, true);
    durable.op_counter = 5;
    durable.quarantine();
    let mut node = ReplicaNode::new(NodeId(0), config);
    node.install_durable(durable);
    node.step(SimTime::ZERO, Input::Boot);
    let fence = node.durable.quarantine_fence;
    assert!(fence > kept.seq, "the fence {fence} is below the replay");
    let query = |node: &mut ReplicaNode, op| deliver(node, NodeId(1), Msg::DecisionQuery { op });

    assert_eq!(decisions(&query(&mut node, lost)), vec![]);
    assert_eq!(decisions(&query(&mut node, kept)), vec![(kept, true)]);
    // The rejoin poll took `fence + 1`; this op was never started.
    let past = op(0, fence + 2);
    assert_eq!(decisions(&query(&mut node, past)), vec![(past, false)]);
}
