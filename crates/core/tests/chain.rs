//! Pipelined 2PC yields to contention (DESIGN.md §10). A replica's lock
//! remembers that it refused someone since its last fresh exclusive grant,
//! every vote reports that bit, and a coordinator chains its next write
//! round on a decision only when no voter reported it. So a chain runs
//! without limit while nobody else wants its replicas, and a refused
//! requester or a queued epoch prepare waits for the round it met and at
//! most one more. An epoch prepare that meets a chained round's prepared
//! slot queues and sets the bit as it would at a busy lock.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use bytes::Bytes;
use common::{deliver, majority3, op};
use coterie_base::SimTime;
use coterie_core::{
    keys, Action, ClientRequest, Effect, Input, Msg, OpId, PartialWrite, PendingTimer,
    ProtocolConfig, ProtocolEvent, ReplicaNode, StepDriver, Timer,
};
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::SimDuration;

fn write(id: u64) -> ClientRequest {
    let write = PartialWrite::new([((id % 4) as u16, Bytes::from(vec![id as u8]))]);
    ClientRequest::Write { id, write }
}

/// The messages among `effects`, with their recipients.
fn sends(effects: &[Effect]) -> impl Iterator<Item = (NodeId, &Msg)> {
    effects.iter().filter_map(|e| match e {
        Effect::Send { to, msg, .. } => Some((*to, msg)),
        _ => None,
    })
}

/// The permission requests among `effects`, with their recipients.
fn write_asks(effects: &[Effect]) -> Vec<(NodeId, OpId)> {
    let ask = |(to, m): (NodeId, &Msg)| match m {
        Msg::WriteReq { op } => Some((to, *op)),
        _ => None,
    };
    sends(effects).filter_map(ask).collect()
}

/// `from`, a pristine replica, answers the coordinator `node`'s
/// permission request for `op`.
fn answer(node: &mut ReplicaNode, from: NodeId, op: OpId, granted: bool) -> Vec<Effect> {
    let state = ReplicaNode::new(from, majority3()).state_tuple();
    let pages = None;
    let msg = Msg::StateResp {
        op,
        granted,
        state,
        pages,
    };
    deliver(node, from, msg)
}

/// The `(yes, contended)` of the one vote among `effects`.
fn vote(effects: &[Effect]) -> (bool, bool) {
    let votes: Vec<_> = sends(effects)
        .filter_map(|(_, m)| match m {
            Msg::Vote { yes, contended, .. } => Some((*yes, *contended)),
            _ => None,
        })
        .collect();
    assert_eq!(votes.len(), 1, "{effects:?}");
    votes[0]
}

/// A one-write update to version `new_version` at node 1.
fn update(new_version: u64) -> Action {
    Action::DoUpdate {
        writes: vec![PartialWrite::new([(0, Bytes::from_static(b"x"))])],
        new_version,
        stale: Vec::new(),
        good: vec![NodeId(1)],
        base: None,
    }
}

#[test]
fn a_refusal_sets_the_bit_a_handoff_keeps_it_and_a_fresh_grant_clears_it() {
    let mut node = ReplicaNode::new(NodeId(1), majority3());
    let (coordinator, (a, c, d)) = (NodeId(0), (op(0, 1), op(0, 2), op(0, 3)));
    let prepare = |op, version| Msg::Prepare {
        op,
        action: update(version),
        extra: false,
    };
    deliver(&mut node, coordinator, Msg::WriteReq { op: a });
    assert!(!node.vol.lock.contended(), "a grant alone set the bit");
    // A reader is refused while `a` holds the lock exclusively.
    deliver(&mut node, NodeId(2), Msg::ReadReq { op: op(2, 1) });
    assert!(node.vol.lock.contended());
    assert_eq!(
        vote(&deliver(&mut node, coordinator, prepare(a, 1))),
        (true, true)
    );
    // The decision hands the lock to the chained round `c`: still contended.
    let chain = Some(c);
    let commit = true;
    deliver(
        &mut node,
        coordinator,
        Msg::Decision {
            op: a,
            commit,
            chain,
        },
    );
    assert_eq!(node.exclusive_holder(), Some(c));
    // A duplicate of a decision whose op is no longer in the prepared slot
    // moves no lock, whatever round it names.
    let duplicate = |decided| Msg::Decision {
        op: decided,
        commit,
        chain: Some(op(0, 9)),
    };
    deliver(&mut node, coordinator, duplicate(a));
    assert_eq!(
        node.exclusive_holder(),
        Some(c),
        "a stale handoff moved the lock"
    );
    assert_eq!(
        vote(&deliver(&mut node, coordinator, prepare(c, 2))),
        (true, true)
    );
    let chain = None;
    deliver(
        &mut node,
        coordinator,
        Msg::Decision {
            op: c,
            commit,
            chain,
        },
    );
    deliver(&mut node, coordinator, duplicate(c));
    assert!(!node.is_locked(), "a stale handoff locked a free replica");
    // A fresh exclusive grant starts over.
    deliver(&mut node, coordinator, Msg::WriteReq { op: d });
    assert!(!node.vol.lock.contended(), "a fresh grant kept the bit");
    assert_eq!(
        vote(&deliver(&mut node, coordinator, prepare(d, 3))),
        (true, false)
    );
    // A refused exclusive request sets it too.
    deliver(&mut node, NodeId(2), Msg::WriteReq { op: op(2, 2) });
    assert!(node.vol.lock.contended());
}

/// Node 0 coordinates two writes, so the second queues behind the first
/// round; every participant grants and votes yes, reporting `contended`.
/// Returns the `chain` of the committing decision.
fn chain_after_votes(contended: bool) -> Option<OpId> {
    let mut node = ReplicaNode::new(NodeId(0), majority3());
    let mut effects = node.step(SimTime::ZERO, Input::External(write(1)));
    effects.extend(node.step(SimTime::ZERO, Input::External(write(2))));
    assert_eq!(
        node.vol.write_queue.len(),
        1,
        "the second write did not queue"
    );
    let mut prepared = Vec::new();
    for (to, op) in write_asks(&effects) {
        prepared = answer(&mut node, to, op, true);
    }
    let prepares: Vec<(NodeId, OpId)> = sends(&prepared)
        .filter_map(|(to, m)| match m {
            Msg::Prepare { op, .. } => Some((to, *op)),
            _ => None,
        })
        .collect();
    assert!(!prepares.is_empty(), "{prepared:?}");
    let mut decided = Vec::new();
    for (from, op) in prepares {
        let yes = true;
        decided = deliver(&mut node, from, Msg::Vote { op, yes, contended });
    }
    let chains: BTreeSet<Option<OpId>> = sends(&decided)
        .filter_map(|(_, m)| match m {
            Msg::Decision { commit, chain, .. } => commit.then_some(*chain),
            _ => None,
        })
        .collect();
    assert_eq!(chains.len(), 1, "{decided:?}");
    chains.into_iter().next().flatten()
}

#[test]
fn a_contended_ballot_decides_without_a_chain() {
    assert!(
        chain_after_votes(false).is_some(),
        "no chain with a write queued"
    );
    assert_eq!(chain_after_votes(true), None);
}

#[test]
fn a_refused_batched_write_counts_one_retry() {
    let mut node = ReplicaNode::new(NodeId(0), majority3());
    let effects = node.step(SimTime::ZERO, Input::External(write(1)));
    for (to, op) in write_asks(&effects) {
        answer(&mut node, to, op, false);
    }
    // Contention: the batch is requeued behind its backoff, one retry.
    assert!(node.vol.write_queue_held && node.vol.write_queue.len() == 1);
    assert_eq!(node.stats.counter(keys::RETRIES), 1);
    // The relaunch is that same retry, not a second one.
    let relaunch = node.step(SimTime::ZERO, Input::TimerFired(Timer::WriteQueueKick));
    assert!(
        !write_asks(&relaunch).is_empty(),
        "the batch did not relaunch"
    );
    assert_eq!(node.stats.counter(keys::RETRIES), 1);
}

fn grid9() -> StepDriver {
    StepDriver::new(9, ProtocolConfig::new(Arc::new(GridCoterie::new()), 9))
}

fn write_oks(driver: &StepDriver) -> usize {
    let ok = |(_, _, e): &&(_, _, ProtocolEvent)| matches!(e, ProtocolEvent::WriteOk { .. });
    driver.outputs().iter().filter(ok).count()
}

#[test]
fn eight_writes_at_one_node_of_the_nine_node_grid_commit_in_a_chain() {
    let mut driver = grid9();
    for id in 1..=8 {
        driver.inject(NodeId(0), write(id));
    }
    driver.run_for(SimDuration::from_secs(1));
    assert_eq!(write_oks(&driver), 8, "{:?}", driver.outputs());
    let stats = &driver.node(NodeId(0)).stats;
    assert!(stats.counter(keys::CHAINED_ROUNDS) >= 1, "no round chained");
}

/// Node 0 queues enough writes for a chain of seven rounds if nothing
/// yields; a replica outside its write quorum fails, and node 1's epoch
/// check shrinks the epoch around it. Messages go in send order, the epoch
/// prepares held back, until a committing decision hands the quorum's locks
/// to a chained round. Each participant then gets its epoch prepare after
/// the handoff, either before the chained round's prepare or, with
/// `while_prepared`, after it, and must queue it. Drained in send order
/// with no timer fired, the epoch installs at every live replica within
/// two node-0 rounds, and every write commits.
fn epoch_change_behind_a_chain(while_prepared: bool) {
    const WRITES: u64 = 24;
    let mut driver = grid9();
    for id in 1..=WRITES {
        driver.inject(NodeId(0), write(id));
    }
    let quorum: BTreeSet<NodeId> = driver
        .pending_messages()
        .iter()
        .filter(|e| matches!(e.msg, Msg::WriteReq { .. }))
        .map(|e| e.to)
        .collect();
    let down = (2..9).map(NodeId).rev().find(|n| !quorum.contains(n));
    let down = down.expect("a write quorum of the 3x3 grid leaves nodes out");
    driver.crash(down);
    let is_tick = |t: &PendingTimer| t.node == NodeId(1) && matches!(t.timer, Timer::EpochTick);
    let tick = driver.pending_timers().iter().position(is_tick).unwrap();
    driver.fire(tick);

    let epoch_prepare = |m: &Msg| {
        matches!(
            m,
            Msg::Prepare {
                action: Action::NewEpoch { .. },
                ..
            }
        )
    };
    let chained = |m: &Msg| matches!(m, Msg::Decision { chain: Some(_), .. });
    let position = |driver: &StepDriver, to: NodeId, matching: &dyn Fn(&Msg) -> bool| {
        let pending = driver.pending_messages();
        pending.iter().position(|e| e.to == to && matching(&e.msg))
    };
    while !driver.pending_messages().iter().any(|e| chained(&e.msg)) {
        let pending = driver.pending_messages();
        let next = pending.iter().position(|e| !epoch_prepare(&e.msg));
        driver.deliver(next.expect("the writes and the epoch check stalled"));
    }
    let write_prepare = |m: &Msg| matches!(m, Msg::Prepare { .. }) && !epoch_prepare(m);
    for &p in &quorum {
        let handoff = position(&driver, p, &chained).expect("a participant missed the chain");
        driver.deliver(handoff);
        if while_prepared {
            let chained_prepare = position(&driver, p, &write_prepare).expect("no chained prepare");
            driver.deliver(chained_prepare);
        }
        assert_eq!(driver.node(p).durable.prepared.is_some(), while_prepared);
        let prepare = position(&driver, p, &epoch_prepare).expect("no epoch prepare for it");
        driver.deliver(prepare);
        assert!(
            driver.node(p).vol.pending_epoch_prepare.is_some(),
            "{p:?} did not queue"
        );
    }
    let live: Vec<NodeId> = (0..9).map(NodeId).filter(|&n| n != down).collect();
    let mut rounds = BTreeSet::new();
    while !live.iter().all(|&n| driver.node(n).durable.enumber > 0) {
        let next = driver
            .pending_messages()
            .first()
            .expect("stalled before the install");
        if let Msg::Decision { op, .. } = next.msg {
            rounds.extend(Some(op).filter(|op| op.node == NodeId(0)));
        }
        driver.deliver(0);
    }
    assert!(
        rounds.len() <= 2,
        "the epoch waited {} rounds",
        rounds.len()
    );
    // The queue the chain left behind drains once the epoch is in.
    driver.run_for(SimDuration::from_secs(5));
    assert_eq!(
        write_oks(&driver),
        WRITES as usize,
        "{:?}",
        driver.outputs()
    );
}

#[test]
fn a_queued_epoch_prepare_behind_a_chain_installs_within_two_rounds() {
    epoch_change_behind_a_chain(false);
}

/// A chain's participants are prepared nearly all the time: each applies
/// round k and gets round k+1's prepare from the same sender at once.
#[test]
fn an_epoch_prepare_meeting_a_prepared_chained_round_installs_within_two_rounds() {
    epoch_change_behind_a_chain(true);
}

/// The starvation the yield rule prevents, on the deterministic schedule:
/// eight closed-loop clients keep node 0's write queue full, so its chain
/// would never end on its own, and once 100 writes are issued node 1's
/// epoch check starts shrinking the epoch around a failed replica. The
/// chain's participants are prepared nearly all the time, so the epoch
/// prepares meet filled slots, queue, and end the chain at its next vote.
#[test]
fn an_epoch_change_lands_under_closed_loop_writes_at_one_node() {
    const WRITES: u64 = 2_000;
    let mut driver = grid9();
    driver.crash(NodeId(8));
    let is_tick = |t: &PendingTimer| t.node == NodeId(1) && matches!(t.timer, Timer::EpochTick);
    let installed = |d: &StepDriver| (0..8).all(|n| d.node(NodeId(n)).durable.enumber > 0);
    let finished = |(_, _, e): &&(_, _, ProtocolEvent)| {
        matches!(
            e,
            ProtocolEvent::WriteOk { .. } | ProtocolEvent::Failed { .. }
        )
    };
    let (mut issued, mut checking) = (0, false);
    while !installed(&driver) && issued < WRITES {
        for _ in issued - driver.outputs().iter().filter(finished).count() as u64..8 {
            issued += 1;
            driver.inject(NodeId(0), write(issued));
        }
        if issued >= 100 && !checking {
            let tick = driver.pending_timers().iter().position(is_tick).unwrap();
            driver.fire(tick);
            checking = true;
        }
        let event = driver.next_event(SimTime::ZERO + SimDuration::from_secs(60));
        driver.perform(event.expect("the writes stalled"));
    }
    assert!(installed(&driver), "no epoch change in {WRITES} writes");
    assert!(
        issued < 200,
        "the epoch change took {} writes",
        issued - 100
    );
}
