//! `on_call_failed` coverage: what a coordinator does when an RPC bounces
//! off a crashed peer, exercised through the sans-I/O [`StepDriver`]
//! (delivering a message to a down node steps the *sender* with
//! [`Input::CallFailed`]).
//!
//! Two paths with non-trivial bounce semantics are covered here:
//!
//! * **Decision recovery** — a prepared participant's `DecisionRetry` chain
//!   is disarmed the moment the decision arrives, and keeps re-querying
//!   (through bounced `DecisionQuery`s) while the decision is lost.
//! * **Propagation** — a bounced `PropOffer`/`PropData` clears the
//!   in-flight attempt, bumps the per-target failure count, and re-arms
//!   the kick timer; once the target recovers, propagation completes.

use std::sync::Arc;

use bytes::Bytes;
use coterie_base::{SimDuration, SimTime};
use coterie_core::{
    keys, ClientRequest, Msg, MsgClass, PartialWrite, ProtocolConfig, ProtocolEvent, StepDriver,
    Timer,
};
use coterie_quorum::{MajorityCoterie, NodeId};

/// Steps the driver through [`StepDriver::next_event`]'s schedule until
/// `done` holds, failing the test if it doesn't within `bound` events.
fn step_until(driver: &mut StepDriver, bound: usize, done: impl Fn(&StepDriver) -> bool) {
    for _ in 0..bound {
        if done(driver) {
            return;
        }
        let event = driver.next_event(SimTime(u64::MAX));
        driver.perform(event.expect("cluster went quiescent before condition held"));
    }
    panic!("condition did not hold within {bound} events");
}

/// The decision-retry timers pending anywhere, and whether any node still
/// remembers having armed one.
fn decision_retries(d: &StepDriver) -> (usize, bool) {
    let is_retry = |t: &&coterie_core::PendingTimer| matches!(t.timer, Timer::DecisionRetry { .. });
    let armed = (0..d.cluster_size() as u32)
        .any(|n| !d.node(NodeId(n)).vol.decision_retry_armed.is_empty());
    (d.pending_timers().iter().filter(is_retry).count(), armed)
}

#[test]
fn decision_retry_is_disarmed_by_the_decision_and_chases_a_lost_one() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .pages(4)
        .static_mode();
    let mut driver = StepDriver::new(3, config);
    let write = |id: u64| ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::copy_from_slice(&id.to_le_bytes()))]),
    };
    let coordinator = NodeId(0);

    // A committed write leaves nothing behind: every participant armed a
    // retry when it prepared, and none survives its decision.
    driver.inject(coordinator, write(1));
    step_until(&mut driver, 500, |d| decision_retries(d).0 > 0);
    step_until(&mut driver, 500, |d| d.pending_messages().is_empty());
    let newest = |d: &StepDriver| (0..3).map(|n| d.node(NodeId(n)).durable.version).max();
    assert_eq!(newest(&driver), Some(1));
    assert_eq!(decision_retries(&driver), (0, false));

    // Lose the next decision: cut a participant off once the coordinator
    // has decided but before the decision reaches it.
    driver.inject(coordinator, write(2));
    let decision_to = |d: &StepDriver| {
        let to_peer = |e: &&coterie_core::Envelope| {
            matches!(e.msg, Msg::Decision { commit: true, .. }) && e.to != coordinator
        };
        d.pending_messages().iter().find(to_peer).map(|e| e.to)
    };
    step_until(&mut driver, 500, |d| decision_to(d).is_some());
    let cut_off = decision_to(&driver).expect("checked by step_until");
    let mut islands = vec![0; 3];
    islands[cut_off.0 as usize] = 1;
    driver.set_partition(islands);

    // The chain does its job: it fires, asks, the query bounces, it re-arms.
    let bounced = |d: &StepDriver| {
        d.node(cut_off)
            .stats
            .counter(keys::msgs_bounced(MsgClass::Commit))
    };
    step_until(&mut driver, 500, |d| bounced(d) >= 2);
    let node = driver.node(cut_off);
    assert!(node.durable.prepared.is_some(), "still in doubt");
    assert_eq!(node.durable.version, 1);
    assert_eq!(
        decision_retries(&driver),
        (1, true),
        "one chain, still armed"
    );

    // Once the coordinator is reachable again the next query resolves it.
    driver.heal_partition();
    driver.run_for(SimDuration::from_secs(1));
    let node = driver.node(cut_off);
    assert_eq!((node.durable.version, &node.durable.prepared), (2, &None));
    assert_eq!(decision_retries(&driver), (0, false));
}

#[test]
fn bounced_propagation_offer_retries_until_target_recovers() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .pages(4)
        .static_mode();
    let mut driver = StepDriver::new(3, config);
    let write = |id: u64, payload: &[u8]| ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::copy_from_slice(payload))]),
    };
    let write_done = |d: &StepDriver, want: u64| {
        d.outputs()
            .iter()
            .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id, .. } if *id == want))
    };

    // Write v1 while node 2 is down: the quorum {0, 1} commits without it.
    let target = NodeId(2);
    driver.crash(target);
    driver.advance(SimDuration::from_millis(1));
    driver.inject(NodeId(0), write(1, b"one"));
    step_until(&mut driver, 500, |d| write_done(d, 1));

    // Node 2 comes back one version behind; the next write's permission
    // poll classifies it STALE, marks it, and the good replicas owe it a
    // background propagation.
    driver.recover(target);
    driver.advance(SimDuration::from_millis(1));
    driver.inject(NodeId(0), write(2, b"two"));
    step_until(&mut driver, 500, |d| {
        write_done(d, 2)
            && d.node(target).durable.stale
            && (0..3).any(|n| !d.node(NodeId(n)).vol.propagator.remaining.is_empty())
    });

    // Crash the stale target: the next PropOffer (or PropData) bounces.
    driver.crash(target);
    let bounced = |d: &StepDriver, n: NodeId| {
        d.node(n)
            .stats
            .counter(keys::msgs_bounced(MsgClass::Propagation))
    };
    step_until(&mut driver, 500, |d| {
        (0..3).any(|n| bounced(d, NodeId(n)) >= 1)
    });
    let source = (0..3)
        .map(NodeId)
        .find(|&n| bounced(&driver, n) >= 1)
        .expect("checked by step_until");

    // The bounce must not abandon the target: the failure is counted and
    // the target stays on the work list for a later retry.
    let prop = &driver.node(source).vol.propagator;
    assert!(
        prop.attempts.get(&target).copied().unwrap_or(0) >= 1,
        "bounced offer should bump the per-target attempt count"
    );
    assert!(
        prop.remaining.contains(target),
        "bounced target must stay on the propagation work list"
    );

    // Once the target is back, a retry brings it current.
    driver.recover(target);
    driver.run_for(SimDuration::from_secs(60));
    assert!(
        driver.outputs().iter().any(
            |(_, _, e)| matches!(e, ProtocolEvent::Propagated { target: t, .. } if *t == target)
        ),
        "recovered target was never propagated to"
    );
    let src_version = driver.node(source).durable.version;
    let tgt = &driver.node(target).durable;
    assert!(!tgt.stale, "propagated replica must be current");
    assert_eq!(tgt.version, src_version);
    assert_eq!(
        tgt.object.digest(),
        driver.node(source).durable.object.digest(),
        "propagated contents must match the source"
    );
}
