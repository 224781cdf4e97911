//! The step driver's schedule rule and its modelled network: messages fall
//! due after a link delay (a bounce delay when their destination is down or
//! cut off at send time), none is delivered early, virtual time never runs
//! backwards, and a seed fixes the whole run. With zero delay the rule is
//! the original one: every pending message, in send order, before any
//! timer.

use std::sync::Arc;

use bytes::Bytes;
use coterie_base::{SimDuration, SimTime};
use coterie_core::engine::driver::{BOUNCE_DELAY, LINK_DELAY_MAX, LINK_DELAY_MIN, SELF_DELAY};
use coterie_core::{
    keys, ClientRequest, DriverEvent, MsgClass, PartialWrite, ProtocolConfig, ProtocolEvent,
    StepDriver,
};
use coterie_quorum::{GridCoterie, NodeId, RowaCoterie};

fn write(id: u64) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::copy_from_slice(&id.to_le_bytes()))]),
    }
}

/// Three replicas under read-one/write-all, so a write sends to every node
/// (itself included). Epoch checks are off: nothing runs but the write.
fn rowa(seed: u64) -> StepDriver {
    let config = ProtocolConfig::new(Arc::new(RowaCoterie::new()), 3)
        .static_mode()
        .rng_seed(seed);
    StepDriver::with_latency(3, config)
}

fn received(driver: &StepDriver, node: NodeId) -> u64 {
    let stats = &driver.node(node).stats;
    MsgClass::ALL
        .iter()
        .map(|&c| stats.counter(keys::msgs_in(c)))
        .sum()
}

fn bounced(driver: &StepDriver, node: NodeId) -> u64 {
    let stats = &driver.node(node).stats;
    MsgClass::ALL
        .iter()
        .map(|&c| stats.counter(keys::msgs_bounced(c)))
        .sum()
}

#[test]
fn modelled_messages_are_never_delivered_early_and_time_is_monotone() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
        .check_period(SimDuration::from_secs(1))
        .rng_seed(3);
    let mut driver = StepDriver::with_latency(9, config);
    for (id, node) in [(1, 0), (2, 4), (3, 8)] {
        driver.inject(NodeId(node), write(id));
    }
    driver.crash(NodeId(5));
    let deadline = SimTime::ZERO + SimDuration::from_secs(3);
    let (mut last, mut seen) = (driver.now(), 0);
    while let Some(event) = driver.next_event(deadline) {
        let removed = usize::from(matches!(event, DriverEvent::Deliver(_)));
        let due = match event {
            DriverEvent::Deliver(i) => driver.pending_messages()[i].due,
            _ => SimTime::ZERO,
        };
        let before = driver.pending_messages().len() - removed;
        driver.perform(event);
        assert!(
            driver.now() >= due,
            "delivered at {:?}, due {due:?}",
            driver.now()
        );
        assert!(driver.now() >= last, "time ran backwards");
        last = driver.now();
        // Whatever this step sent was sent now, and falls due after one of
        // the model's delays.
        for env in &driver.pending_messages()[before..] {
            let delay = env.due.since(driver.now());
            let expected = if env.from == env.to {
                SELF_DELAY..=SELF_DELAY
            } else if driver.is_down(env.to) {
                BOUNCE_DELAY..=BOUNCE_DELAY
            } else {
                LINK_DELAY_MIN..=LINK_DELAY_MAX
            };
            assert!(
                expected.contains(&delay),
                "{:?} -> {:?} falls due after {delay:?}",
                env.from,
                env.to
            );
            seen += 1;
        }
    }
    assert!(seen > 100, "only {seen} messages sent");
    let done = |id| {
        driver.outputs().iter().find_map(|(at, _, e)| match e {
            ProtocolEvent::WriteOk { id: got, .. } if *got == id => Some(*at),
            _ => None,
        })
    };
    for id in 1..=3 {
        let at = done(id).unwrap_or_else(|| panic!("write {id} did not commit"));
        assert!(
            at.since(SimTime::ZERO) >= LINK_DELAY_MIN * 2,
            "write {id} beat a round trip"
        );
    }
}

#[test]
fn sends_to_a_down_or_cut_off_node_bounce_no_earlier_than_the_notice_delay() {
    for cut_off in [false, true] {
        let mut driver = rowa(1);
        driver.run_for(SimDuration::from_millis(5));
        if cut_off {
            driver.set_partition(vec![0, 0, 1]);
        } else {
            driver.crash(NodeId(2));
        }
        let sent = driver.now();
        driver.inject(NodeId(0), write(1));
        let to_2: Vec<SimTime> = (driver.pending_messages().iter())
            .filter(|e| e.to == NodeId(2))
            .map(|e| e.due)
            .collect();
        assert_eq!(to_2, vec![sent + BOUNCE_DELAY], "cut off: {cut_off}");
        while bounced(&driver, NodeId(0)) == 0 {
            let event = driver.next_event(SimTime(u64::MAX));
            driver.perform(event.expect("the bounce is pending"));
        }
        assert!(
            driver.now() >= sent + BOUNCE_DELAY,
            "cut off: {cut_off}: bounced after {:?}",
            driver.now().since(sent)
        );
        assert_eq!(received(&driver, NodeId(2)), 0, "cut off: {cut_off}");
    }
}

#[test]
fn a_message_in_flight_bounces_when_its_destination_crashes() {
    let mut driver = rowa(2);
    driver.inject(NodeId(0), write(1));
    let due = (driver.pending_messages().iter())
        .find(|e| e.to == NodeId(2))
        .map(|e| e.due)
        .expect("a write under ROWA asks every replica");
    assert!(due > driver.now(), "the request is in flight");
    driver.crash(NodeId(2));
    driver.run_for(SimDuration::from_secs(1));
    assert_eq!(received(&driver, NodeId(2)), 0);
    assert!(
        bounced(&driver, NodeId(0)) >= 1,
        "the request never bounced"
    );
}

#[test]
fn a_crash_drops_the_nodes_timers_and_time_moves_while_idle() {
    let mut driver = rowa(4);
    driver.crash(NodeId(1));
    assert!(driver.pending_timers().iter().all(|t| t.node != NodeId(1)));
    driver.run_for(SimDuration::from_millis(500));
    assert_eq!(driver.now(), SimTime::ZERO + SimDuration::from_millis(500));
}

/// A churny run: writes from every coordinator, a crash and a recovery.
fn churn(seed: u64) -> StepDriver {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
        .check_period(SimDuration::from_secs(1))
        .rng_seed(seed);
    let mut driver = StepDriver::with_latency(9, config);
    for id in 0..30u64 {
        driver.run_until(SimTime(id * 100_000));
        if id == 10 {
            driver.crash(NodeId(3));
        }
        if id == 20 {
            driver.recover(NodeId(3));
        }
        let coordinator = NodeId((id % 9) as u32);
        if !driver.is_down(coordinator) {
            driver.inject(coordinator, write(id));
        }
    }
    driver.run_for(SimDuration::from_secs(5));
    driver
}

#[test]
fn the_same_seed_gives_the_same_run() {
    let (a, b, c) = (churn(42), churn(42), churn(43));
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(a.now(), b.now());
    let outputs = |d: &StepDriver| format!("{:?}", d.outputs());
    assert_eq!(outputs(&a), outputs(&b));
    assert_ne!(
        outputs(&a),
        outputs(&c),
        "the seed does not reach the delays"
    );
}

#[test]
fn zero_delay_delivers_every_pending_message_in_send_order_before_any_timer() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
    let mut driver = StepDriver::new(9, config);
    driver.inject(NodeId(0), write(1));
    let mut delivered = 0;
    while !driver.pending_messages().is_empty() {
        assert_eq!(
            driver.next_event(driver.now()),
            Some(DriverEvent::Deliver(0))
        );
        assert!(driver
            .pending_messages()
            .iter()
            .all(|e| e.due <= driver.now()));
        driver.perform(DriverEvent::Deliver(0));
        delivered += 1;
    }
    assert!(delivered > 10, "only {delivered} messages");
    assert!(matches!(
        driver.next_event(SimTime(u64::MAX)),
        Some(DriverEvent::Fire(_))
    ));
}
