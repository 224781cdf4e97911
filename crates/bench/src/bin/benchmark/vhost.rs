//! The virtual host: an event-driven scheduler over `StepDriver`'s public
//! API with a stated message-delay model.
//!
//! **Delay model:** every message takes [`DELAY_US`] one way (0 when a
//! node sends to itself); storage is free; nodes have no CPU queue. On top
//! of that `StepDriver::deliver` itself moves its clock 1 µs per delivery.
//! Latency in virtual time is therefore rounds × delay + protocol timers.
//! What it leaves out: bandwidth, per-node CPU contention, fsync time.
//!
//! The scheduler keeps `due` index-aligned with
//! `StepDriver::pending_messages()`: the driver appends new envelopes at
//! the end and `deliver(i)` removes exactly index `i`, so pushing a due
//! time for every appended envelope and removing at `i` on delivery keeps
//! the two in step. The alignment is asserted after every call.

use coterie_core::{ClientRequest, PendingTimer, ProtocolConfig, StepDriver};
use coterie_quorum::NodeId;
use coterie_simnet::{SimDuration, TimerId};

use crate::spans::{
    class_kind, CallSpan, Tracer, KIND_CRASH, KIND_INJECT, KIND_RECOVER, KIND_TIMER,
};

/// One-way message delay between distinct nodes, µs.
pub const DELAY_US: u64 = 100;

/// An internal (program-generated) event the scheduler can run next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Internal {
    /// Deliver pending message `i`.
    Deliver(usize),
    /// Fire pending timer `i`.
    Fire(usize),
}

/// The cluster plus the delivery schedule.
pub struct VirtualHost {
    driver: StepDriver,
    /// Delivery time of each pending message, index-aligned with
    /// `driver.pending_messages()`.
    due: Vec<u64>,
    /// A lower bound on the `fire_at` of every armed timer, so the timer
    /// pool is only scanned when a timer could beat the next message. The
    /// pool holds over a thousand lock leases and back-offs under write
    /// contention; scanning it for every event was a quarter of the CPU
    /// this benchmark charges to an operation.
    timer_floor: u64,
    /// The last armed timer when the bound was last brought up to date:
    /// the driver appends new timers behind it.
    last_timer: Option<(NodeId, TimerId)>,
    /// Calls made into the driver (deliver, fire, inject, crash, recover).
    pub events: u64,
    /// High-water mark of the pending-message pool.
    pub pending_msgs_max: usize,
    /// High-water mark of the armed-timer pool.
    pub pending_timers_max: usize,
    /// Span recorder (traced pass only).
    pub tracer: Option<Tracer>,
}

impl VirtualHost {
    /// Boots an `n`-node cluster. With `trace`, the driver's flight
    /// recorders are attached and every call is timed and recorded.
    pub fn new(n: usize, config: ProtocolConfig, trace: bool) -> Self {
        let mut driver = StepDriver::new(n, config);
        if trace {
            driver.enable_tracing(1 << 20);
        }
        let mut host = VirtualHost {
            driver,
            due: Vec::new(),
            timer_floor: 0,
            last_timer: None,
            events: 0,
            pending_msgs_max: 0,
            pending_timers_max: 0,
            tracer: trace.then(Tracer::new),
        };
        host.schedule_new(0);
        host
    }

    /// Read access to the cluster.
    pub fn driver(&self) -> &StepDriver {
        &self.driver
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.driver.now().0
    }

    /// Delivery times of the pending messages (tests read this).
    #[cfg(test)]
    pub fn due(&self) -> &[u64] {
        &self.due
    }

    /// Gives every envelope the driver appended since the last call a
    /// delivery time, and attributes it to `parent` in the traced pass.
    fn schedule_new(&mut self, parent: u64) {
        let now = self.driver.now().0;
        let msgs = self.driver.pending_messages();
        let first_new = self.due.len();
        for env in &msgs[first_new..] {
            let delay = if env.from == env.to { 0 } else { DELAY_US };
            self.due.push(now + delay);
        }
        assert_eq!(
            self.due.len(),
            msgs.len(),
            "delivery schedule out of step with the driver's message pool"
        );
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.adopt(parent, msgs[first_new..].iter().map(|e| &e.msg));
        }
        self.pending_msgs_max = self.pending_msgs_max.max(msgs.len());

        // Removing timers cannot lower the bound; only the ones appended
        // behind the last known timer can. If that one is gone, rescan.
        let timers = self.driver.pending_timers();
        let appended_from = match self.last_timer {
            None => Some(0),
            Some(key) => timers
                .iter()
                .rposition(|t| (t.node, t.id) == key)
                .map(|i| i + 1),
        };
        let earliest = |ts: &[PendingTimer]| ts.iter().map(|t| t.fire_at.0).min();
        self.timer_floor = match appended_from {
            Some(i) => self
                .timer_floor
                .min(earliest(&timers[i..]).unwrap_or(u64::MAX)),
            None => earliest(timers).unwrap_or(u64::MAX),
        };
        self.last_timer = timers.last().map(|t| (t.node, t.id));
        self.pending_timers_max = self.pending_timers_max.max(timers.len());
    }

    /// Runs one call into the driver; in the traced pass, wraps it in a
    /// span. `parent` is the client request the call works for (0 = none).
    fn call(&mut self, kind: usize, node: NodeId, parent: u64, f: impl FnOnce(&mut StepDriver)) {
        self.events += 1;
        let start = self.tracer.as_ref().map(Tracer::wall_ns);
        let at_us = self.driver.now().0;
        f(&mut self.driver);
        if let (Some(tracer), Some(wall_start_ns)) = (self.tracer.as_mut(), start) {
            let wall_end_ns = tracer.wall_ns();
            tracer.calls.push(CallSpan {
                kind,
                node: node.0,
                parent,
                at_us,
                wall_start_ns,
                wall_end_ns,
            });
        }
        self.schedule_new(parent);
    }

    /// The earliest internal event and its time: the pending message with
    /// the smallest due time (ties: send order) or the armed timer with
    /// the smallest `fire_at` (ties: node, id). A message wins a tie with
    /// a timer. Times already in the past run "now".
    pub fn next_internal(&mut self) -> Option<(u64, Internal)> {
        let now = self.driver.now().0;
        let msg = self
            .due
            .iter()
            .enumerate()
            .min_by_key(|(i, due)| (**due, *i))
            .map(|(i, due)| ((*due).max(now), Internal::Deliver(i)));
        if msg.is_some_and(|(at, _)| at <= self.timer_floor.max(now)) {
            return msg;
        }
        let timer = self
            .driver
            .pending_timers()
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| (t.fire_at, t.node.0, t.id.0))
            .map(|(i, t)| (t.fire_at.0, Internal::Fire(i)));
        // The scan found the true earliest expiry: tighten the bound.
        self.timer_floor = timer.map_or(u64::MAX, |t| t.0);
        let timer = timer.map(|(at, ev)| (at.max(now), ev));
        match (msg, timer) {
            (Some(m), Some(t)) => Some(if t.0 < m.0 { t } else { m }),
            (m, t) => m.or(t),
        }
    }

    /// Moves virtual time forward to `t_us`. Before time moves, buffered
    /// group-commit state is flushed (the hosts' flush-on-idle rule; a
    /// no-op while write-through is the default). Returns false when the
    /// flush released effects — the caller must then pick its next event
    /// again, because a released message may be due before `t_us`.
    pub fn advance_to(&mut self, t_us: u64) -> bool {
        let now = self.driver.now().0;
        if t_us <= now {
            return true;
        }
        if self.driver.flush_group_commit() {
            self.schedule_new(0);
            return false;
        }
        self.driver.advance(SimDuration::from_micros(t_us - now));
        true
    }

    /// Runs an internal event chosen by [`next_internal`](Self::next_internal).
    pub fn perform(&mut self, event: Internal) {
        match event {
            Internal::Deliver(i) => {
                let env = &self.driver.pending_messages()[i];
                let (kind, node) = (class_kind(env.msg.class()), env.to);
                let parent = self
                    .tracer
                    .as_ref()
                    .map_or(0, |t| t.parent_of_msg(&env.msg));
                self.due.remove(i);
                self.call(kind, node, parent, |d| d.deliver(i));
            }
            Internal::Fire(i) => {
                let timer = &self.driver.pending_timers()[i];
                let node = timer.node;
                let parent = self
                    .tracer
                    .as_ref()
                    .map_or(0, |t| t.parent_of_timer(&timer.timer));
                self.call(KIND_TIMER, node, parent, |d| d.fire(i));
            }
        }
    }

    /// Submits client request `id` at `node`.
    pub fn inject(&mut self, node: NodeId, id: u64, request: ClientRequest) {
        self.call(KIND_INJECT, node, id, |d| d.inject(node, request));
    }

    /// Fail-stops `node`.
    pub fn crash(&mut self, node: NodeId) {
        self.call(KIND_CRASH, node, 0, |d| d.crash(node));
    }

    /// Restarts `node` from its journal.
    pub fn recover(&mut self, node: NodeId) {
        self.call(KIND_RECOVER, node, 0, |d| d.recover(node));
    }

    /// Flushes buffered group-commit state (a no-op on the defaults), so
    /// journals and durable state can be compared.
    pub fn flush(&mut self) {
        if self.driver.flush_group_commit() {
            self.schedule_new(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_core::{PartialWrite, ProtocolEvent};
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn host(seed: u64) -> VirtualHost {
        let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9).rng_seed(seed);
        VirtualHost::new(9, config, false)
    }

    fn write(id: u64) -> ClientRequest {
        ClientRequest::Write {
            id,
            write: PartialWrite::new([(0, bytes::Bytes::from_static(b"x"))]),
        }
    }

    /// Runs until request `id` completes; returns the completion time and
    /// checks the schedule's invariants at every step.
    fn run_until_done(host: &mut VirtualHost, id: u64) -> u64 {
        let mut last = host.now_us();
        for _ in 0..10_000 {
            let (t, ev) = host.next_internal().expect("work pending");
            if !host.advance_to(t) {
                continue;
            }
            host.perform(ev);
            assert_eq!(host.due().len(), host.driver().pending_messages().len());
            assert!(host.now_us() >= last, "virtual time went backwards");
            last = host.now_us();
            let done = host
                .driver()
                .outputs()
                .iter()
                .find_map(|(at, _, e)| match e {
                    ProtocolEvent::WriteOk { id: got, .. } if *got == id => Some(at.0),
                    _ => None,
                });
            if let Some(at) = done {
                return at;
            }
        }
        panic!("request {id} never completed");
    }

    #[test]
    fn schedule_stays_aligned_and_time_is_monotone() {
        let mut h = host(1);
        h.inject(NodeId(0), 1, write(1));
        assert!(!h.due().is_empty(), "a write sends permission requests");
        run_until_done(&mut h, 1);
    }

    #[test]
    fn completion_takes_at_least_two_delays() {
        let mut h = host(2);
        let issued = h.now_us();
        h.inject(NodeId(3), 1, write(1));
        let done = run_until_done(&mut h, 1);
        assert!(
            done >= issued + 2 * DELAY_US,
            "a quorum round trip cannot beat two one-way delays: {issued} -> {done}"
        );
    }

    #[test]
    fn messages_are_never_delivered_before_they_are_due() {
        let mut h = host(3);
        h.inject(NodeId(0), 1, write(1));
        for _ in 0..200 {
            let Some((t, ev)) = h.next_internal() else {
                break;
            };
            if !h.advance_to(t) {
                continue;
            }
            if let Internal::Deliver(i) = ev {
                assert!(h.due()[i] <= h.now_us(), "delivered early");
            }
            h.perform(ev);
        }
    }
}
