//! A substrate-free harness for the engine: hold a whole cluster's worth
//! of [`ReplicaNode`]s plus their in-flight messages and armed timers, and
//! let the caller decide *which* pending event happens next.
//!
//! This is the building block for schedule exploration: because the driver
//! is `Clone`, an explorer can fork the cluster at any point and try every
//! enabled event from the same state. Every node runs behind its own
//! `EffectInterpreter`, which journals each `Persist` into a per-node
//! [`FramedJournal`] — so crash-replay tests can compare reconstructed
//! durable state against the live engine, and storage faults (failed,
//! torn, or bit-flipped appends) can be injected at the journal boundary
//! deterministically. What is the driver's own is below: the message and
//! timer pools, partitions, and the fail-stop bookkeeping.
//!
//! The two pools are lent out as **one slice each, in send / arming order**,
//! and `deliver(i)` / `fire(i)` remove exactly index `i`: the explorer, the
//! nemesis and the benchmark's scheduler all pick events by indexing into
//! those slices, so the order is part of the contract. Behind the slice,
//! removal costs the distance to the nearer end, not the size of the pool:
//! the oldest message or timer leaves from the front, and a timer that gets
//! cancelled was armed moments ago at the back.
//!
//! A message falls due when sent under [`StepDriver::new`], after a modelled
//! delay under [`StepDriver::with_latency`]; [`StepDriver::next_event`] is
//! the one schedule rule both use.

use std::collections::VecDeque;
use std::fmt::Write as _;

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::durable::Durable;
use crate::msg::{ClientRequest, Msg, ProtocolEvent};
use crate::node::{ReplicaNode, Timer};

use super::failpoint::{FaultKind, FiredFault};
use super::interp::{EffectInterpreter, Replica, Substrate};
use super::io::Input;
use super::metrics::MetricsRegistry;
use super::rng::Rng64;
use super::storage::{FramedJournal, FramedReplay};
use super::trace::{TraceRecord, TraceRing};

/// The modelled network's one-way delay between two nodes is uniform in
/// `[LINK_DELAY_MIN, LINK_DELAY_MAX]`.
pub const LINK_DELAY_MIN: SimDuration = SimDuration::from_micros(500);
/// Upper end of the modelled one-way delay.
pub const LINK_DELAY_MAX: SimDuration = SimDuration::from_micros(2_000);
/// The modelled delay of a message a node sends to itself.
pub const SELF_DELAY: SimDuration = SimDuration::from_micros(10);
/// Under the modelled network, a message to a node that is down or cut off
/// when it is sent falls due this long after the send: the RPC timeout
/// behind the paper's `RPC.CallFailed`.
pub const BOUNCE_DELAY: SimDuration = SimDuration::from_millis(20);

/// An in-flight protocol message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// The message.
    pub msg: Msg,
    /// The sender's Lamport stamp (trace metadata carried on the wire).
    pub lamport: u64,
    /// When it falls due: it is delivered (or bounces) no earlier.
    pub due: SimTime,
}

/// An armed (not yet fired) timer.
#[derive(Clone, Debug)]
pub struct PendingTimer {
    /// Owning node.
    pub node: NodeId,
    /// Node-unique id (cancellation key).
    pub id: TimerId,
    /// Nominal expiry time.
    pub fire_at: SimTime,
    /// Payload.
    pub timer: Timer,
}

/// One schedulable event, as [`StepDriver::next_event`] or an explorer picks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverEvent {
    /// Deliver the `i`-th pending message.
    Deliver(usize),
    /// Fire the `i`-th pending timer.
    Fire(usize),
    /// Fail-stop a node.
    Crash(NodeId),
    /// Restart a crashed node.
    Recover(NodeId),
}

/// A pending-event pool: arrival order, always lendable as one slice, and
/// `remove(i)` shifts whichever side of `i` is shorter — as a `VecDeque`
/// does. What a `VecDeque` does not promise is one contiguous slice, so
/// `push` straightens it on the rare push that wraps around the ring.
/// Removal and `retain` only move elements toward the hole and do not wrap
/// a straight deque, but std does not promise that either: `as_slice`
/// checks in every build rather than lend a truncated slice.
#[derive(Clone, Debug)]
struct Pool<T>(VecDeque<T>);

impl<T> Pool<T> {
    fn new() -> Self {
        Pool(VecDeque::new())
    }

    fn push(&mut self, item: T) {
        self.0.push_back(item);
        if !self.0.as_slices().1.is_empty() {
            // Straightening costs O(len); with `len` of slack the next wrap
            // is at least `len` pushes away, so pushes stay amortised O(1)
            // even for a pool that hovers just under its capacity.
            self.0.reserve(self.0.len());
            self.0.make_contiguous();
        }
    }

    /// Every element, oldest first.
    fn as_slice(&self) -> &[T] {
        let (all, wrapped) = self.0.as_slices();
        assert!(wrapped.is_empty(), "push keeps the pool contiguous");
        all
    }

    /// Drops every element `keep` rejects, keeping the rest in order.
    fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.0.retain(keep);
    }

    /// Removes and returns element `i`, keeping the rest in order.
    fn remove(&mut self, i: usize) -> T {
        #[expect(clippy::expect_used, reason = "an out-of-range index is a caller bug")]
        self.0.remove(i).expect("pool index in range")
    }
}

/// A cluster of engines plus the pending-event pools they feed on.
#[derive(Clone, Debug)]
pub struct StepDriver {
    config: ProtocolConfig,
    nodes: Vec<ReplicaNode>,
    down: Vec<bool>,
    now: SimTime,
    messages: Pool<Envelope>,
    timers: Pool<PendingTimer>,
    outputs: Vec<(SimTime, NodeId, ProtocolEvent)>,
    journals: Vec<FramedJournal>,
    interps: Vec<EffectInterpreter>,
    /// Partition island id per node; nodes in different islands cannot
    /// exchange messages (deliveries bounce as `CallFailed`).
    partition: Vec<u8>,
    /// The modelled network's delay draws; `None` sends with zero delay.
    latency: Option<Rng64>,
}

impl StepDriver {
    /// Builds and boots an `n`-node cluster with zero message delay.
    pub fn new(n: usize, config: ProtocolConfig) -> Self {
        Self::build(n, config, None)
    }

    /// Builds and boots an `n`-node cluster on a modelled network: a
    /// message spends [`LINK_DELAY_MIN`]–[`LINK_DELAY_MAX`] in flight
    /// ([`SELF_DELAY`] to its sender); one sent to a node that is down or
    /// cut off falls due [`BOUNCE_DELAY`] later, and bounces unless the
    /// node is back by then. Delays come from the driver's own stream,
    /// seeded by `config.seed`, never from an engine's.
    pub fn with_latency(n: usize, config: ProtocolConfig) -> Self {
        let stream = Rng64::new(config.seed ^ 0x6E65_7477_6F72_6B21);
        Self::build(n, config, Some(stream))
    }

    fn build(n: usize, config: ProtocolConfig, latency: Option<Rng64>) -> Self {
        let mut driver = StepDriver {
            nodes: (0..n as u32)
                .map(|id| ReplicaNode::new(NodeId(id), config.clone()))
                .collect(),
            interps: (0..n as u32)
                .map(|id| EffectInterpreter::new(NodeId(id), &config))
                .collect(),
            config,
            down: vec![false; n],
            now: SimTime::ZERO,
            messages: Pool::new(),
            timers: Pool::new(),
            outputs: Vec::new(),
            journals: vec![FramedJournal::new(); n],
            partition: vec![0; n],
            latency,
        };
        for id in 0..n as u32 {
            driver.step_node(NodeId(id), Input::Boot);
        }
        driver
    }

    /// Current driver time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves time forward without firing anything.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Submits a client request at `node`.
    pub fn inject(&mut self, node: NodeId, request: ClientRequest) {
        assert!(!self.down[node.0 as usize], "cannot inject at a down node");
        self.step_node(node, Input::External(request));
    }

    /// The in-flight messages, in send order.
    pub fn pending_messages(&self) -> &[Envelope] {
        self.messages.as_slice()
    }

    /// The armed timers, in arming order.
    pub fn pending_timers(&self) -> &[PendingTimer] {
        self.timers.as_slice()
    }

    /// Number of replicas in the cluster.
    pub fn cluster_size(&self) -> usize {
        self.nodes.len()
    }

    /// True if `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize]
    }

    /// Read access to a node's engine.
    pub fn node(&self, node: NodeId) -> &ReplicaNode {
        &self.nodes[node.0 as usize]
    }

    /// Protocol events emitted so far, in emission order.
    pub fn outputs(&self) -> &[(SimTime, NodeId, ProtocolEvent)] {
        &self.outputs
    }

    /// The per-node framed journal of persisted deltas.
    pub fn journal(&self, node: NodeId) -> &FramedJournal {
        &self.journals[node.0 as usize]
    }

    /// Reconstructs `node`'s durable state purely from its journal.
    pub fn replay_journal(&self, node: NodeId) -> Durable {
        self.replay_checked(node).durable
    }

    /// Checked replay of `node`'s journal: durable state plus the framing
    /// verdict (clean / torn tail / quarantined).
    pub fn replay_checked(&self, node: NodeId) -> FramedReplay {
        self.journals[node.0 as usize].replay_checked(&self.config)
    }

    /// Arms a one-shot storage fault at `node`'s next journal append.
    pub fn arm_storage_fault(&mut self, node: NodeId, kind: FaultKind) {
        self.interps[node.0 as usize].failpoints.arm(kind);
    }

    /// Storage faults that actually fired at `node`, in order.
    pub fn fired_faults(&self, node: NodeId) -> &[FiredFault] {
        self.interps[node.0 as usize].failpoints.fired()
    }

    /// Splits the cluster into partition islands: `islands[i]` is node
    /// `i`'s island id, and messages between different islands bounce as
    /// `CallFailed` (the fail-stop notification — an unreachable peer is
    /// indistinguishable from a crashed one in this model).
    pub fn set_partition(&mut self, islands: Vec<u8>) {
        assert_eq!(islands.len(), self.nodes.len(), "one island id per node");
        self.partition = islands;
    }

    /// Heals all partitions.
    pub fn heal_partition(&mut self) {
        self.partition = vec![0; self.nodes.len()];
    }

    /// True if `a` and `b` can currently exchange messages.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.partition[a.0 as usize] == self.partition[b.0 as usize]
    }

    /// Delivers the `i`-th pending message. If the destination is down the
    /// message bounces as a `CallFailed` to its sender (the fail-stop
    /// notification of the paper's model); if the sender is down too, the
    /// bounce is dropped.
    ///
    /// Each delivery advances time by 1 µs, and at least to the message's
    /// due time, so completion timestamps strictly follow the injection
    /// timestamps of the requests that caused them (the real-time order the
    /// 1SR checker's recency rule relies on).
    pub fn deliver(&mut self, i: usize) {
        let env = self.messages.remove(i);
        self.now = (self.now + SimDuration::from_micros(1)).max(env.due);
        if self.down[env.to.0 as usize] || !self.connected(env.from, env.to) {
            if !self.down[env.from.0 as usize] {
                self.step_node(
                    env.from,
                    Input::CallFailed {
                        to: env.to,
                        msg: env.msg,
                    },
                );
            }
        } else {
            self.step_node(
                env.to,
                Input::Deliver {
                    from: env.from,
                    msg: env.msg,
                    lamport: env.lamport,
                },
            );
        }
    }

    /// Fires the `i`-th pending timer, advancing time to its nominal expiry
    /// if that lies in the future.
    pub fn fire(&mut self, i: usize) {
        let t = self.timers.remove(i);
        debug_assert!(!self.down[t.node.0 as usize], "down nodes hold no timers");
        self.now = self.now.max(t.fire_at);
        self.step_node(t.node, Input::TimerFired(t.timer));
    }

    /// Fail-stops `node`: volatile state and armed timers are lost;
    /// in-flight messages to it will bounce on delivery.
    pub fn crash(&mut self, node: NodeId) {
        assert!(!self.down[node.0 as usize], "node already down");
        let (interp, mut replica, _) = self.parts(node);
        interp.crash(&mut replica);
        self.mark_down(node);
    }

    /// Restarts a crashed node from its journal alone (see
    /// `EffectInterpreter::recover`) and boots it: a quarantined journal
    /// boots into the stale-rejoin protocol.
    pub fn recover(&mut self, node: NodeId) {
        assert!(self.down[node.0 as usize], "node not down");
        self.down[node.0 as usize] = false;
        let (interp, mut replica, _) = self.parts(node);
        interp.recover(&mut replica);
        self.step_node(node, Input::Boot);
    }

    /// [`run_until`](StepDriver::run_until) `d` of driver time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Runs [`next_event`](StepDriver::next_event)'s schedule up to
    /// `deadline`, then moves the clock there.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(event) = self.next_event(deadline) {
            self.perform(event);
        }
        self.now = self.now.max(deadline);
    }

    /// The fixed, deterministic schedule's next event, if one falls due by
    /// `deadline`. Messages due now go first, earliest due then send order
    /// (with zero delay: every pending message, in send order). Then the
    /// earlier of the next message and the earliest timer (ties: node, then
    /// id); a message wins a tie with a timer.
    ///
    /// This is the "well-behaved network and clocks" schedule — useful as
    /// a baseline; the interleaving explorer exists precisely to try all
    /// the *other* schedules.
    pub fn next_event(&self, deadline: SimTime) -> Option<DriverEvent> {
        let message = self
            .pending_messages()
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.due, *i))
            .map(|(i, e)| (e.due, DriverEvent::Deliver(i)));
        if let Some((due, event)) = message {
            if due <= self.now {
                return Some(event);
            }
        }
        let timer = self
            .pending_timers()
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| (t.fire_at, t.node.0, t.id.0))
            .map(|(i, t)| (t.fire_at, DriverEvent::Fire(i)));
        let next = match (message, timer) {
            (Some(m), Some(t)) => Some(if t.0 < m.0 { t } else { m }),
            (m, t) => m.or(t),
        };
        next.filter(|(at, _)| *at <= deadline).map(|(_, e)| e)
    }

    /// Applies one schedulable event.
    pub fn perform(&mut self, event: DriverEvent) {
        match event {
            DriverEvent::Deliver(i) => self.deliver(i),
            DriverEvent::Fire(i) => self.fire(i),
            DriverEvent::Crash(n) => self.crash(n),
            DriverEvent::Recover(n) => self.recover(n),
        }
    }

    /// Borrows `node`'s interpreter, its replica parts, and the pools its
    /// effects land in — disjoint fields, so one interpreter call can use
    /// all three.
    fn parts(&mut self, node: NodeId) -> (&mut EffectInterpreter, Replica<'_>, Pools<'_>) {
        let i = node.0 as usize;
        (
            &mut self.interps[i],
            Replica {
                node: &mut self.nodes[i],
                journal: &mut self.journals[i],
                now: self.now,
            },
            Pools {
                node,
                now: self.now,
                messages: &mut self.messages,
                timers: &mut self.timers,
                outputs: &mut self.outputs,
                latency: self.latency.as_mut(),
                down: &self.down,
                partition: &self.partition,
            },
        )
    }

    fn step_node(&mut self, node: NodeId, input: Input) {
        let (interp, mut replica, mut pools) = self.parts(node);
        if !interp.step(&mut replica, input, &mut pools) {
            self.mark_down(node);
        }
    }

    /// The driver's half of a fail-stop: the node is down and holds no
    /// timers.
    fn mark_down(&mut self, node: NodeId) {
        self.down[node.0 as usize] = true;
        self.timers.retain(|t| t.node != node);
    }

    /// Always false: every commit is write-through, so nothing waits to be
    /// flushed. Kept for callers written when journal commits could be
    /// batched.
    pub fn flush_group_commit(&mut self) -> bool {
        false
    }

    /// Always 0: batched journal flushes no longer exist (see
    /// [`flush_group_commit`](StepDriver::flush_group_commit)); each node's
    /// commits are [`FramedJournal::committed_records`].
    pub fn flushes(&self, _node: NodeId) -> u64 {
        0
    }

    /// Attaches a flight recorder of capacity `cap` to every node. Every
    /// engine transition and host-level journal event from here on is
    /// retained (bounded, oldest dropped first). Tracing is observational:
    /// effects, journals, and digests are byte-identical with or without
    /// it.
    pub fn enable_tracing(&mut self, cap: usize) {
        for interp in &mut self.interps {
            interp.tracing = Some(TraceRing::new(cap));
        }
    }

    /// `node`'s flight recorder, if tracing is enabled.
    pub fn trace_ring(&self, node: NodeId) -> Option<&TraceRing> {
        self.interps[node.0 as usize].tracing.as_ref()
    }

    /// All retained records, causally merged across nodes (empty when
    /// tracing is disabled).
    pub fn merged_trace(&self) -> Vec<TraceRecord> {
        let rings: Vec<&TraceRing> = self
            .interps
            .iter()
            .filter_map(|i| i.tracing.as_ref())
            .collect();
        super::trace::causal_merge(&rings)
    }

    /// A unified snapshot of the cluster's metrics: every node's registry
    /// merged.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for node in &self.nodes {
            merged.merge(&node.stats);
        }
        merged
    }

    /// A deterministic digest of the cluster's logical state. Per node: its
    /// liveness and island, its `Durable` and `Volatile` as `Debug` prints
    /// them (keyed state is BTree-only, so the rendering is canonical), its
    /// RNG and its timer-id counter. Then the pending message/timer pools
    /// (order-insensitive, expiry-time-blind) and the output history. Left
    /// out: `stats`, `plans`, `lamport` and `trace_seq`, which measure or
    /// memoise and never decide a step. Two drivers with equal digests
    /// behave identically under equal future schedules, so an explorer can
    /// prune revisits.
    pub fn state_digest(&self) -> u64 {
        let mut repr = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = write!(
                repr,
                "n{i};down={};isl={};{:?};{:?};rng={:?};seq={};",
                self.down[i], self.partition[i], *node.durable, node.vol, node.rng, node.timer_seq,
            );
        }
        let msgs = (self.pending_messages().iter())
            .map(|e| format!("{}>{}:{:?}\n", e.from.0, e.to.0, e.msg));
        let tmrs = (self.pending_timers().iter())
            .map(|t| format!("{}#{}:{:?}\n", t.node.0, t.id.0, t.timer));
        let mut pending: Vec<String> = msgs.chain(tmrs).collect();
        pending.sort_unstable();
        repr.extend(pending);
        let _ = write!(repr, "outs={}", self.outputs.len());
        for (_, n, e) in &self.outputs {
            let _ = write!(repr, ";{}:{e:?}", n.0);
        }
        crate::store::fnv1a(crate::store::FNV1A_SEED, repr.as_bytes())
    }
}

/// The pending-event pools, as the substrate one node's effects land in.
struct Pools<'a> {
    node: NodeId,
    now: SimTime,
    messages: &'a mut Pool<Envelope>,
    timers: &'a mut Pool<PendingTimer>,
    outputs: &'a mut Vec<(SimTime, NodeId, ProtocolEvent)>,
    latency: Option<&'a mut Rng64>,
    down: &'a [bool],
    partition: &'a [u8],
}

impl Substrate for Pools<'_> {
    fn send(&mut self, to: NodeId, msg: Msg, lamport: u64) {
        let (from, t) = (self.node.0 as usize, to.0 as usize);
        let delay = match self.latency.as_deref_mut() {
            None => SimDuration::ZERO,
            Some(_) if from == t => SELF_DELAY,
            Some(_) if self.down[t] || self.partition[from] != self.partition[t] => BOUNCE_DELAY,
            Some(rng) => {
                let spread = (LINK_DELAY_MAX - LINK_DELAY_MIN).micros();
                LINK_DELAY_MIN + SimDuration::from_micros(rng.below(spread + 1))
            }
        };
        self.messages.push(Envelope {
            from: self.node,
            to,
            msg,
            lamport,
            due: self.now + delay,
        });
    }

    fn set_timer(&mut self, id: TimerId, delay: SimDuration, timer: Timer) {
        self.timers.push(PendingTimer {
            node: self.node,
            id,
            fire_at: self.now + delay,
            timer,
        });
    }

    fn cancel_timer(&mut self, id: TimerId) {
        // `(node, id)` is unique (ids come from the node's `timer_seq`), so
        // stop at the first match instead of sweeping the whole pool — and
        // look from the back: a timer that gets cancelled was armed moments
        // ago, behind a pool of older ones that will fire instead.
        let is_it = |t: &PendingTimer| t.node == self.node && t.id == id;
        if let Some(i) = self.timers.as_slice().iter().rposition(is_it) {
            self.timers.remove(i);
            debug_assert!(
                !self.timers.as_slice().iter().any(is_it),
                "duplicate timer id"
            );
        }
    }

    fn output(&mut self, event: ProtocolEvent) {
        self.outputs.push((self.now, self.node, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A pool against a plain `Vec` model: a seeded mix of arming, removal
    /// at the front / middle / back, cancellation and fail-stop sweeps, with
    /// far more pushes than the ring ever holds at once.
    #[test]
    fn pool_matches_a_vec_model_across_wrap_arounds() {
        let mut rng = super::super::rng::Rng64::new(0xC0FFEE);
        let mut messages = Pool::new();
        let (mut timers, mut outputs) = (Pool::new(), Vec::new());
        let mut pools = Pools {
            node: NodeId(0),
            now: SimTime::ZERO,
            messages: &mut messages,
            timers: &mut timers,
            outputs: &mut outputs,
            latency: None,
            down: &[false; 4],
            partition: &[0; 4],
        };
        let mut model: Vec<(NodeId, TimerId)> = Vec::new();
        let (mut next_id, mut wraps) = (0, 0);
        for step in 0..20_000 {
            pools.node = NodeId(rng.below(4) as u32);
            // Grow to ~200 entries, then hover: removals mostly take the
            // front, so the ring's head keeps advancing and pushes wrap.
            match rng.below(if model.len() < 200 { 12 } else { 20 }) {
                0..=7 => {
                    next_id += 1;
                    let start = pools.timers.as_slice().as_ptr();
                    let had_room = pools.timers.0.len() < pools.timers.0.capacity();
                    pools.set_timer(TimerId(next_id), SimDuration::ZERO, Timer::EpochTick);
                    model.push((pools.node, TimerId(next_id)));
                    // Room to push, yet the slice moved: the push wrapped
                    // and the pool straightened itself.
                    wraps += u32::from(had_room && start != pools.timers.as_slice().as_ptr());
                }
                8..=15 if !model.is_empty() => {
                    let len = model.len();
                    let i = [0, 0, 0, 1 % len, len / 2, len - 1][rng.below(6) as usize];
                    let t = pools.timers.remove(i);
                    assert_eq!((t.node, t.id), model.remove(i));
                }
                16..=18 if !model.is_empty() => {
                    // A recently armed timer, then an id that never was.
                    let back = rng.below(model.len().min(8) as u64) as usize;
                    let (node, id) = model[model.len() - 1 - back];
                    pools.node = node;
                    pools.cancel_timer(id);
                    pools.cancel_timer(TimerId(0));
                    model.retain(|&t| t != (node, id));
                }
                _ => {
                    let node = pools.node;
                    pools.timers.retain(|t| t.node != node || t.id.0 % 5 != 0);
                    model.retain(|t| t.0 != pools.node || t.1 .0 % 5 != 0);
                }
            }
            let pending = pools.timers.as_slice().iter().map(|t| (t.node, t.id));
            assert_eq!(pending.collect::<Vec<_>>(), model, "after step {step}");
        }
        assert!(wraps >= 3, "only {wraps} wrap-arounds exercised");
    }

    /// The digest splits states that differ in one field the engine acts
    /// on: each change below, made alone at node 0, moves it.
    #[test]
    fn state_digest_sees_every_field_the_engine_acts_on() {
        use coterie_quorum::{MajorityCoterie, NodeSet};
        let driver = StepDriver::new(3, ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3));
        let blind_to = |field, change: fn(&mut ReplicaNode)| {
            let mut changed = driver.clone();
            change(&mut changed.nodes[0]);
            (changed.state_digest() == driver.state_digest()).then_some(field)
        };
        let blind: Vec<&str> = [
            blind_to("current", |n| n.vol.current = NodeSet::singleton(NodeId(1))),
            blind_to("write_queue_held", |n| n.vol.write_queue_held = true),
            blind_to("cooldown", |n| {
                n.vol.propagator.cooldown = [(NodeId(1), SimTime::ZERO)].into()
            }),
            // A refusal sets the contention bit; the holder's release keeps it.
            blind_to("contended", |n| {
                let op = |node| crate::msg::OpId {
                    node: NodeId(node),
                    inc: 0,
                    seq: 1,
                };
                assert!(n.vol.lock.try_exclusive(op(1)) && !n.vol.lock.try_shared(op(2)));
                n.vol.lock.release(op(1));
            }),
            blind_to("rejoin_pending", |n| {
                n.install_durable(Durable {
                    rejoin_pending: true,
                    ..(*n.durable).clone()
                })
            }),
        ]
        .into_iter()
        .flatten()
        .collect();
        assert!(blind.is_empty(), "digest blind to {blind:?}");
    }
}
