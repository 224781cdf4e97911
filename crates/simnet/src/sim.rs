//! The discrete-event simulator core.

#![expect(clippy::disallowed_types, reason = "membership-only, never iterated")]

use crate::app::{Application, Ctx, Effect, TimerId};
use crate::network::{NetConfig, NetCounters, Partition};
use crate::time::{SimDuration, SimTime};
use coterie_quorum::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Network model parameters.
    pub net: NetConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC07E_81E5,
            net: NetConfig::default(),
        }
    }
}

/// What happened to a node (used in traces and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Node is running.
    Up,
    /// Node has crashed and not yet recovered.
    Down,
}

enum EventKind<A: Application> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: A::Msg,
    },
    CallFailed {
        sender: NodeId,
        to: NodeId,
        msg: A::Msg,
    },
    Timer {
        node: NodeId,
        boot: u64,
        id: TimerId,
        timer: A::Timer,
    },
    External {
        node: NodeId,
        ext: A::External,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
    SetPartition {
        partition: Partition,
    },
}

struct Event<A: Application> {
    time: SimTime,
    seq: u64,
    kind: EventKind<A>,
}

impl<A: Application> PartialEq for Event<A> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<A: Application> Eq for Event<A> {}
impl<A: Application> PartialOrd for Event<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Application> Ord for Event<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct NodeSlot<A: Application> {
    app: A,
    up: bool,
    /// Incremented on every crash; timer events from an earlier boot are
    /// dropped when popped.
    boot: u64,
}

/// The deterministic discrete-event simulator.
///
/// Hosts `N` [`Application`] nodes, a latency/partition network with
/// `RPC.CallFailed` semantics, and a fault-injection API. All randomness
/// flows from the seed in [`SimConfig`], so runs are reproducible.
pub struct Sim<A: Application> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<A>>,
    nodes: Vec<NodeSlot<A>>,
    partition: Partition,
    config: SimConfig,
    rng: StdRng,
    next_timer_id: u64,
    /// Canceled timers, keyed by `(node, id)`: sans-I/O applications
    /// allocate timer ids per node, so the bare id is not globally unique.
    canceled_timers: HashSet<(NodeId, TimerId)>,
    outputs: Vec<(SimTime, NodeId, A::Output)>,
    counters: NetCounters,
    effects_buf: Vec<Effect<A>>,
}

impl<A: Application> Sim<A> {
    /// Creates a simulator with `n` nodes built by `make_node`, and runs
    /// every node's `on_start` at time zero.
    pub fn new(n: usize, config: SimConfig, mut make_node: impl FnMut(NodeId) -> A) -> Self {
        config.net.validate();
        let rng = StdRng::seed_from_u64(config.seed);
        let mut sim = Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: (0..n)
                .map(|i| NodeSlot {
                    app: make_node(NodeId(i as u32)),
                    up: true,
                    boot: 0,
                })
                .collect(),
            partition: Partition::connected(n),
            config,
            rng,
            next_timer_id: 1,
            canceled_timers: HashSet::new(),
            outputs: Vec::new(),
            counters: NetCounters::new(n),
            effects_buf: Vec::new(),
        };
        for i in 0..n {
            sim.start_node(NodeId(i as u32));
        }
        sim
    }

    /// Number of hosted nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the simulator hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node's application (for assertions and metrics).
    pub fn node(&self, id: NodeId) -> &A {
        &self.nodes[id.index()].app
    }

    /// Mutable access to a node's application. Intended for test setup;
    /// protocol interaction should go through messages and externals.
    pub fn node_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.nodes[id.index()].app
    }

    /// Whether `id` is currently up.
    pub fn status(&self, id: NodeId) -> NodeStatus {
        if self.nodes[id.index()].up {
            NodeStatus::Up
        } else {
            NodeStatus::Down
        }
    }

    /// The set of currently-up nodes.
    pub fn up_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.nodes[n.index()].up)
            .collect()
    }

    /// Network traffic counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// Current partition state.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Drains outputs emitted since the last call.
    pub fn take_outputs(&mut self) -> Vec<(SimTime, NodeId, A::Output)> {
        std::mem::take(&mut self.outputs)
    }

    // ---- fault & workload injection -------------------------------------

    /// Schedules a crash of `node` at absolute time `at` (>= now).
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.push(at, EventKind::Crash { node });
    }

    /// Schedules a recovery of `node` at absolute time `at`.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.push(at, EventKind::Recover { node });
    }

    /// Schedules a partition change at absolute time `at`.
    pub fn schedule_partition(&mut self, at: SimTime, partition: Partition) {
        assert_eq!(partition.len(), self.nodes.len(), "partition size mismatch");
        self.push(at, EventKind::SetPartition { partition });
    }

    /// Schedules an external operation at `node` at absolute time `at`.
    pub fn schedule_external(&mut self, at: SimTime, node: NodeId, ext: A::External) {
        self.push(at, EventKind::External { node, ext });
    }

    /// Crashes `node` right now (processed before any later event).
    pub fn crash_now(&mut self, node: NodeId) {
        self.apply_crash(node);
    }

    /// Recovers `node` right now.
    pub fn recover_now(&mut self, node: NodeId) {
        self.apply_recover(node);
    }

    /// Replaces the partition right now.
    pub fn set_partition_now(&mut self, partition: Partition) {
        assert_eq!(partition.len(), self.nodes.len(), "partition size mismatch");
        self.partition = partition;
    }

    // ---- execution -------------------------------------------------------

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        match ev.kind {
            EventKind::Deliver { from, to, msg } => {
                // Reachability is evaluated at delivery time: a message in
                // flight when its target crashes or partitions away bounces
                // back as CallFailed.
                if self.nodes[to.index()].up && self.partition.can_reach(from, to) {
                    self.counters.delivered += 1;
                    self.counters.received_by[to.index()] += 1;
                    self.dispatch(to, |app, ctx| app.on_message(ctx, from, msg));
                } else {
                    let at = self.now + self.config.net.fail_notice_delay;
                    self.push(
                        at,
                        EventKind::CallFailed {
                            sender: from,
                            to,
                            msg,
                        },
                    );
                }
            }
            EventKind::CallFailed { sender, to, msg } => {
                self.counters.failed += 1;
                if self.nodes[sender.index()].up {
                    self.dispatch(sender, |app, ctx| app.on_call_failed(ctx, to, msg));
                }
            }
            EventKind::Timer {
                node,
                boot,
                id,
                timer,
            } => {
                if self.canceled_timers.remove(&(node, id)) {
                    return true;
                }
                let slot = &self.nodes[node.index()];
                if slot.up && slot.boot == boot {
                    self.dispatch(node, |app, ctx| app.on_timer(ctx, timer));
                }
            }
            EventKind::External { node, ext } => {
                if self.nodes[node.index()].up {
                    self.dispatch(node, |app, ctx| app.on_external(ctx, ext));
                }
                // Externals at a down node are dropped: the client's
                // connection attempt fails and the harness observes the
                // absence of a response.
            }
            EventKind::Crash { node } => self.apply_crash(node),
            EventKind::Recover { node } => self.apply_recover(node),
            EventKind::SetPartition { partition } => self.partition = partition,
        }
        true
    }

    /// Runs until the queue is drained or virtual time would pass `until`.
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(ev) = self.queue.peek() {
            if ev.time > until {
                break;
            }
            self.step();
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Runs until the event queue is empty (beware of self-rearming timers).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Runs at most `max_events` events.
    pub fn run_events(&mut self, max_events: u64) {
        for _ in 0..max_events {
            if !self.step() {
                break;
            }
        }
    }

    // ---- internals -------------------------------------------------------

    fn push(&mut self, time: SimTime, kind: EventKind<A>) {
        assert!(time >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    fn start_node(&mut self, node: NodeId) {
        self.dispatch(node, |app, ctx| app.on_start(ctx));
    }

    fn apply_crash(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node.index()];
        if !slot.up {
            return;
        }
        slot.up = false;
        slot.boot += 1; // invalidates all pending timers for this node
        slot.app.on_crash();
    }

    fn apply_recover(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node.index()];
        if slot.up {
            return;
        }
        slot.up = true;
        self.start_node(node);
    }

    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, A>)) {
        debug_assert!(self.nodes[node.index()].up);
        let mut effects = std::mem::take(&mut self.effects_buf);
        {
            let mut ctx = Ctx {
                me: node,
                now: self.now,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(&mut self.nodes[node.index()].app, &mut ctx);
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.net_send(node, to, msg),
                Effect::SetTimer { id, delay, timer } => {
                    let boot = self.nodes[node.index()].boot;
                    let at = self.now + delay;
                    self.push(
                        at,
                        EventKind::Timer {
                            node,
                            boot,
                            id,
                            timer,
                        },
                    );
                }
                Effect::CancelTimer { id } => {
                    self.canceled_timers.insert((node, id));
                }
                Effect::Output(out) => self.outputs.push((self.now, node, out)),
            }
        }
        self.effects_buf = effects;
    }

    fn net_send(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.counters.sent += 1;
        self.counters.sent_by[from.index()] += 1;
        if to.index() >= self.nodes.len() {
            // Unknown target: immediate CallFailed after the notice delay.
            let at = self.now + self.config.net.fail_notice_delay;
            self.push(
                at,
                EventKind::CallFailed {
                    sender: from,
                    to,
                    msg,
                },
            );
            return;
        }
        let latency = if from == to {
            self.config.net.self_latency
        } else if self.partition.can_reach(from, to) && self.nodes[to.index()].up {
            SimDuration(
                self.rng
                    .gen_range(self.config.net.latency_min.0..=self.config.net.latency_max.0),
            )
        } else {
            // Known-unreachable at send time: the RPC layer reports failure
            // after its timeout.
            // Debugging aid: `--features coterie-simnet/trace-dead-sends`
            // logs the first sends to unreachable nodes, which makes
            // CallFailed feedback loops easy to spot.
            #[cfg(feature = "trace-dead-sends")]
            {
                use std::sync::atomic::{AtomicU64, Ordering};
                static LOGGED: AtomicU64 = AtomicU64::new(0);
                if LOGGED.fetch_add(1, Ordering::Relaxed) < 200 {
                    eprintln!("DEAD {:?} {from:?} -> {to:?}: {msg:?}", self.now);
                }
            }
            let at = self.now + self.config.net.fail_notice_delay;
            self.push(
                at,
                EventKind::CallFailed {
                    sender: from,
                    to,
                    msg,
                },
            );
            return;
        };
        let at = self.now + latency;
        self.push(at, EventKind::Deliver { from, to, msg });
    }
}
