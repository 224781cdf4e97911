//! The replica node: durable and volatile state. The event dispatch that
//! drives the protocol lives in [`crate::engine::step`] (the sans-I/O
//! [`ReplicaNode::step`] entry point); hosts adapt it to their substrate
//! (see the `simnet-host` feature).

use crate::config::{ProtocolConfig, DECISION_RETRY, LOCK_LEASE, RETRY_BACKOFF};
use crate::coord::InFlight;
use crate::durable::{Durable, DurableCell};
use crate::engine::metrics::{keys, MetricsRegistry};
use crate::engine::rng::Rng64;
use crate::engine::trace::TraceEvent;
use crate::locks::ReplicaLock;
use crate::msg::{Action, ClientRequest, OpId};
use crate::propagate::{IncomingProp, Propagator};
use crate::write::BatchEntry;
use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::{NodeId, NodeSet, PlanCache, QuorumKind, View};
use std::collections::{BTreeMap, VecDeque};

/// Timers used by the protocol.
#[derive(Clone, Debug)]
pub enum Timer {
    /// Permission-phase collection timeout for a coordinated operation.
    Collect {
        /// The operation.
        op: OpId,
    },
    /// Two-phase-commit vote timeout.
    Votes {
        /// The operation.
        op: OpId,
    },
    /// Never armed. Kept only because the frozen benchmark's span
    /// attribution (`crates/bench/src/bin/benchmark/spans.rs`) names it;
    /// it goes when that directory is next unfrozen.
    Fetch {
        /// Unused.
        op: OpId,
    },
    /// Retry a read refused under contention, after backoff. Only reads arm
    /// it: a refused write batch requeues behind [`Timer::WriteQueueKick`].
    /// The variant keeps its general shape because the frozen benchmark's
    /// span attribution (`crates/bench/src/bin/benchmark/spans.rs`) matches
    /// it.
    RetryClient {
        /// Attempt number (1-based for the first retry).
        attempt: u32,
        /// The original request to re-run.
        request: ClientRequest,
    },
    /// Server-side lock lease expiry.
    LockLease {
        /// The holding operation.
        op: OpId,
    },
    /// Periodic check: should this node initiate an epoch check?
    EpochTick,
    /// One-shot fast retry after an aborted epoch change (does not re-arm
    /// the periodic chain).
    EpochRetry,
    /// Continue the propagation task.
    PropKick,
    /// Backoff expiry for a requeued (refused) write batch: release the
    /// held write queue and launch the next round.
    WriteQueueKick,
    /// A propagation offer or transfer went unanswered.
    PropTimeout {
        /// The propagation attempt.
        prop: OpId,
    },
    /// Target-side guard: a permitted propagation never completed.
    PropLease {
        /// The propagation attempt.
        prop: OpId,
    },
    /// A recovered participant re-asks the coordinator for an outcome.
    DecisionRetry {
        /// The in-doubt operation.
        op: OpId,
    },
    /// A quarantined replica re-polls peers that have not answered its
    /// rejoin query (see [`crate::rejoin`]).
    RejoinRetry,
    /// Never armed. Kept only because the frozen benchmark's span
    /// attribution (`crates/bench/src/bin/benchmark/spans.rs`) names it;
    /// it goes when that directory is next unfrozen.
    ElectionTimeout {
        /// Unused.
        round: OpId,
    },
}

/// State wiped by a crash.
///
/// Keyed collections here are `BTreeMap`/`BTreeSet`, never hash maps:
/// timer-expiry handlers and shutdown paths iterate them, and that
/// iteration feeds `Effect` ordering and the explorer's state digests.
/// The engine contract is *same inputs ⇒ byte-identical effects*, which a
/// randomly seeded hash order would silently break (enforced by the
/// `disallowed-types` entries of `crates/core/clippy.toml`).
#[derive(Debug, Default)]
pub struct Volatile {
    /// The replica lock.
    pub lock: ReplicaLock,
    /// Lock-lease timers, by holder.
    pub lock_leases: BTreeMap<OpId, TimerId>,
    /// The reads, write rounds and epoch checks this node is coordinating.
    pub ops: BTreeMap<OpId, InFlight>,
    /// Client writes waiting to ride the next write round
    /// (coordinator-side batching, DESIGN.md §10). Volatile: a queued write
    /// was never acked, so losing the queue in a crash is a client-visible
    /// timeout, not a durability violation.
    pub write_queue: VecDeque<BatchEntry>,
    /// True while a refused batch sits requeued under contention backoff:
    /// the queue launcher stays quiet until the [`Timer::WriteQueueKick`]
    /// releases it, so the whole batch (plus anything that queued
    /// meanwhile) relaunches as one round instead of fragmenting into
    /// per-client retries.
    pub write_queue_held: bool,
    /// Outgoing propagation state.
    pub propagator: Propagator,
    /// Incoming (target-side) propagation state.
    pub incoming_prop: Option<IncomingProp>,
    /// A `NewEpoch` prepare waiting for the replica lock. Epoch prepares
    /// are the only lock waiters in the system: writes and reads stay
    /// no-wait, so no hold-and-wait cycle (and hence no deadlock) can
    /// form, while epoch changes stop starving under write load.
    pub pending_epoch_prepare: Option<(OpId, NodeId, Action)>,
    /// When this node last saw an epoch check (initiation suppression).
    pub last_epoch_check_seen: Option<SimTime>,
    /// True while this node has an epoch check of its own in flight.
    pub epoch_check_active: bool,
    /// True while a one-shot epoch retry timer is pending.
    pub epoch_retry_armed: bool,
    /// The pending decision-retry timer of each in-doubt op: at most one
    /// chain per op, and the handle that disarms it once the op is decided.
    pub decision_retry_armed: BTreeMap<OpId, TimerId>,
    /// In-progress stale-rejoin after a quarantined boot (see
    /// [`crate::rejoin`]). While set, this replica refuses propagation
    /// offers and 2PC prepares — its desired version is not yet known.
    pub rejoin: Option<crate::rejoin::RejoinState>,
    /// The replicas this node last learned were current (its last read's
    /// GOOD set, or those that applied its last committed write): a hint
    /// for the quorum a coordinator asks (`choose_quorum`), never journaled,
    /// sent or judged.
    pub current: NodeSet,
    /// Compiled quorum plans, keyed by epoch member set. Purely a cache:
    /// rebuilt on demand after a crash, and stale entries for dead epochs
    /// are harmless (they are simply never looked up again).
    pub plans: PlanCache,
}

impl Clone for Volatile {
    fn clone(&self) -> Self {
        Volatile {
            lock: self.lock.clone(),
            lock_leases: self.lock_leases.clone(),
            ops: self.ops.clone(),
            write_queue: self.write_queue.clone(),
            write_queue_held: self.write_queue_held,
            propagator: self.propagator.clone(),
            incoming_prop: self.incoming_prop.clone(),
            pending_epoch_prepare: self.pending_epoch_prepare.clone(),
            last_epoch_check_seen: self.last_epoch_check_seen,
            epoch_check_active: self.epoch_check_active,
            epoch_retry_armed: self.epoch_retry_armed,
            decision_retry_armed: self.decision_retry_armed.clone(),
            rejoin: self.rejoin.clone(),
            current: self.current,
            // A pure cache: cloning an empty one is always correct, and the
            // clone (driver forks in the interleaving explorer) rebuilds
            // plans on demand.
            plans: PlanCache::default(),
        }
    }
}

/// A replica node running the dynamic structured coterie protocol.
///
/// This is the sans-I/O engine: feed it [`Input`](crate::engine::Input)s
/// via [`step`](ReplicaNode::step) and apply the returned
/// [`Effect`](crate::engine::Effect)s. `Clone` forks the entire machine —
/// the interleaving explorer uses this to branch schedules.
#[derive(Clone, Debug)]
pub struct ReplicaNode {
    /// This node's name.
    pub me: NodeId,
    /// Shared configuration.
    pub config: ProtocolConfig,
    /// Crash-surviving state, changed only by its named transitions.
    pub durable: DurableCell,
    /// Crash-wiped state.
    pub vol: Volatile,
    /// Run-long counters and histograms (measurement only, not protocol
    /// state): kept across crashes so readers get totals for the whole
    /// run, under the [`keys`] constants.
    pub stats: MetricsRegistry,
    /// Engine-owned deterministic RNG (jitter): seeded from
    /// `config.seed ^ me`, advanced only by protocol draws.
    pub(crate) rng: Rng64,
    /// Monotonic timer-id allocator; node-unique for the engine's lifetime.
    pub(crate) timer_seq: u64,
    /// Lamport causal counter: ticked on every send, merged on every
    /// delivery. Carried on the wire (see
    /// [`Effect::Send`](crate::engine::Effect::Send)) so trace records
    /// from different nodes order causally. Advances identically whether
    /// or not a trace sink is attached.
    pub(crate) lamport: u64,
    /// Per-node monotonic trace sequence counter (survives crashes, like
    /// the stats — it is measurement state, not protocol state).
    pub(crate) trace_seq: u64,
}

/// Context threaded through all protocol handlers (engine-owned).
pub use crate::engine::ctx::NodeCtx;

impl ReplicaNode {
    /// Creates a node with pristine durable state.
    pub fn new(me: NodeId, config: ProtocolConfig) -> Self {
        ReplicaNode {
            me,
            rng: Rng64::new(config.seed ^ u64::from(me.0)),
            durable: DurableCell::new(Durable::pristine(&config)),
            config,
            vol: Volatile::default(),
            stats: MetricsRegistry::new(),
            timer_seq: 0,
            lamport: 0,
            trace_seq: 0,
        }
    }

    /// Stamps a host-level trace event: ticks the per-node sequence
    /// counter and returns `(seq, lamport)`. Hosts use this for events the
    /// engine cannot see (journal appends/flushes/replays, failpoint
    /// trips) so their records interleave correctly with engine-emitted
    /// ones.
    pub fn trace_stamp(&mut self) -> (u64, u64) {
        self.trace_seq += 1;
        (self.trace_seq, self.lamport)
    }

    /// Replaces the durable state wholesale — the recovery path for hosts
    /// that reconstruct it from stable storage (see
    /// [`FramedJournal::replay_checked`](crate::engine::FramedJournal::replay_checked))
    /// instead of trusting the in-memory copy, and how tests set a node up.
    /// The installed state counts as already durable: the next step
    /// journals only what it changes.
    pub fn install_durable(&mut self, durable: Durable) {
        self.durable = DurableCell::new(durable);
    }

    /// All replica names.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.config.n_replicas as u32).map(NodeId).collect()
    }

    /// Arms (or re-arms) the lock lease for `op`.
    pub fn arm_lock_lease(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let lease = LOCK_LEASE;
        let id = ctx.set_timer(lease, Timer::LockLease { op });
        self.vol.lock_leases.insert(op, id);
    }

    /// Releases `op`'s lock and lease bookkeeping, then hands the lock to
    /// a waiting epoch prepare if one is queued.
    pub fn release_lock(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol.lock.release(op);
        ctx.trace(TraceEvent::LockRelease { op });
        if let Some(timer) = self.vol.lock_leases.remove(&op) {
            ctx.cancel_timer(timer);
        }
        self.grant_pending_epoch_prepare(ctx);
    }

    /// Hands `from_op`'s exclusive lock, and its lease, to the chained round
    /// `to_op`: a lock and its lease never change owner apart. False, with
    /// nothing changed, unless `from_op` holds the lock exclusively.
    pub fn hand_off_lock(&mut self, ctx: &mut NodeCtx<'_>, from_op: OpId, to_op: OpId) -> bool {
        if !self.vol.lock.transfer_exclusive(from_op, to_op) {
            return false;
        }
        ctx.trace(TraceEvent::LockHandoff { from_op, to_op });
        if let Some(timer) = self.vol.lock_leases.remove(&from_op) {
            ctx.cancel_timer(timer);
        }
        self.arm_lock_lease(ctx, to_op);
        true
    }

    pub(crate) fn handle_lock_lease(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol.lock_leases.remove(&op);
        // Never break a prepared transaction's lock: 2PC blocks until the
        // outcome is known (textbook behaviour).
        if self.in_doubt(op) {
            self.arm_lock_lease(ctx, op);
            return;
        }
        self.vol.lock.release(op);
        ctx.trace(TraceEvent::LockRelease { op });
        self.grant_pending_epoch_prepare(ctx);
    }
}

impl ReplicaNode {
    /// Entry point for client requests (and their retries).
    pub fn start_client_request(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        request: ClientRequest,
        attempt: u32,
    ) {
        if attempt > 0 {
            self.stats.inc(keys::RETRIES);
        }
        match request {
            ClientRequest::Read { id } => self.start_read(ctx, id, attempt),
            ClientRequest::Write { id, write } => self.start_write(ctx, id, write),
        }
    }

    /// True while `op` sits prepared and undecided at this replica.
    pub(crate) fn in_doubt(&self, op: OpId) -> bool {
        matches!(&self.durable.prepared, Some((p, _)) if *p == op)
    }

    /// Arms the decision-retry chain for `op`, at most one chain per op.
    pub(crate) fn arm_decision_retry(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol
            .decision_retry_armed
            .entry(op)
            .or_insert_with(|| ctx.set_timer(DECISION_RETRY, Timer::DecisionRetry { op }));
    }

    /// Empties the prepared slot — the one way it is emptied — and disarms
    /// the retry chain that was chasing its outcome: an op that is no longer
    /// in doubt holds no timer.
    pub(crate) fn take_prepared(&mut self, ctx: &mut NodeCtx<'_>) -> Option<(OpId, Action)> {
        let slot = self.durable.take_prepared();
        let armed = |(op, _): &(OpId, Action)| self.vol.decision_retry_armed.remove(op);
        if let Some(timer) = slot.as_ref().and_then(armed) {
            ctx.cancel_timer(timer);
        }
        slot
    }

    /// The quorum function as a coordinator uses it, current-first: the
    /// first of the rule's quorums for `seed`, `seed + 1`, … `seed + N − 1`
    /// that includes a replica this node last saw current (`vol.current`),
    /// else (an empty hint too) the one for `seed`. The answers are
    /// classified as always, so a wrong or outdated hint costs only the
    /// heavy pass that any quorum without a current replica costs.
    pub(crate) fn choose_quorum(
        &self,
        view: &View,
        seed: u64,
        kind: QuorumKind,
    ) -> Option<NodeSet> {
        let (hint, rule) = (self.vol.current, &self.config.rule);
        let pick = |k| rule.pick_quorum(view, view.set(), seed.wrapping_add(k), kind);
        let seeded = pick(0)?;
        let mut rotation = (0..view.len() as u64).filter_map(pick);
        Some(rotation.find(|q| q.intersects(hint)).unwrap_or(seeded))
    }

    /// Jittered exponential backoff before retry `attempt`.
    pub fn backoff(&self, ctx: &mut NodeCtx<'_>, attempt: u32) -> SimDuration {
        let base = RETRY_BACKOFF;
        let scaled = base * (1u64 << attempt.min(6));
        scaled + SimDuration::from_micros(ctx.rand_below(scaled.micros().max(1)))
    }
}
