//! Protocol messages, operation identifiers, and client-facing types.

use crate::store::{LogEntry, Pages, PartialWrite};
use coterie_quorum::NodeId;

/// Globally unique operation identifier: the coordinating node plus a
/// durable per-node sequence number (so ids stay unique across crashes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId {
    /// Coordinating node.
    pub node: NodeId,
    /// Durable per-node sequence number.
    pub seq: u64,
}

/// The per-replica state tuple exchanged in permission and epoch-check
/// responses — the paper's
/// `(node, version, dversion, stale, elist, enumber)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateTuple {
    /// Responding node.
    pub node: NodeId,
    /// Replica version number.
    pub version: u64,
    /// Desired version number (meaningful only when `stale`).
    pub dversion: u64,
    /// Stale-data flag.
    pub stale: bool,
    /// The responder's current epoch list.
    pub elist: Vec<NodeId>,
    /// The responder's epoch number.
    pub enumber: u64,
    /// The good-replica list recorded by the most recent write this
    /// replica participated in (§4.1's safety-threshold extension: "the
    /// list of 'good' replicas is recorded in every node participating in
    /// a write operation").
    pub last_good: Vec<NodeId>,
    /// True when the replica lock is held exclusively by some operation.
    /// Stale-rejoin recovery reads this as a hazard signal: every required
    /// participant of an in-flight write stays exclusively locked from the
    /// permission grant until the 2PC outcome, so a quorum of lock-free,
    /// unprepared responders proves no write the poller voted for before
    /// losing its journal can still commit (see [`crate::rejoin`]).
    pub wlocked: bool,
    /// The version a durably prepared, still undecided 2PC action would
    /// establish if committed (`new_version` for updates, the desired
    /// version for stale-markings and epoch installs); `None` without a
    /// prepared slot. Lets a rejoining replica bound the one possible
    /// in-flight write exactly instead of over-approximating.
    pub prepared_version: Option<u64>,
}

/// The payload of a two-phase-commit `Prepare`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Apply `writes` in order and move to `new_version`; the recipient is
    /// one of the "good" (current) replicas. `stale` is the piggybacked
    /// list of nodes being marked stale, which the recipient must
    /// asynchronously bring up to date (the paper's update-propagation
    /// trigger).
    ///
    /// A batch of more than one write is the coordinator-side write
    /// batching optimization (DESIGN.md §10): several coalesced client
    /// writes commit under one lock/2PC round, each producing its own
    /// version — write `i` of the batch establishes version
    /// `new_version - writes.len() + 1 + i`, so the log keeps one entry
    /// per client write and propagation contiguity is unchanged.
    DoUpdate {
        /// The (partial) writes to apply, in commit order.
        writes: Vec<PartialWrite>,
        /// Version the replica reaches after applying the whole batch.
        new_version: u64,
        /// Nodes being marked stale by this write.
        stale: Vec<NodeId>,
        /// The full good list of this write (recorded durably by every
        /// participant so later coordinators can find extra current
        /// replicas — the paper's safety-threshold mechanism).
        good: Vec<NodeId>,
        /// Synchronous-reconciliation base: a full snapshot (pages and its
        /// version) the recipient must restore *before* applying `write`.
        /// Only the write-all-current baseline uses this — it is exactly
        /// the "synchronously bringing the obsolete replicas up-to-date"
        /// cost the paper's stale-marking design avoids.
        base: Option<(Pages, u64)>,
    },
    /// Become stale with the given desired version number.
    MarkStale {
        /// The version the current replicas will have after this write; the
        /// recipient may only accept propagation from replicas at or above
        /// this version.
        desired_version: u64,
    },
    /// Install a new epoch (the epoch-checking operation's atomic commit).
    NewEpoch {
        /// Members of the new epoch, in name order.
        list: Vec<NodeId>,
        /// The new epoch number.
        enumber: u64,
        /// Members holding the most recent version.
        good: Vec<NodeId>,
        /// Members being marked stale.
        stale: Vec<NodeId>,
        /// Desired version for the stale members (`max-version`).
        desired_version: u64,
    },
}

/// Propagation offer replies (the paper's three-way response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropReply {
    /// Propagation already underway with another source.
    AlreadyRecovering,
    /// The target is not stale (or cannot use this source).
    IAmCurrent,
    /// Propagation may proceed; the target is locked and reports its
    /// current version so the source can ship just the missing suffix.
    Permitted {
        /// The target replica's current version.
        target_version: u64,
    },
}

/// Propagation payload: either the missing log suffix or a full snapshot.
#[derive(Clone, Debug)]
pub enum PropPayload {
    /// Replay these log entries in order.
    Updates {
        /// Log entries with versions contiguous from the target's version.
        entries: Vec<LogEntry>,
    },
    /// Replace the object wholesale.
    Snapshot {
        /// Page contents.
        pages: Pages,
        /// Version of the snapshot.
        version: u64,
    },
}

/// All messages exchanged between replicas.
///
/// `non_exhaustive` keeps the frozen benchmark's `spans.rs` warning-free:
/// its `op_of_msg` ends in a `_` arm that no longer has a variant of its
/// own. Both go when that directory is next unfrozen.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Msg {
    /// Request permission (and an exclusive lock) for a write.
    WriteReq {
        /// The requesting operation.
        op: OpId,
    },
    /// Request permission (and a shared lock) for a read.
    ReadReq {
        /// The requesting operation.
        op: OpId,
    },
    /// Epoch-check poll (no lock taken).
    EpochCheckReq {
        /// The epoch-check operation.
        op: OpId,
    },
    /// Reply to `WriteReq`/`ReadReq`/`EpochCheckReq` with the replica's
    /// state tuple. `granted` is false when the lock could not be taken
    /// (no-wait locking; the coordinator backs off and retries).
    StateResp {
        /// The operation being answered.
        op: OpId,
        /// Whether the lock was granted (always true for epoch checks).
        granted: bool,
        /// The replica's state tuple.
        state: StateTuple,
        /// The replica's object, as of `state.version`: present only on a
        /// granted read answer from a non-stale replica, so a read takes
        /// one round trip, and on a non-stale write grant under
        /// write-all-current, the base reconciliation ships. `None` on
        /// refusals, stale answers, stale-marking write grants and epoch
        /// checks.
        pages: Option<Pages>,
    },
    /// Release a lock held by `op` (abort or read completion).
    Release {
        /// The operation whose lock to release.
        op: OpId,
    },
    /// Two-phase commit: prepare `action`.
    Prepare {
        /// The coordinating operation.
        op: OpId,
        /// The action to prepare.
        action: Action,
        /// True when the recipient was *not* locked during a permission
        /// phase and may acquire the replica lock at prepare time: §4.1
        /// safety-threshold extras ("no permission ... is needed") and
        /// epoch installs (whose poll is lock-free). Required write
        /// participants get `false`: their prepare must find the
        /// permission-phase lock still held, so a lease expiry — or a
        /// crash that forgot the grant — becomes a no-vote instead of
        /// silently re-anchoring the write (see [`crate::rejoin`]).
        extra: bool,
    },
    /// Two-phase commit: participant vote.
    Vote {
        /// The operation voted on.
        op: OpId,
        /// True to commit.
        yes: bool,
    },
    /// Two-phase commit: coordinator decision.
    Decision {
        /// The decided operation.
        op: OpId,
        /// True to commit, false to abort.
        commit: bool,
        /// Pipelined 2PC (DESIGN.md §10): on commit, hand the replica's
        /// exclusive lock to this follow-up operation instead of releasing
        /// it. The coordinator sends the chained round's `Prepare` in the
        /// same breath, skipping a fresh permission phase; a participant
        /// that cannot transfer (the lock moved on) simply releases, and
        /// the chained prepare's lock check votes no — safety never rests
        /// on the handoff succeeding.
        chain: Option<OpId>,
    },
    /// A recovered participant asking the coordinator for the outcome of a
    /// prepared-but-undecided operation.
    DecisionQuery {
        /// The in-doubt operation.
        op: OpId,
    },
    /// Never sent. Kept only because the frozen benchmark's span
    /// attribution (`crates/bench/src/bin/benchmark/spans.rs`) names it;
    /// it goes when that directory is next unfrozen.
    FetchReq {
        /// Unused.
        op: OpId,
    },
    /// Never sent. Kept only because the frozen benchmark's span
    /// attribution (`crates/bench/src/bin/benchmark/spans.rs`) names it;
    /// it goes when that directory is next unfrozen.
    FetchResp {
        /// Unused.
        op: OpId,
    },
    /// Propagation offer from a good replica (the paper's
    /// `propagation-offer` with the source's version number).
    PropOffer {
        /// Identifier of this propagation attempt.
        prop: OpId,
        /// The source replica's version.
        version: u64,
    },
    /// Reply to a propagation offer.
    PropResp {
        /// The propagation attempt.
        prop: OpId,
        /// The three-way reply.
        reply: PropReply,
    },
    /// The propagation data transfer.
    PropData {
        /// The propagation attempt.
        prop: OpId,
        /// Missing updates or a snapshot.
        payload: PropPayload,
        /// The source's version (the target's version after applying).
        source_version: u64,
    },
    /// Target acknowledges (or rejects) the propagation transfer.
    PropAck {
        /// The propagation attempt.
        prop: OpId,
        /// Whether the transfer was applied.
        ok: bool,
    },
    /// Source abandons a permitted propagation (e.g. its own replica is
    /// busy); the target unlocks.
    PropCancel {
        /// The propagation attempt.
        prop: OpId,
    },
    /// Never sent. Kept only because the frozen benchmark's span
    /// attribution (`crates/bench/src/bin/benchmark/spans.rs`) names it;
    /// it goes when that directory is next unfrozen.
    Election {
        /// Unused.
        round: OpId,
    },
    /// Never sent. Kept only because the frozen benchmark's span
    /// attribution (`crates/bench/src/bin/benchmark/spans.rs`) names it;
    /// it goes when that directory is next unfrozen.
    ElectionAlive {
        /// Unused.
        round: OpId,
    },
    /// A replica recovering from a quarantined journal polls its peers for
    /// their state tuples to learn a safe desired version (see
    /// [`crate::rejoin`]).
    RejoinQuery {
        /// The rejoin attempt.
        op: OpId,
    },
    /// Reply to a `RejoinQuery`.
    RejoinInfo {
        /// The rejoin attempt being answered.
        op: OpId,
        /// The responder's state tuple.
        state: StateTuple,
    },
}

impl Msg {
    /// Coarse message-class label used by the traffic metrics.
    pub fn class(&self) -> MsgClass {
        match self {
            Msg::WriteReq { .. }
            | Msg::ReadReq { .. }
            | Msg::StateResp { .. }
            | Msg::Release { .. } => MsgClass::Permission,
            Msg::Prepare { .. }
            | Msg::Vote { .. }
            | Msg::Decision { .. }
            | Msg::DecisionQuery { .. } => MsgClass::Commit,
            Msg::FetchReq { .. } | Msg::FetchResp { .. } => MsgClass::Fetch,
            Msg::PropOffer { .. }
            | Msg::PropResp { .. }
            | Msg::PropData { .. }
            | Msg::PropAck { .. }
            | Msg::PropCancel { .. } => MsgClass::Propagation,
            Msg::EpochCheckReq { .. }
            | Msg::Election { .. }
            | Msg::ElectionAlive { .. }
            | Msg::RejoinQuery { .. }
            | Msg::RejoinInfo { .. } => MsgClass::EpochCheck,
        }
    }
}

/// Coarse message classes for traffic accounting.
///
/// `Ord` follows declaration order; stats maps key on it, and those maps
/// must iterate deterministically for the engine's digest/journal contract.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgClass {
    /// Quorum permission traffic (requests, state responses, releases).
    Permission,
    /// Two-phase-commit traffic.
    Commit,
    /// Never counted: no message is of this class (`FetchReq` and
    /// `FetchResp` are never sent). Kept only because the frozen
    /// benchmark's span attribution (`spans.rs`) names it.
    Fetch,
    /// Update propagation traffic.
    Propagation,
    /// Epoch checking traffic.
    EpochCheck,
}

impl MsgClass {
    /// Every class, in `Ord` order — for exhaustive metric enumeration.
    pub const ALL: [MsgClass; 5] = [
        MsgClass::Permission,
        MsgClass::Commit,
        MsgClass::Fetch,
        MsgClass::Propagation,
        MsgClass::EpochCheck,
    ];
}

/// Client-facing request, injected at a coordinator node.
#[derive(Clone, Debug)]
pub enum ClientRequest {
    /// Read the object.
    Read {
        /// Client-chosen request id, echoed in the response.
        id: u64,
    },
    /// Apply a partial write.
    Write {
        /// Client-chosen request id, echoed in the response.
        id: u64,
        /// The pages to update.
        write: PartialWrite,
    },
}

/// Why an operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailReason {
    /// Could not assemble a quorum of reachable replicas.
    NoQuorum,
    /// A quorum responded but no sufficiently current replica was reachable
    /// (`max-dversion > max-version`).
    NoCurrentReplica,
    /// Lock contention persisted through all retries.
    Contention,
    /// The two-phase commit aborted and the retry budget is exhausted.
    CommitFailed,
}

/// Client-facing response / observable protocol event.
#[derive(Clone, Debug)]
pub enum ProtocolEvent {
    /// A read completed.
    ReadOk {
        /// Echoed request id.
        id: u64,
        /// Version read.
        version: u64,
        /// Digest of the returned object (for the consistency checker).
        digest: u64,
        /// The page contents.
        pages: Pages,
    },
    /// A write committed.
    WriteOk {
        /// Echoed request id.
        id: u64,
        /// The version the write produced.
        version: u64,
        /// How many replicas the coordinator applied/marked in the quorum.
        replicas_touched: usize,
        /// How many replicas were marked stale.
        marked_stale: usize,
    },
    /// An operation failed.
    Failed {
        /// Echoed request id.
        id: u64,
        /// Why.
        reason: FailReason,
    },
    /// A new epoch was installed at this node.
    EpochInstalled {
        /// The epoch number.
        enumber: u64,
        /// The members.
        members: Vec<NodeId>,
    },
    /// This node finished propagating updates to a stale replica.
    Propagated {
        /// The replica brought up to date.
        target: NodeId,
        /// The version it reached.
        version: u64,
    },
    /// A synchronous reconciliation was needed (write-all-current baseline
    /// only; the paper's protocol never does this).
    SyncReconciliation {
        /// Nodes reconciled synchronously.
        targets: usize,
    },
    /// This node completed the stale-rejoin handshake after a quarantined
    /// journal: a write quorum of peers answered, and the replica now
    /// waits (stale, with a safe desired version) for propagation repair.
    Rejoined {
        /// The desired version adopted from the quorum's answers.
        dversion: u64,
        /// The epoch the replica rejoined into.
        enumber: u64,
    },
}
