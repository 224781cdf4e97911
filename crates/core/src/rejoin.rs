//! Stale-rejoin recovery after a quarantined journal.
//!
//! When replay finds damage *inside* the acknowledged record prefix (a
//! [`ReplayVerdict::Quarantined`](crate::engine::ReplayVerdict)), the
//! replica's durable state has silently lost a suffix of acknowledged
//! changes: 2PC votes it promised, decisions it recorded, writes it
//! applied. Booting normally would violate the protocol's core assumption
//! that durable state is never un-persisted. Instead of panicking — or
//! worse, trusting the truncated state — the replica turns the damage into
//! the one failure mode the paper already handles: **being stale**.
//!
//! A quarantine and the boot after it:
//!
//! 1. [`Durable::quarantine`], written by the host as the one image the
//!    journal restarts from, marks the replica stale and rejoin-pending,
//!    drops any replayed prepared-transaction slot (its vote may or may
//!    not have reached the coordinator; either way it can no longer honor
//!    it), and takes a fresh [`Durable::incarnation`], so no id it issues
//!    equals one the lost suffix could have allocated;
//! 2. at its next [`Input::Boot`](crate::engine::Input), which finds
//!    [`Durable::rejoin_pending`] set, the replica polls all peers with
//!    [`Msg::RejoinQuery`] and collects [`Msg::RejoinInfo`] state tuples
//!    until the responders include a **write quorum** of the newest epoch
//!    seen — the same quorum test the write protocol uses, so every
//!    committed write intersects the responses;
//! 3. adopts the newest epoch among the answers and a *desired version*
//!    high enough that propagation can only repair it from a replica that
//!    has seen every write the lost suffix might have acknowledged —
//!    **including a 2PC prepare the suffix voted for that has not decided
//!    yet**. The responders' lock and prepared-slot reports make one poll
//!    sufficient: prepares go out only after the whole permission round is
//!    granted, so every required participant of such a write has been
//!    exclusively locked since before this replica crashed, and answers
//!    the poll locked, prepared, or already showing the committed result
//!    (required participants can never silently re-acquire an expired
//!    lock at prepare time — see [`Msg::Prepare`]'s `extra` flag);
//! 4. clears the rejoin limbo and lets the ordinary §4.2 propagation
//!    machinery (kicked proactively by the current replicas that answered
//!    the poll, and by the next epoch check) bring it back to current.
//!
//! While the handshake is in flight the replica is in *rejoin limbo*, and
//! one rule, applied once at message dispatch, governs it: the replica
//! serves no peer. Read, write and epoch-check polls, peer rejoin polls,
//! 2PC prepares and propagation offers are dropped unanswered, so to its
//! peers it is a failed node, which the protocol already survives. Its
//! tuple must enter no classification and anchor no vote: a quorum whose
//! only intersection with a lost write's quorum is this amnesiac replica
//! would commit duplicate versions or serve stale reads.
//!
//! The handshake itself must survive crashes: a crash during limbo loses
//! the volatile [`RejoinState`], and the next replay may be clean. Since
//! every field of the quarantine is in the image, the boot after such a
//! crash (or after a failed append of the boot step's own record) replays
//! the same incarnation and flags: [`Durable::rejoin_pending`] stays set
//! until the handshake completes, and every boot that sees it re-enters
//! the poll with an id of the new incarnation.

use std::collections::BTreeMap;

use coterie_quorum::{NodeId, QuorumKind};

use crate::classify::Classified;
use crate::config::COLLECT_TIMEOUT;
use crate::engine::trace::TraceEvent;
use crate::msg::{Msg, OpId, ProtocolEvent, StateTuple};
use crate::node::{NodeCtx, ReplicaNode, Timer};

#[expect(unused_imports, reason = "doc links")]
use crate::durable::Durable;

/// In-flight rejoin handshake state (volatile; restarting it after a
/// crash is always safe).
#[derive(Clone, Debug)]
pub struct RejoinState {
    /// Id of this rejoin attempt (poll responses are matched against it).
    pub op: OpId,
    /// State tuples collected so far, by responder.
    pub responses: BTreeMap<NodeId, StateTuple>,
}

impl ReplicaNode {
    /// Starts (or restarts) the rejoin poll: called from every boot that
    /// finds [`Durable::rejoin_pending`] set.
    pub(crate) fn start_rejoin(&mut self, ctx: &mut NodeCtx<'_>) {
        let op = self.durable.next_op(self.me);
        ctx.trace(TraceEvent::RejoinStart { op });
        self.vol.rejoin = Some(RejoinState {
            op,
            responses: BTreeMap::new(),
        });
        let peers: Vec<NodeId> = self
            .all_nodes()
            .into_iter()
            .filter(|&n| n != self.me)
            .collect();
        ctx.multicast(peers, Msg::RejoinQuery { op });
        self.arm_rejoin_retry(ctx);
    }

    /// Serves a peer's rejoin poll: answer with our state tuple, and — if
    /// we are current — proactively start propagating to the rejoiner
    /// (it is stale by construction; waiting for the next epoch check
    /// would leave it degraded for a full check period).
    pub(crate) fn srv_rejoin_query(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, op: OpId) {
        let state = self.state_tuple();
        ctx.send(from, Msg::RejoinInfo { op, state });
        if !self.durable.stale {
            self.start_propagation(ctx, coterie_quorum::NodeSet::singleton(from));
        }
    }

    /// Collects a rejoin answer; finalizes once the responders include a
    /// write quorum of the newest epoch seen.
    pub(crate) fn on_rejoin_info(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        state: StateTuple,
    ) {
        let responses = match &mut self.vol.rejoin {
            Some(rejoin) if rejoin.op == op => {
                rejoin.responses.insert(from, state);
                rejoin.responses.clone()
            }
            _ => return,
        };
        let rule = self.config.rule.clone();
        let Some(classified) = Classified::evaluate(
            rule.as_ref(),
            &mut self.plans,
            &responses,
            QuorumKind::Write,
        ) else {
            return;
        };
        if !classified.has_quorum {
            return;
        }
        self.finish_rejoin(ctx, &classified, &responses);
    }

    /// A write quorum answered: adopt the newest epoch, raise the desired
    /// version to cover every write the responses prove or could still
    /// commit, and leave limbo. From here the replica is an ordinary
    /// stale node that §4.2 propagation repairs.
    fn finish_rejoin(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        classified: &Classified,
        responses: &BTreeMap<NodeId, StateTuple>,
    ) {
        self.vol.rejoin = None;
        // Safe desired version, in two parts.
        //
        // (a) Committed writes: every committed write's quorum intersects
        // the responding write quorum, so some responder holds its version
        // (non-stale), was marked stale with at least it as dversion, or
        // still carries it in an undecided prepared slot.
        //
        // (b) A write this replica's lost suffix *voted for* but whose
        // decision is still pending: prepares go out only after the whole
        // permission round is granted, so every required participant of
        // such a write has been exclusively locked since before this
        // replica crashed, and answers the poll locked, prepared, or
        // already showing the committed result. A lock with no prepared
        // slot hides the version, but at most one write can hold a full
        // quorum of locks at a time and it commits at exactly one past
        // the committed maximum, so adding one covers it. Committed
        // versions are gap-free, so an over-approximated dversion is
        // healed by the next committed write's propagation.
        let committed = classified
            .max_version
            .unwrap_or(0)
            .max(classified.max_dversion);
        let prepared = responses
            .values()
            .filter_map(|s| s.prepared_version)
            .max()
            .unwrap_or(0);
        let lock_hazard = responses
            .values()
            .any(|s| s.wlocked && s.prepared_version.is_none());
        let target = committed.max(prepared) + u64::from(lock_hazard);
        // Adopt the maximum-epoch (enumber, elist) pair verbatim from a
        // responder: copying an existing pair preserves the epoch-safety
        // invariant (equal numbers ⇒ equal lists).
        let list = classified.view.members();
        self.durable.end_rejoin(classified.enumber, list, target);
        ctx.trace(TraceEvent::RejoinDone {
            dversion: self.durable.dversion,
            enumber: self.durable.enumber,
        });
        ctx.output(ProtocolEvent::Rejoined {
            dversion: self.durable.dversion,
            enumber: self.durable.enumber,
        });
    }

    /// Retry timer: re-poll the peers that have not answered yet.
    pub(crate) fn on_rejoin_retry(&mut self, ctx: &mut NodeCtx<'_>) {
        let (op, answered) = match &self.vol.rejoin {
            Some(rejoin) => (rejoin.op, rejoin.responses.clone()),
            None => return,
        };
        let silent: Vec<NodeId> = self
            .all_nodes()
            .into_iter()
            .filter(|&n| n != self.me && !answered.contains_key(&n))
            .collect();
        ctx.multicast(silent, Msg::RejoinQuery { op });
        self.arm_rejoin_retry(ctx);
    }

    fn arm_rejoin_retry(&mut self, ctx: &mut NodeCtx<'_>) {
        let base = COLLECT_TIMEOUT * 4;
        let delay = base + self.jitter(ctx, base);
        ctx.set_timer(delay, Timer::RejoinRetry);
    }
}
