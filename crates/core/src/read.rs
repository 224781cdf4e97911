//! The read coordinator. "The read protocol is similar to the write
//! protocol except it does not update any replicas" (§4): collect shared
//! locks from a read quorum, identify a current replica (non-stale, maximum
//! version, at or above every stale responder's desired version), release,
//! and return that replica's object.
//!
//! One round trip: a granted, non-stale read answer carries the replica's
//! object beside its state tuple (see [`Msg::StateResp`]), so the copy of
//! a current replica is already in hand when classification finds one.
//! The paper's second trip — fetching from the chosen replica while every
//! shared lock is still held — would return exactly that copy, because the
//! shared lock held since the grant is what keeps the replica from moving.

use crate::classify::Classified;
use crate::config::MAX_RETRIES;
use crate::coord::{InFlight, Poll};
use crate::engine::metrics::keys;
use crate::msg::{ClientRequest, FailReason, Msg, OpId, ProtocolEvent};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use crate::store::Pages;
use coterie_quorum::{quorum_seed, NodeSet, QuorumKind};

/// Volatile state of one coordinated read.
#[derive(Clone, Debug)]
pub struct ReadCoordinator {
    /// Client request id.
    pub client_id: u64,
    /// Retry attempt.
    pub attempt: u32,
    /// The shared-lock poll, with the copy the read returns once
    /// classification finds a current replica.
    pub poll: Poll,
}

impl ReplicaNode {
    /// Starts coordinating a client read.
    pub(crate) fn start_read(&mut self, ctx: &mut NodeCtx<'_>, client_id: u64, attempt: u32) {
        let op = self.durable.next_op(self.me);
        let view = self.durable.epoch_view();
        let seed = quorum_seed(self.me, op.seq);
        let Some(quorum) = self.choose_quorum(&view, seed, QuorumKind::Read) else {
            let (id, reason) = (client_id, FailReason::NoQuorum);
            self.stats.inc(keys::READS_FAILED);
            ctx.output(ProtocolEvent::Failed { id, reason });
            return;
        };
        let mut poll = Poll::default();
        poll.ask(ctx, op, quorum, Msg::ReadReq { op });
        let rc = ReadCoordinator {
            client_id,
            attempt,
            poll,
        };
        self.vol.ops.insert(op, InFlight::Read(rc));
    }

    pub(crate) fn evaluate_read(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(InFlight::Read(rc)) = self.vol.ops.get_mut(&op) else {
            return;
        };
        rc.poll.close(ctx);
        let classified = Classified::evaluate(
            &*self.config.rule,
            &mut self.plans,
            &rc.poll.granted,
            QuorumKind::Read,
        );
        // A current replica answered: GOOD becomes the hint, and its copy,
        // taken under the shared lock it still holds, is the read's result.
        let current = classified
            .as_ref()
            .filter(|c| c.has_quorum && c.has_current_replica())
            .and_then(|c| {
                self.vol.current = NodeSet::from_iter(c.good.iter().copied());
                rc.poll
                    .copy
                    .take_if(|(version, _)| Some(*version) == c.max_version)
            });
        if let Some((version, pages)) = current {
            self.finish_read_ok(ctx, op, version, pages);
            return;
        }
        let heavy = rc.poll.heavy;
        let reason = match classified {
            Some(c) if c.has_quorum => FailReason::NoCurrentReplica,
            _ => self.failure_reason(op, QuorumKind::Read),
        };
        // Failures send a light pass heavy; contention backs off and
        // retries light.
        if heavy || reason == FailReason::Contention {
            self.finish_read_fail(ctx, op, reason);
        } else {
            self.heavy_procedure(ctx, op);
        }
    }

    fn finish_read_ok(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, version: u64, pages: Pages) {
        let Some(InFlight::Read(rc)) = self.vol.ops.remove(&op) else {
            return;
        };
        for &n in rc.poll.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        self.stats.inc(keys::READS_OK);
        ctx.output(ProtocolEvent::ReadOk {
            id: rc.client_id,
            version,
            digest: crate::store::digest(&pages),
            pages,
        });
    }

    fn finish_read_fail(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, reason: FailReason) {
        // The evaluation that got here closed the poll.
        let Some(InFlight::Read(rc)) = self.vol.ops.remove(&op) else {
            return;
        };
        for &n in rc.poll.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        let id = rc.client_id;
        if reason == FailReason::Contention && rc.attempt < MAX_RETRIES {
            let attempt = rc.attempt + 1;
            let delay = self.backoff(ctx, attempt);
            let request = ClientRequest::Read { id };
            ctx.set_timer(delay, Timer::RetryClient { attempt, request });
            return;
        }
        self.stats.inc(keys::READS_FAILED);
        ctx.output(ProtocolEvent::Failed { id, reason });
    }
}
