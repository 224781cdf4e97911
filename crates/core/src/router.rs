//! Dispatch of shared message/timer kinds to the owning coordinator: state
//! responses, votes, and timeouts are keyed only by `OpId`, so the node
//! looks the operation up in its coordinator tables. Fetches need no
//! routing: only write-all-current reconciliation sends them.

use crate::msg::{Msg, OpId, StateTuple};
use crate::node::{NodeCtx, ReplicaNode};
use bytes::Bytes;
use coterie_quorum::NodeId;

impl ReplicaNode {
    /// Routes a `StateResp` to the write, read, or epoch coordinator that
    /// owns `op`. A grant for an operation that no longer exists is
    /// released immediately so the replica does not sit locked until the
    /// lease expires.
    pub(crate) fn on_state_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        granted: bool,
        state: StateTuple,
        pages: Option<Vec<Bytes>>,
    ) {
        if self.vol.writes.contains_key(&op) {
            self.write_state_resp(ctx, op, granted, state);
        } else if self.vol.reads.contains_key(&op) {
            self.read_state_resp(ctx, op, granted, state, pages);
        } else if self.vol.epochs.contains_key(&op) {
            self.epoch_state_resp(ctx, op, state);
        } else if granted {
            ctx.send(from, Msg::Release { op });
        }
    }

    /// Routes a 2PC vote.
    pub(crate) fn on_vote(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, op: OpId, yes: bool) {
        if self.vol.writes.contains_key(&op) {
            self.write_vote(ctx, op, from, yes);
        } else if self.vol.epochs.contains_key(&op) {
            self.epoch_vote(ctx, op, from, yes);
        }
        // A vote for a finished op: the coordinator already decided; the
        // participant learns the outcome via Decision or DecisionQuery.
    }

    /// Routes a permission-collection timeout.
    pub(crate) fn on_collect_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self.vol.writes.contains_key(&op) {
            self.write_collect_timeout(ctx, op);
        } else if self.vol.reads.contains_key(&op) {
            self.read_collect_timeout(ctx, op);
        } else if self.vol.epochs.contains_key(&op) {
            self.epoch_collect_timeout(ctx, op);
        }
    }

    /// Routes a 2PC vote timeout.
    pub(crate) fn on_vote_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self.vol.writes.contains_key(&op) {
            self.write_vote_timeout(ctx, op);
        } else if self.vol.epochs.contains_key(&op) {
            self.epoch_vote_timeout(ctx, op);
        }
    }
}
