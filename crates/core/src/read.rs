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
use crate::config::{COLLECT_TIMEOUT, MAX_RETRIES};
use crate::engine::metrics::keys;
use crate::msg::{ClientRequest, FailReason, Msg, OpId, ProtocolEvent, StateTuple};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use bytes::Bytes;
use coterie_base::TimerId;
use coterie_quorum::{quorum_seed, NodeId, NodeSet, QuorumKind};
use std::collections::BTreeMap;

/// Volatile state of one coordinated read.
#[derive(Clone, Debug)]
pub struct ReadCoordinator {
    /// Operation id.
    pub op: OpId,
    /// Client request id.
    pub client_id: u64,
    /// Retry attempt.
    pub attempt: u32,
    /// Granted responses.
    pub granted: BTreeMap<NodeId, StateTuple>,
    /// The object of the highest-version non-stale grant (ours on a tie),
    /// with that version: the copy the read returns once classification
    /// finds a current replica.
    pub copy: Option<(u64, Vec<Bytes>)>,
    /// Busy refusals.
    pub refused: NodeSet,
    /// Failures.
    pub failed: NodeSet,
    /// Nodes polled.
    pub polled: NodeSet,
    /// Whether the heavy (poll-everyone) pass has run.
    pub heavy: bool,
    /// Collection timeout.
    pub collect_timer: Option<TimerId>,
}

impl ReadCoordinator {
    fn answered(&self) -> NodeSet {
        NodeSet::from_iter(self.granted.keys().copied())
            .union(self.refused)
            .union(self.failed)
    }

    fn collect_done(&self) -> bool {
        self.polled.is_subset_of(self.answered())
    }
}

impl ReplicaNode {
    /// Starts coordinating a client read.
    pub(crate) fn start_read(&mut self, ctx: &mut NodeCtx<'_>, client_id: u64, attempt: u32) {
        let op = self.next_op();
        let view = self.durable.epoch_view();
        let seed = quorum_seed(self.me, op.seq);
        let Some(quorum) = self
            .config
            .rule
            .pick_quorum(&view, view.set(), seed, QuorumKind::Read)
        else {
            self.stats.registry.inc(keys::READS_FAILED);
            ctx.output(ProtocolEvent::Failed {
                id: client_id,
                reason: FailReason::NoQuorum,
            });
            return;
        };
        let timeout = COLLECT_TIMEOUT;
        let timer = ctx.set_timer(timeout, Timer::Collect { op });
        let rc = ReadCoordinator {
            op,
            client_id,
            attempt,
            granted: BTreeMap::new(),
            copy: None,
            refused: NodeSet::new(),
            failed: NodeSet::new(),
            polled: quorum,
            heavy: false,
            collect_timer: Some(timer),
        };
        for node in quorum.iter() {
            ctx.send(node, Msg::ReadReq { op });
        }
        self.vol.reads.insert(op, rc);
    }

    /// A permission response for a read op. A granted, non-stale answer
    /// carries the replica's object; the highest-version copy is kept (ours
    /// on a tie), so it is the copy of a current replica whenever
    /// classification finds one.
    pub(crate) fn read_state_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        granted: bool,
        state: StateTuple,
        pages: Option<Vec<Bytes>>,
    ) {
        let me = self.me;
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        if let Some(pages) = pages {
            let newer = rc.copy.as_ref().is_none_or(|(version, _)| {
                state.version > *version || (state.version == *version && state.node == me)
            });
            if newer {
                rc.copy = Some((state.version, pages));
            }
        }
        if granted {
            rc.granted.insert(state.node, state);
        } else {
            rc.refused.insert(state.node);
        }
        if rc.collect_done() {
            self.evaluate_read(ctx, op);
        }
    }

    /// `RPC.CallFailed` for a read permission request.
    pub(crate) fn on_read_peer_failed(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, to: NodeId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        rc.failed.insert(to);
        if rc.collect_done() {
            self.evaluate_read(ctx, op);
        }
    }

    /// Collection timeout for a read.
    pub(crate) fn read_collect_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        rc.collect_timer = None;
        let silent = rc.polled.difference(rc.answered());
        rc.failed = rc.failed.union(silent);
        self.evaluate_read(ctx, op);
    }

    fn evaluate_read(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        if let Some(t) = rc.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        let classified = Classified::evaluate(
            &*self.config.rule,
            &mut self.vol.plans,
            &rc.granted,
            QuorumKind::Read,
        );
        // A current replica answered: its copy, taken under the shared lock
        // it still holds, is the read's result.
        let current = classified
            .as_ref()
            .filter(|c| c.has_quorum && c.has_current_replica())
            .and_then(|c| {
                rc.copy
                    .take_if(|(version, _)| Some(*version) == c.max_version)
            });
        if let Some((version, pages)) = current {
            self.finish_read_ok(ctx, op, version, pages);
            return;
        }
        match classified {
            Some(c) if c.has_quorum => {
                // Quorum but no current replica reachable.
                if rc.heavy {
                    self.finish_read_fail(ctx, op, FailReason::NoCurrentReplica);
                } else {
                    self.go_heavy_read(ctx, op);
                }
            }
            _ => {
                if rc.heavy {
                    let reason = self.read_failure_reason(op);
                    self.finish_read_fail(ctx, op, reason);
                } else if self.read_failure_reason(op) == FailReason::Contention {
                    // Contention, not failure: back off and retry light.
                    self.finish_read_fail(ctx, op, FailReason::Contention);
                } else {
                    self.go_heavy_read(ctx, op);
                }
            }
        }
    }

    fn read_failure_reason(&mut self, op: OpId) -> FailReason {
        let Some(rc) = self.vol.reads.get(&op) else {
            return FailReason::NoQuorum;
        };
        if rc.refused.is_empty() {
            return FailReason::NoQuorum;
        }
        let optimistic = rc
            .granted
            .keys()
            .copied()
            .collect::<NodeSet>()
            .union(rc.refused);
        let view = self.durable.epoch_view();
        let rule = &*self.config.rule;
        if self.vol.plans.plan_for(rule, &view).includes_quorum_with(
            rule,
            optimistic,
            QuorumKind::Read,
        ) {
            FailReason::Contention
        } else {
            FailReason::NoQuorum
        }
    }

    fn go_heavy_read(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.stats.registry.inc(keys::HEAVY_RUNS);
        let all = NodeSet::from_iter(self.all_nodes());
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        rc.heavy = true;
        let remaining = all.difference(rc.polled);
        if remaining.is_empty() {
            self.evaluate_read(ctx, op);
            return;
        }
        rc.polled = all;
        let timeout = COLLECT_TIMEOUT;
        rc.collect_timer = Some(ctx.set_timer(timeout, Timer::Collect { op }));
        for node in remaining.iter() {
            ctx.send(node, Msg::ReadReq { op });
        }
    }

    fn finish_read_ok(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, version: u64, pages: Vec<Bytes>) {
        let Some(rc) = self.vol.reads.remove(&op) else {
            return;
        };
        for &n in rc.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        self.stats.registry.inc(keys::READS_OK);
        let digest = {
            let mut o = crate::store::PagedObject::new(pages.len());
            o.restore(pages.clone());
            o.digest()
        };
        ctx.output(ProtocolEvent::ReadOk {
            id: rc.client_id,
            version,
            digest,
            pages,
        });
    }

    fn finish_read_fail(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, reason: FailReason) {
        let Some(mut rc) = self.vol.reads.remove(&op) else {
            return;
        };
        if let Some(t) = rc.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        for &n in rc.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        if reason == FailReason::Contention && rc.attempt < MAX_RETRIES {
            let delay = self.backoff(ctx, rc.attempt + 1);
            ctx.set_timer(
                delay,
                Timer::RetryClient {
                    attempt: rc.attempt + 1,
                    request: ClientRequest::Read { id: rc.client_id },
                },
            );
            return;
        }
        self.stats.registry.inc(keys::READS_FAILED);
        ctx.output(ProtocolEvent::Failed {
            id: rc.client_id,
            reason,
        });
    }
}
