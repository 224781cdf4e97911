//! The epoch checking protocol (§4.3) and the initiator policy.
//!
//! Epoch checking polls *all* replicas, and — if the responders include a
//! write quorum over the newest epoch and the response set differs from
//! that epoch — atomically installs the responder set as the new epoch,
//! marking out-of-date members stale and triggering propagation.
//!
//! **Initiator selection.** The paper suggests electing a site responsible
//! for initiating epoch checks, deferring to Garcia-Molina's election
//! protocols \[7\]. Both options are implemented (see
//! [`crate::election::InitiatorPolicy`]): the default election-free
//! rank-stagger scheme — every node ticks with a period growing with its
//! rank and initiates only when no recent check was observed — and the
//! literal bully election of \[7\].

use crate::classify::Classified;
use crate::config::{Mode, COLLECT_TIMEOUT, VOTE_TIMEOUT};
use crate::engine::metrics::keys;
use crate::engine::trace::TraceEvent;
use crate::msg::{Action, Msg, OpId, StateTuple};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use coterie_base::TimerId;
use coterie_quorum::{NodeId, NodeSet, QuorumKind};
use std::collections::BTreeMap;

/// Phase of a coordinated epoch check.
#[derive(Clone, Debug)]
pub enum EPhase {
    /// Polling all replicas.
    Collect,
    /// Two-phase commit of the new epoch.
    Voting {
        /// New epoch members (the participants).
        participants: Vec<NodeId>,
        /// Yes votes so far.
        yes: NodeSet,
        /// The action being committed.
        action: Action,
        /// Vote timeout.
        timer: TimerId,
    },
}

/// Volatile state of one epoch check.
#[derive(Clone, Debug)]
pub struct EpochCoordinator {
    /// Operation id.
    pub op: OpId,
    /// Phase.
    pub phase: EPhase,
    /// State responses by node.
    pub responses: BTreeMap<NodeId, StateTuple>,
    /// Unreachable nodes.
    pub failed: NodeSet,
    /// All nodes polled.
    pub polled: NodeSet,
    /// Collection timeout.
    pub collect_timer: Option<TimerId>,
}

impl EpochCoordinator {
    fn answered(&self) -> NodeSet {
        NodeSet::from_iter(self.responses.keys().copied()).union(self.failed)
    }

    fn collect_done(&self) -> bool {
        self.polled.is_subset_of(self.answered())
    }
}

impl ReplicaNode {
    /// Arms the next epoch tick. The delay is
    /// `check_period * (1 + rank)` plus jitter, where `rank` is this node's
    /// position in its epoch list (nodes outside their own epoch list use
    /// the list length — they still tick, so a partitioned-away minority
    /// keeps probing).
    pub(crate) fn arm_epoch_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let Mode::Dynamic { check_period } = self.config.mode else {
            return;
        };
        let rank = self
            .durable
            .elist
            .iter()
            .position(|&n| n == self.me)
            .unwrap_or(self.durable.elist.len()) as u64;
        let jitter = self.jitter(ctx, check_period / 4);
        let delay = check_period * (1 + rank) + jitter;
        ctx.set_timer(delay, Timer::EpochTick);
    }

    /// Periodic tick: initiate an epoch check unless someone else has
    /// recently. Under the bully policy, only the elected coordinator
    /// initiates; silence triggers an election instead.
    pub(crate) fn on_epoch_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let Mode::Dynamic { check_period } = self.config.mode else {
            return;
        };
        let recent = self
            .vol
            .last_epoch_check_seen
            .is_some_and(|t| ctx.now().since(t) < check_period);
        if !recent && !self.vol.epoch_check_active {
            if self.should_initiate_check() {
                self.start_epoch_check(ctx);
            } else {
                self.maybe_start_election(ctx);
            }
        }
        self.arm_epoch_tick(ctx);
    }

    /// `CheckEpoch`: poll every replica.
    pub(crate) fn start_epoch_check(&mut self, ctx: &mut NodeCtx<'_>) {
        let op = self.next_op();
        ctx.trace(TraceEvent::EpochCheckStart {
            op,
            enumber: self.durable.enumber,
        });
        self.vol.epoch_check_active = true;
        self.vol.last_epoch_check_seen = Some(ctx.now());
        let all = NodeSet::from_iter(self.all_nodes());
        let timeout = COLLECT_TIMEOUT;
        let timer = ctx.set_timer(timeout, Timer::Collect { op });
        let ec = EpochCoordinator {
            op,
            phase: EPhase::Collect,
            responses: BTreeMap::new(),
            failed: NodeSet::new(),
            polled: all,
            collect_timer: Some(timer),
        };
        for node in all.iter() {
            ctx.send(node, Msg::EpochCheckReq { op });
        }
        self.vol.epochs.insert(op, ec);
    }

    /// A state response for an epoch check.
    pub(crate) fn epoch_state_resp(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, state: StateTuple) {
        let Some(ec) = self.vol.epochs.get_mut(&op) else {
            return;
        };
        if !matches!(ec.phase, EPhase::Collect) {
            return;
        }
        ec.responses.insert(state.node, state);
        if ec.collect_done() {
            self.evaluate_epoch_check(ctx, op);
        }
    }

    /// `RPC.CallFailed` for an epoch-check poll.
    pub(crate) fn on_epoch_peer_failed(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, to: NodeId) {
        let Some(ec) = self.vol.epochs.get_mut(&op) else {
            return;
        };
        if !matches!(ec.phase, EPhase::Collect) {
            return;
        }
        ec.failed.insert(to);
        if ec.collect_done() {
            self.evaluate_epoch_check(ctx, op);
        }
    }

    /// Poll timeout: treat silent nodes as failed.
    pub(crate) fn epoch_collect_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(ec) = self.vol.epochs.get_mut(&op) else {
            return;
        };
        if !matches!(ec.phase, EPhase::Collect) {
            return;
        }
        ec.collect_timer = None;
        let silent = ec.polled.difference(ec.answered());
        ec.failed = ec.failed.union(silent);
        self.evaluate_epoch_check(ctx, op);
    }

    /// The paper's `CheckEpoch` decision logic.
    fn evaluate_epoch_check(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(ec) = self.vol.epochs.get_mut(&op) else {
            return;
        };
        if let Some(t) = ec.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        let Some(c) = Classified::evaluate(
            &*self.config.rule,
            &mut self.vol.plans,
            &ec.responses,
            QuorumKind::Write,
        ) else {
            self.finish_epoch_check(ctx, op);
            return;
        };
        // "if coterie-rule(elist_m, {node_1..node_k})":
        if !c.has_quorum {
            self.finish_epoch_check(ctx, op);
            return;
        }
        // "NEW-EPOCH := {node_1..node_k}; if NEW-EPOCH != elist_m":
        let mut new_epoch: Vec<NodeId> = ec.responses.keys().copied().collect();
        new_epoch.sort_unstable();
        if new_epoch == c.view.members() {
            self.finish_epoch_check(ctx, op);
            return;
        }
        // "if max-version >= max-dversion": a current replica must exist,
        // which also guarantees a max version is known.
        let desired_version = match c.max_version {
            Some(v) if c.has_current_replica() => v,
            _ => {
                self.finish_epoch_check(ctx, op);
                return;
            }
        };
        let enumber = c.enumber + 1;
        // GOOD / STALE partition of the *new epoch*.
        let good: Vec<NodeId> = c
            .good
            .iter()
            .copied()
            .filter(|n| new_epoch.contains(n))
            .collect();
        let stale: Vec<NodeId> = new_epoch
            .iter()
            .copied()
            .filter(|n| !good.contains(n))
            .collect();
        let action = Action::NewEpoch {
            list: new_epoch.clone(),
            enumber,
            good,
            stale,
            desired_version,
        };
        let timeout = VOTE_TIMEOUT;
        let timer = ctx.set_timer(timeout, Timer::Votes { op });
        // Re-borrow after set_timer ended the earlier borrow.
        #[expect(clippy::expect_used, reason = "present at fn entry; step is atomic")]
        let ec = self.vol.epochs.get_mut(&op).expect("present");
        ec.phase = EPhase::Voting {
            participants: new_epoch.clone(),
            yes: NodeSet::new(),
            action: action.clone(),
            timer,
        };
        ctx.trace(TraceEvent::PrepareIssued { op });
        for &node in &new_epoch {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: action.clone(),
                    // Epoch polls are lock-free; participants take the
                    // replica lock at prepare time.
                    extra: true,
                },
            );
        }
    }

    /// A 2PC vote for an epoch change.
    pub(crate) fn epoch_vote(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, from: NodeId, yes: bool) {
        let Some(ec) = self.vol.epochs.get_mut(&op) else {
            return;
        };
        let EPhase::Voting {
            participants,
            yes: yes_set,
            timer,
            ..
        } = &mut ec.phase
        else {
            return;
        };
        if !yes {
            let timer = *timer;
            ctx.cancel_timer(timer);
            self.abort_epoch_commit(ctx, op);
            return;
        }
        yes_set.insert(from);
        if !participants.iter().all(|p| yes_set.contains(*p)) {
            return;
        }
        let (participants, timer) = (participants.clone(), *timer);
        ctx.cancel_timer(timer);
        self.record_decision(op, true);
        for &p in &participants {
            ctx.send(
                p,
                Msg::Decision {
                    op,
                    commit: true,
                    chain: None,
                },
            );
        }
        self.stats.registry.inc(keys::EPOCH_CHANGES);
        self.finish_epoch_check(ctx, op);
    }

    /// Vote timeout for an epoch change.
    pub(crate) fn epoch_vote_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self
            .vol
            .epochs
            .get(&op)
            .is_some_and(|ec| matches!(ec.phase, EPhase::Voting { .. }))
        {
            self.abort_epoch_commit(ctx, op);
        }
    }

    fn abort_epoch_commit(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(ec) = self.vol.epochs.get(&op) else {
            return;
        };
        if let EPhase::Voting { participants, .. } = &ec.phase {
            let participants = participants.clone();
            self.record_decision(op, false);
            for &p in &participants {
                ctx.send(
                    p,
                    Msg::Decision {
                        op,
                        commit: false,
                        chain: None,
                    },
                );
            }
        }
        self.finish_epoch_check(ctx, op);
        // Retry soon: an aborted epoch change usually lost a lock race
        // with a client write, and the failure that motivated it is still
        // unrepaired. One-shot so retry timers never accumulate.
        if !self.vol.epoch_retry_armed {
            self.vol.epoch_retry_armed = true;
            let delay = COLLECT_TIMEOUT * 8 + self.jitter(ctx, COLLECT_TIMEOUT * 8);
            ctx.set_timer(delay, Timer::EpochRetry);
        }
    }

    /// One-shot fast retry after an aborted epoch change.
    pub(crate) fn on_epoch_retry(&mut self, ctx: &mut NodeCtx<'_>) {
        self.vol.epoch_retry_armed = false;
        if matches!(self.config.mode, Mode::Dynamic { .. }) && !self.vol.epoch_check_active {
            self.start_epoch_check(ctx);
        }
    }

    fn finish_epoch_check(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if let Some(mut ec) = self.vol.epochs.remove(&op) {
            if let Some(t) = ec.collect_timer.take() {
                ctx.cancel_timer(t);
            }
        }
        self.vol.epoch_check_active = false;
    }
}
