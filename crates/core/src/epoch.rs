//! The epoch checking protocol (§4.3) and who initiates it.
//!
//! Epoch checking polls *all* replicas, and — if the responders include a
//! write quorum over the newest epoch and the response set differs from
//! that epoch — atomically installs the responder set as the new epoch,
//! marking out-of-date members stale and triggering propagation.
//!
//! **Initiator selection.** §4.3: "A simple solution is to elect a site
//! responsible for initiating all epoch checkings. A new election would be
//! started by any node noticing that epoch checking has not run for a
//! while. (See \[7\] for election protocols.)" We elect no one: every node
//! ticks with a period growing with its rank in its epoch list, and a tick
//! starts a check only when no check was seen within the last period. The
//! rank-0 member therefore starts most checks (a slower tick can still land
//! in the jitter gap between two of them). When it falls silent, the first
//! live member whose tick finds a full period of silence starts a check;
//! the shrunk epoch makes the next-ranked member rank 0.
//!
//! Nothing here needs a *unique* initiator: installing an epoch is a 2PC
//! over a write quorum of the current epoch, so two concurrent installs
//! meet at some replica, whose lock (taken at prepare) serialises them the
//! way it serialises two writes.

use crate::classify::Classified;
use crate::config::{Mode, COLLECT_TIMEOUT};
use crate::coord::{Ballot, InFlight, Poll};
use crate::engine::metrics::keys;
use crate::engine::trace::TraceEvent;
use crate::msg::{Action, Msg, OpId};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use coterie_quorum::{NodeId, NodeSet, QuorumKind};

/// Volatile state of one epoch check.
#[derive(Clone, Debug)]
pub struct EpochCoordinator {
    /// The lock-free poll of every replica.
    pub poll: Poll,
    /// The two-phase commit of the new epoch, once one is proposed.
    pub ballot: Option<Ballot>,
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

    /// Periodic tick: no check seen within the last period and none of our
    /// own in flight ⇒ start one. The rank-staggered cadence of
    /// [`arm_epoch_tick`](Self::arm_epoch_tick) decides who gets there first.
    pub(crate) fn on_epoch_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let Mode::Dynamic { check_period } = self.config.mode else {
            return;
        };
        let recent = self
            .vol
            .last_epoch_check_seen
            .is_some_and(|t| ctx.now().since(t) < check_period);
        if !recent && !self.epoch_check_active() {
            self.start_epoch_check(ctx);
        }
        self.arm_epoch_tick(ctx);
    }

    /// `CheckEpoch`: poll every replica.
    pub(crate) fn start_epoch_check(&mut self, ctx: &mut NodeCtx<'_>) {
        let op = self.durable.next_op(self.me);
        ctx.trace(TraceEvent::EpochCheckStart {
            op,
            enumber: self.durable.enumber,
        });
        self.vol.last_epoch_check_seen = Some(ctx.now());
        let mut poll = Poll::default();
        let all = NodeSet::from_iter(self.all_nodes());
        poll.ask(ctx, op, all, Msg::EpochCheckReq { op });
        let ec = EpochCoordinator { poll, ballot: None };
        self.vol.ops.insert(op, InFlight::Epoch(ec));
    }

    /// The paper's `CheckEpoch` decision logic.
    pub(crate) fn evaluate_epoch_check(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(InFlight::Epoch(ec)) = self.vol.ops.get_mut(&op) else {
            return;
        };
        ec.poll.close(ctx);
        let Some(c) = Classified::evaluate(
            &*self.config.rule,
            &mut self.plans,
            &ec.poll.granted,
            QuorumKind::Write,
        ) else {
            self.finish_epoch_check(op);
            return;
        };
        // "if coterie-rule(elist_m, {node_1..node_k})":
        if !c.has_quorum {
            self.finish_epoch_check(op);
            return;
        }
        // "NEW-EPOCH := {node_1..node_k}; if NEW-EPOCH != elist_m":
        let new_epoch: Vec<NodeId> = ec.poll.granted.keys().copied().collect();
        if new_epoch == c.view.members() {
            self.finish_epoch_check(op);
            return;
        }
        // "if max-version >= max-dversion": a current replica must exist,
        // which also guarantees a max version is known.
        let desired_version = match c.max_version {
            Some(v) if c.has_current_replica() => v,
            _ => {
                self.finish_epoch_check(op);
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
        // Epoch polls are lock-free; participants take the replica lock at
        // prepare time.
        let prepares = new_epoch.iter().map(|&n| (n, action.clone(), true));
        ec.ballot = Some(Ballot::open(ctx, op, &[], prepares));
    }

    /// The new epoch's ballot closed: the decision goes out, and an abort
    /// arms a fast retry.
    pub(crate) fn epoch_decided(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        ec: EpochCoordinator,
        commit: bool,
    ) {
        if let Some(ballot) = &ec.ballot {
            self.decide(ctx, op, ballot, commit, None);
        }
        if commit {
            self.stats.inc(keys::EPOCH_CHANGES);
        }
        self.finish_epoch_check(op);
        // Retry soon: an aborted epoch change usually lost a lock race
        // with a client write, and the failure that motivated it is still
        // unrepaired. One-shot so retry timers never accumulate.
        if !commit && !self.vol.epoch_retry_armed {
            self.vol.epoch_retry_armed = true;
            let delay = COLLECT_TIMEOUT * 8 + self.jitter(ctx, COLLECT_TIMEOUT * 8);
            ctx.set_timer(delay, Timer::EpochRetry);
        }
    }

    /// One-shot fast retry after an aborted epoch change.
    pub(crate) fn on_epoch_retry(&mut self, ctx: &mut NodeCtx<'_>) {
        self.vol.epoch_retry_armed = false;
        if matches!(self.config.mode, Mode::Dynamic { .. }) && !self.epoch_check_active() {
            self.start_epoch_check(ctx);
        }
    }

    /// Ends the check; the evaluation or ballot that got here disarmed
    /// its timers.
    fn finish_epoch_check(&mut self, op: OpId) {
        self.vol.ops.remove(&op);
    }

    /// Whether this node has an epoch check of its own in flight.
    fn epoch_check_active(&self) -> bool {
        self.vol
            .ops
            .values()
            .any(|f| matches!(f, InFlight::Epoch(_)))
    }
}
