//! Replica-side (participant) handlers: permission requests, two-phase
//! commit and decision recovery.

use crate::config::WriteMode;
use crate::engine::trace::TraceEvent;
use crate::msg::{Action, Msg, OpId, StateTuple};
use crate::node::{NodeCtx, ReplicaNode};
use coterie_base::SimDuration;
use coterie_quorum::{NodeId, NodeSet};

impl ReplicaNode {
    /// This replica's state tuple (the paper's
    /// `(node, version, dversion, stale, elist, enumber)`).
    pub fn state_tuple(&self) -> StateTuple {
        StateTuple {
            node: self.me,
            version: self.durable.version,
            dversion: self.durable.dversion,
            stale: self.durable.stale,
            elist: self.durable.elist.clone(),
            enumber: self.durable.enumber,
            last_good: self.durable.last_good.clone(),
            wlocked: self.exclusive_holder().is_some(),
            prepared_version: self.durable.prepared.as_ref().map(|(_, a)| match a {
                Action::DoUpdate { new_version, .. } => *new_version,
                Action::MarkStale { desired_version }
                | Action::NewEpoch {
                    desired_version, ..
                } => *desired_version,
            }),
        }
    }

    /// `write-request` and `read-request`: "each node that receives the
    /// write-request obtains the lock for its replica and responds with its
    /// state" — exclusive for a write, shared for a read. No-wait: a busy
    /// replica answers `granted: false` instead of queueing. A read grant
    /// from a non-stale replica carries its object, so the coordinator
    /// never has to come back for it (see [`crate::read`]); so does a
    /// write grant under write-all-current, whose coordinator ships a
    /// current replica's object to obsolete ones (see [`crate::write`]).
    pub(crate) fn srv_permission(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        exclusive: bool,
    ) {
        let granted = self.lock(ctx, op, exclusive);
        let wac = self.config.write_mode == WriteMode::WriteAllCurrent;
        let carries = granted && (!exclusive || wac) && !self.durable.stale;
        let pages = carries.then(|| self.durable.object.snapshot());
        let state = self.state_tuple();
        ctx.send(
            from,
            Msg::StateResp {
                op,
                granted,
                state,
                pages,
            },
        );
    }

    /// `epoch-checking-request`: state response without locking (§4.3 —
    /// epoch checking "does not interfere with reads and writes in the
    /// absence of failures").
    pub(crate) fn srv_epoch_check_req(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, op: OpId) {
        self.vol.last_epoch_check_seen = Some(ctx.now());
        let state = self.state_tuple();
        ctx.send(
            from,
            Msg::StateResp {
                op,
                granted: true,
                state,
                pages: None,
            },
        );
    }

    /// 2PC prepare. Votes yes only when no action is prepared here yet, the
    /// action is applicable and the replica lock is held by the requesting
    /// operation; the prepared action is recorded durably (textbook atomic
    /// commit).
    pub(crate) fn srv_prepare(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        action: Action,
        extra: bool,
    ) {
        // A held prepared slot has had its one vote: every other Prepare is
        // refused, whatever its op and action. A fresh epoch prepare queues
        // behind a chained round as behind a busy lock: a chain refills the
        // slot at every handoff, so a refusal would starve the epoch change.
        if self.durable.prepared.is_some() {
            if self.epoch_prepare_may_wait(&action) && self.vol.lock.wait_behind_chain() {
                self.queue_epoch(ctx, from, op, action);
            } else {
                self.send_vote(ctx, from, op, false);
            }
            return;
        }
        let yes = match &action {
            Action::DoUpdate {
                writes,
                new_version,
                base,
                ..
            } => {
                // A batch of k writes advances the version by exactly k —
                // either from our own version or from the reconciliation
                // base being shipped to us. An empty batch is malformed.
                let batch = writes.len() as u64;
                let version_ok = !writes.is_empty()
                    && match base {
                        None => !self.durable.stale && *new_version == self.durable.version + batch,
                        Some((_, base_version)) => {
                            *new_version == base_version + batch
                                && *base_version >= self.durable.version
                                && *base_version >= self.durable.dversion
                        }
                    };
                // A required participant must still hold the lock it was
                // granted in the permission phase: if the lease expired
                // (or a crash forgot the grant), re-acquiring here would
                // let the write commit past a rejoin poll that saw this
                // replica unlocked — vote no instead and let the
                // coordinator retry. Only a safety-threshold *extra*
                // replica, which was never polled ("no permission ... is
                // needed"), may acquire the lock at prepare time, voting
                // no if busy.
                let locked =
                    self.vol.lock.held_exclusively_by(op) || extra && self.lock(ctx, op, true);
                locked && version_ok
            }
            Action::MarkStale { .. } => self.vol.lock.held_exclusively_by(op),
            Action::NewEpoch { .. } => {
                // Stale-numbered or misdirected epoch changes are refused
                // outright.
                if !self.epoch_prepare_may_wait(&action) {
                    self.send_vote(ctx, from, op, false);
                    return;
                }
                // Epoch checks do not lock during the poll; the lock is
                // taken here, at prepare time. Unlike reads and writes,
                // an epoch prepare may *wait* for the lock (see
                // `Volatile::pending_epoch_prepare`) so that epoch changes
                // cannot starve under client load.
                if !self.lock(ctx, op, true) {
                    self.queue_epoch(ctx, from, op, action);
                    return;
                }
                true
            }
        };
        if yes {
            // The vote moves the op's grant into the slot, which is the lock
            // with no lease until the decision; chase the outcome if the
            // coordinator goes quiet (it may have aborted before our delayed
            // vote arrived).
            self.durable.vote(op, action);
            self.vol.lock.release(op);
            self.drop_lease(ctx, op);
            self.arm_decision_retry(ctx, op);
        } else if matches!(action, Action::NewEpoch { .. } | Action::DoUpdate { .. })
            && self.vol.lock.held_exclusively_by(op)
        {
            // The prepare acquired (or held) the lock but failed
            // validation; don't leave the replica locked until the lease.
            self.release_lock(ctx, op);
        }
        self.send_vote(ctx, from, op, yes);
    }

    /// Whether `action` is a newer epoch that lists this replica: one it
    /// may vote yes on once its lock and prepared slot are free.
    fn epoch_prepare_may_wait(&self, action: &Action) -> bool {
        matches!(action, Action::NewEpoch { enumber, list, .. }
            if *enumber > self.durable.enumber && list.contains(&self.me))
    }

    /// Queues an epoch prepare until the lock and the prepared slot free up
    /// (the lock's contention bit is already set, so a chain of write rounds
    /// through it yields at its next vote). Only the newer of two queued
    /// epoch numbers waits; the other is answered "no".
    fn queue_epoch(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, op: OpId, action: Action) {
        let enumber = |a: &Action| match a {
            Action::NewEpoch { enumber, .. } => *enumber,
            Action::DoUpdate { .. } | Action::MarkStale { .. } => 0,
        };
        let mut queued = (op, from, action);
        if let Some(mut old) = self.vol.pending_epoch_prepare.take() {
            if enumber(&old.2) >= enumber(&queued.2) {
                std::mem::swap(&mut old, &mut queued);
            }
            self.send_vote(ctx, old.1, old.0, false);
        }
        self.vol.pending_epoch_prepare = Some(queued);
    }

    /// Casts this replica's vote on `op`, with its lock's contention bit
    /// (a chain of write rounds through it yields on it, DESIGN.md §10).
    fn send_vote(&self, ctx: &mut NodeCtx<'_>, to: NodeId, op: OpId, yes: bool) {
        ctx.trace(TraceEvent::VoteCast { op, yes });
        let contended = self.vol.lock.contended();
        ctx.send(to, Msg::Vote { op, yes, contended });
    }

    /// 2PC decision from the coordinator.
    pub(crate) fn srv_decision(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        commit: bool,
        chain: Option<OpId>,
    ) {
        // An abort may arrive while the prepare is still queued for the
        // lock: drop the queued prepare.
        if !commit
            && self
                .vol
                .pending_epoch_prepare
                .as_ref()
                .is_some_and(|(p, _, _)| *p == op)
        {
            self.vol.pending_epoch_prepare = None;
        }
        ctx.trace(TraceEvent::DecisionTaken { op, commit });
        let applied = self.in_doubt(op);
        if applied {
            if let Some((_, action)) = self.take_prepared(ctx).filter(|_| commit) {
                self.apply_action(ctx, &action);
            }
        }
        // Pipelined 2PC handoff: a committing decision may name the chained
        // round whose prepare is right behind it; hand that round a leased
        // grant instead of opening a window another operation could slip
        // into. Only when this decision emptied the slot: a stale duplicate
        // falls through to the idempotent release.
        if let Some(to_op) = chain.filter(|_| commit && applied) {
            self.vol.lock.hand_off(to_op);
            ctx.trace(TraceEvent::LockHandoff { from_op: op, to_op });
            self.arm_lock_lease(ctx, to_op);
            return;
        }
        // Idempotent: also frees the lock of a participant that voted no
        // (which never prepared) instead of waiting out the lease.
        self.release_lock(ctx, op);
    }

    /// A recovered participant asks for the outcome of an in-doubt op this
    /// node coordinated: from its decision record if there is one.
    /// Presumed abort for an op of this incarnation no longer in flight.
    /// Silence otherwise: the record of an earlier incarnation's op may
    /// have been lost with a quarantined suffix, and presuming abort could
    /// contradict a commit another participant applied, so the participant
    /// stays blocked (textbook 2PC; the cost of losing the coordinator's
    /// log) and re-queries.
    pub(crate) fn srv_decision_query(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, op: OpId) {
        let commit = match self.durable.decisions.get(&op) {
            Some(&commit) => commit,
            None if op.inc == self.durable.incarnation && !self.vol.ops.contains_key(&op) => false,
            None => return,
        };
        // No chain on the recovery path: whatever round was chained at
        // decision time has long since prepared or aborted on its own.
        let chain = None;
        ctx.send(from, Msg::Decision { op, commit, chain });
    }

    /// Periodic re-query for an in-doubt prepared transaction: the slot's
    /// one retry chain (see `arm_decision_retry`) asks the coordinator, this
    /// node included, and `srv_decision_query` answers.
    pub(crate) fn on_decision_retry(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol.decision_retry = None;
        if !self.in_doubt(op) {
            return;
        }
        ctx.send(op.node, Msg::DecisionQuery { op });
        self.arm_decision_retry(ctx, op);
    }

    /// Applies a committed 2PC action to the durable state and triggers
    /// follow-up work (update propagation, epoch bookkeeping).
    pub(crate) fn apply_action(&mut self, ctx: &mut NodeCtx<'_>, action: &Action) {
        match action {
            Action::DoUpdate {
                writes,
                new_version,
                stale,
                base,
                good,
            } => {
                // The reconciliation base, if one was shipped, is restored
                // first (write-all-current baseline; see `write.rs`). Each
                // batched write is its own version and its own log entry,
                // so incremental propagation and the 1SR checker see the
                // same per-version history batching produced.
                self.durable
                    .apply_update(writes, *new_version, base.as_ref(), good);
                if !stale.is_empty() {
                    let targets =
                        NodeSet::from_iter(stale.iter().copied().filter(|&n| n != self.me));
                    self.start_propagation(ctx, targets);
                }
            }
            Action::MarkStale { desired_version } => self.durable.mark_stale(*desired_version),
            Action::NewEpoch {
                list,
                enumber,
                good,
                stale,
                desired_version,
            } => {
                self.durable.install_epoch(*enumber, list);
                ctx.trace(TraceEvent::EpochInstalled { enumber: *enumber });
                if stale.contains(&self.me) {
                    self.durable.mark_stale(*desired_version);
                }
                ctx.output(crate::msg::ProtocolEvent::EpochInstalled {
                    enumber: *enumber,
                    members: list.clone(),
                });
                if good.contains(&self.me) && !stale.is_empty() {
                    let targets =
                        NodeSet::from_iter(stale.iter().copied().filter(|&n| n != self.me));
                    self.start_propagation(ctx, targets);
                }
            }
        }
    }

    /// Grants a queued epoch prepare once the replica lock frees up.
    pub(crate) fn grant_pending_epoch_prepare(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.is_locked() {
            return;
        }
        if let Some((op, from, action)) = self.vol.pending_epoch_prepare.take() {
            // Only epoch prepares queue, and those always lock at prepare
            // time (their poll is lock-free), hence `extra: true`.
            self.srv_prepare(ctx, from, op, action, true);
        }
    }

    /// A small per-node deterministic jitter used to stagger periodic work.
    pub(crate) fn jitter(&self, ctx: &mut NodeCtx<'_>, max: SimDuration) -> SimDuration {
        SimDuration::from_micros(ctx.rand_below(max.micros().max(1)))
    }
}
