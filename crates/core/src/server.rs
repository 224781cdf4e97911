//! Replica-side (participant) handlers: permission requests, two-phase
//! commit and decision recovery.

use crate::config::WriteMode;
use crate::coord::InFlight;
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
            wlocked: self.vol.lock.exclusive_holder().is_some(),
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
        // Rejoin limbo: refuse so our amnesiac tuple never enters the
        // coordinator's classification (refused responders are excluded) —
        // a quorum whose only intersection with a lost write's quorum is
        // this replica would otherwise commit a duplicate version or serve
        // a stale read. Reads are the sharper hazard: they have no 2PC
        // vote, so the vote-no fence never engages. The coordinator retries
        // around us like any busy replica.
        let granted = !self.in_rejoin_limbo() && {
            let lock = &mut self.vol.lock;
            let grant = if exclusive {
                lock.try_exclusive(op)
            } else {
                lock.try_shared(op)
            };
            matches!(grant, crate::locks::LockGrant::Granted)
        };
        if granted {
            ctx.trace(TraceEvent::LockAcquire { op, exclusive });
            self.arm_lock_lease(ctx, op);
        }
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
        // Rejoin limbo: stay silent, like a down node. Answering would
        // either poison the epoch install with an amnesiac tuple or (since
        // limbo votes no on every prepare) abort the epoch change
        // outright; silence lets the coordinator shrink the epoch around
        // us until the handshake completes.
        if self.in_rejoin_limbo() {
            return;
        }
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

    /// 2PC prepare. Votes yes only when the action is applicable and the
    /// replica lock is held by the requesting operation; the prepared
    /// action is recorded durably (textbook atomic commit).
    pub(crate) fn srv_prepare(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        action: Action,
        extra: bool,
    ) {
        // Duplicate Prepare for an already-prepared op: re-vote yes.
        if let Some((prep_op, _)) = &self.durable.prepared {
            let yes = *prep_op == op;
            ctx.trace(TraceEvent::VoteCast { op, yes });
            ctx.send(from, Msg::Vote { op, yes });
            return;
        }
        // Rejoin limbo after a quarantined journal: this replica's state
        // must not anchor new transactions until its desired version is
        // known (in particular, a write-all-current base shipment would
        // clear the stale flag and skip the rejoin safety net).
        if self.in_rejoin_limbo() {
            ctx.trace(TraceEvent::VoteCast { op, yes: false });
            ctx.send(from, Msg::Vote { op, yes: false });
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
                let locked = if self.vol.lock.held_exclusively_by(op) {
                    true
                } else if extra
                    && matches!(
                        self.vol.lock.try_exclusive(op),
                        crate::locks::LockGrant::Granted
                    )
                {
                    ctx.trace(TraceEvent::LockAcquire {
                        op,
                        exclusive: true,
                    });
                    self.arm_lock_lease(ctx, op);
                    true
                } else {
                    false
                };
                locked && version_ok
            }
            Action::MarkStale { .. } => self.vol.lock.held_exclusively_by(op),
            Action::NewEpoch { enumber, list, .. } => {
                // Stale-numbered or misdirected epoch changes are refused
                // outright.
                if *enumber <= self.durable.enumber || !list.contains(&self.me) {
                    ctx.trace(TraceEvent::VoteCast { op, yes: false });
                    ctx.send(from, Msg::Vote { op, yes: false });
                    return;
                }
                // Epoch checks do not lock during the poll; the lock is
                // taken here, at prepare time. Unlike reads and writes,
                // an epoch prepare may *wait* for the lock (see
                // `Volatile::pending_epoch_prepare`) so that epoch changes
                // cannot starve under client load.
                let lockable = matches!(
                    self.vol.lock.try_exclusive(op),
                    crate::locks::LockGrant::Granted
                );
                if !lockable {
                    // Queue (keeping only the newest epoch number); the
                    // displaced prepare is answered "no".
                    if let Some((old_op, old_from, old_action)) =
                        self.vol.pending_epoch_prepare.take()
                    {
                        let old_enumber = match &old_action {
                            Action::NewEpoch { enumber, .. } => *enumber,
                            Action::DoUpdate { .. } | Action::MarkStale { .. } => 0,
                        };
                        if old_enumber >= *enumber {
                            self.vol.pending_epoch_prepare = Some((old_op, old_from, old_action));
                            ctx.trace(TraceEvent::VoteCast { op, yes: false });
                            ctx.send(from, Msg::Vote { op, yes: false });
                            return;
                        }
                        ctx.trace(TraceEvent::VoteCast {
                            op: old_op,
                            yes: false,
                        });
                        ctx.send(
                            old_from,
                            Msg::Vote {
                                op: old_op,
                                yes: false,
                            },
                        );
                    }
                    self.vol.pending_epoch_prepare = Some((op, from, action));
                    return;
                }
                ctx.trace(TraceEvent::LockAcquire {
                    op,
                    exclusive: true,
                });
                self.arm_lock_lease(ctx, op);
                true
            }
        };
        if yes {
            self.durable.vote(op, action);
            // Chase the outcome if the coordinator goes quiet (it may have
            // aborted before our delayed vote arrived).
            self.arm_decision_retry(ctx, op);
        } else if matches!(action, Action::NewEpoch { .. } | Action::DoUpdate { .. })
            && self.vol.lock.held_exclusively_by(op)
            && self.durable.prepared.is_none()
        {
            // The prepare acquired (or held) the lock but failed
            // validation; don't leave the replica locked until the lease.
            self.release_lock(ctx, op);
        }
        ctx.trace(TraceEvent::VoteCast { op, yes });
        ctx.send(from, Msg::Vote { op, yes });
    }

    /// 2PC decision from the coordinator.
    pub(crate) fn srv_decision(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        _from: NodeId,
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
        // round whose prepare is right behind it; hand that round the lock
        // instead of opening a window another operation could slip into.
        // Only when this node applied `op`: a stale duplicate, or a lock that
        // already moved on, falls through to the idempotent release.
        if commit && applied && chain.is_some_and(|next| self.hand_off_lock(ctx, op, next)) {
            return;
        }
        // Idempotent: also frees the lock of a participant that voted no
        // (which never prepared) instead of waiting out the lease.
        self.release_lock(ctx, op);
    }

    /// A recovered participant asks for the outcome of an in-doubt op this
    /// node coordinated. Presumed abort: if no commit decision is on disk
    /// and the op is not still in flight, it aborted.
    pub(crate) fn srv_decision_query(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, op: OpId) {
        if matches!(
            self.vol.ops.get(&op),
            Some(InFlight::Write(_) | InFlight::Epoch(_))
        ) {
            return; // still deciding; the participant will re-query
        }
        // Quarantine amnesia fence: a decision record for an op behind the
        // fence may have been lost with the corrupt journal suffix, so
        // "not on disk" does not mean "aborted". Presuming abort here
        // could contradict a commit another participant already applied —
        // stay silent and leave the participant blocked (textbook 2PC
        // blocking; the cost of losing the coordinator's log).
        if op.seq <= self.durable.quarantine_fence && !self.durable.decisions.contains_key(&op) {
            return;
        }
        let commit = self.durable.decisions.get(&op).copied().unwrap_or(false);
        // No chain on the recovery path: whatever round was chained at
        // decision time has long since prepared or aborted on its own.
        ctx.send(
            from,
            Msg::Decision {
                op,
                commit,
                chain: None,
            },
        );
    }

    /// Periodic re-query for an in-doubt prepared transaction. Exactly one
    /// retry chain exists per op (see `arm_decision_retry`).
    pub(crate) fn on_decision_retry(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol.decision_retry_armed.remove(&op);
        if !self.in_doubt(op) {
            return;
        }
        if op.node == self.me {
            // We coordinated this op ourselves and then crashed: resolve
            // directly from the durable decision log.
            let commit = self.durable.decisions.get(&op).copied().unwrap_or(false);
            if let Some((_, action)) = self.take_prepared(ctx).filter(|_| commit) {
                self.apply_action(ctx, &action);
            }
            self.release_lock(ctx, op);
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
        if self.vol.lock.is_locked() || self.durable.prepared.is_some() {
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
