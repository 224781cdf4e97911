//! The write coordinator (§4.1 of the paper and its Appendix pseudo-code).
//!
//! Light path: ask a quorum over the coordinator's epoch list for
//! permission; if the granted responses include a write quorum over the
//! maximum-epoch list and contain a current replica, apply the write to the
//! current ("good") replicas and mark the rest stale, under two-phase
//! commit. Otherwise fall back to `HeavyProcedure`: poll *all* replicas and
//! re-evaluate; if even that fails, abort — "there is no reason to wait for
//! possible epoch change because such an operation can succeed only if it
//! can obtain a quorum as well".
//!
//! The [`WriteMode::WriteAllCurrent`](crate::config::WriteMode) baseline
//! implements the conventional partial-write discipline the paper argues
//! against: a write needs a quorum of *current* replicas, so obsolete
//! quorum members must be synchronously reconciled first.

use crate::classify::Classified;
use crate::config::{WriteMode, MAX_RETRIES, MAX_WRITE_BATCH};
use crate::coord::{Ballot, InFlight, Poll};
use crate::engine::metrics::keys;
use crate::msg::{Action, FailReason, Msg, OpId, ProtocolEvent};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use crate::store::PartialWrite;
use coterie_quorum::{quorum_seed, NodeId, NodeSet, QuorumKind};

/// The two-phase commit of a write round.
#[derive(Clone, Debug)]
pub struct Voting {
    /// The vote: the quorum responders are required, the §4.1
    /// safety-threshold extras optional.
    pub ballot: Ballot,
    /// The version this write produces.
    pub new_version: u64,
    /// Nodes being marked stale.
    pub stale: Vec<NodeId>,
}

/// One client write riding in a (possibly batched) write round.
#[derive(Clone, Debug)]
pub struct BatchEntry {
    /// The client request id (echoed in the response).
    pub client_id: u64,
    /// The write payload.
    pub write: PartialWrite,
    /// Retry attempt: 0 for the first try, raised each time a refused
    /// batch requeues.
    pub attempt: u32,
}

/// Volatile state of one coordinated write round.
#[derive(Clone, Debug)]
pub struct WriteCoordinator {
    /// The client writes committing in this round, in commit order: entry
    /// `i` produces version `new_version - batch.len() + 1 + i`; at most
    /// [`MAX_WRITE_BATCH`] entries (DESIGN.md §10).
    pub batch: Vec<BatchEntry>,
    /// The permission poll (exclusive locks); empty for a chained round.
    pub poll: Poll,
    /// The two-phase commit; `None` while permission is being gathered.
    pub voting: Option<Voting>,
}

impl ReplicaNode {
    /// Starts coordinating a client write. Every write goes through the
    /// queue: a write arriving while another round is in flight (or while a
    /// requeued batch waits out its backoff) queues instead of opening a
    /// competing round against the same replicas, and the queue drains into
    /// the next round (one permission phase and one 2PC for the whole
    /// batch) when the in-flight round finishes.
    pub(crate) fn start_write(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        client_id: u64,
        write: PartialWrite,
    ) {
        self.vol.write_queue.push_back(BatchEntry {
            client_id,
            write,
            attempt: 0,
        });
        self.maybe_launch_queued(ctx);
    }

    /// Launches the next queued batch if no write round is in flight and
    /// the queue is not held under contention backoff.
    pub(crate) fn maybe_launch_queued(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.vol.write_queue.is_empty()
            || self.vol.write_queue_held
            || self
                .vol
                .ops
                .values()
                .any(|o| matches!(o, InFlight::Write(_)))
        {
            return;
        }
        let batch = self.next_batch();
        self.begin_write_round(ctx, batch);
    }

    /// Drains the next batch, up to [`MAX_WRITE_BATCH`] writes, off the
    /// queue.
    fn next_batch(&mut self) -> Vec<BatchEntry> {
        let take = MAX_WRITE_BATCH.min(self.vol.write_queue.len());
        self.vol.write_queue.drain(..take).collect()
    }

    /// Opens a write round (permission phase) for `batch`.
    fn begin_write_round(&mut self, ctx: &mut NodeCtx<'_>, batch: Vec<BatchEntry>) {
        let op = self.durable.next_op(self.me);
        let view = self.durable.epoch_view();
        let seed = quorum_seed(self.me, op.seq);
        // The quorum function; under write-all-current the conventional
        // discipline polls everyone up front (§1: "the coordinator must
        // either perform the write on all accessible replicas ...").
        let wac = self.config.write_mode == WriteMode::WriteAllCurrent;
        let quorum = if wac {
            Some(NodeSet::from_iter(self.all_nodes()))
        } else {
            self.choose_quorum(&view, seed, QuorumKind::Write)
        };
        let Some(quorum) = quorum else {
            for entry in batch {
                self.fail_write(ctx, entry.client_id, FailReason::NoQuorum);
            }
            // No round went in flight, so nothing will complete later to
            // drain the queue; give queued writes their own (terminal)
            // evaluation now. Bounded: every recursion drains the queue.
            self.maybe_launch_queued(ctx);
            return;
        };
        let mut poll = Poll {
            heavy: wac,
            ..Poll::default()
        };
        poll.ask(ctx, op, quorum, Msg::WriteReq { op });
        let wc = WriteCoordinator {
            batch,
            poll,
            voting: None,
        };
        self.vol.ops.insert(op, InFlight::Write(wc));
    }

    /// The decision core: the paper's `Write` / `HeavyProcedure` branches.
    pub(crate) fn evaluate_write(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(InFlight::Write(wc)) = self.vol.ops.get_mut(&op) else {
            return;
        };
        wc.poll.close(ctx);
        let heavy = wc.poll.heavy;
        let classified = Classified::evaluate(
            &*self.config.rule,
            &mut self.plans,
            &wc.poll.granted,
            QuorumKind::Write,
        );
        let reason = match classified {
            Some(c) if c.has_quorum && c.has_current_replica() => {
                match self.config.write_mode {
                    WriteMode::StaleMarking => self.start_write_commit(ctx, op, c),
                    WriteMode::WriteAllCurrent => self.start_wac_commit(ctx, op, c),
                }
                return;
            }
            // "RESPONSES do not contain the response from a current replica".
            Some(c) if c.has_quorum => FailReason::NoCurrentReplica,
            _ => self.failure_reason(op, QuorumKind::Write),
        };
        // Failures send a light pass to HeavyProcedure and abort a heavy one;
        // busy (not failed) replicas back off and retry the light path.
        if heavy || reason == FailReason::Contention {
            self.finish_write_fail(ctx, op, reason);
        } else {
            self.heavy_procedure(ctx, op);
        }
    }

    /// Stale-marking commit: `do-update` to GOOD, `mark-stale` to STALE,
    /// under 2PC — plus the §4.1 safety-threshold extras: when GOOD is
    /// smaller than the threshold, additional current replicas (taken from
    /// the previous write's recorded good list) receive the update too,
    /// best-effort and with no prior permission round.
    fn start_write_commit(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, c: Classified) {
        let threshold = self.config.safety_threshold;
        let mut optional: Vec<NodeId> = Vec::new();
        if threshold > 0 && c.good.len() < threshold {
            for &cand in &c.last_good {
                if c.good.len() + optional.len() >= threshold {
                    break;
                }
                if !c.responders.contains(cand) {
                    optional.push(cand);
                }
            }
        }
        let Some(InFlight::Write(wc)) = self.vol.ops.get_mut(&op) else {
            return;
        };
        #[expect(clippy::expect_used, reason = "caller checked has_current_replica")]
        let base_version = c.next_version().expect("has_current_replica checked") - 1;
        // A batch of k writes establishes k consecutive versions; the
        // round's version is the last of them.
        let new_version = base_version + wc.batch.len() as u64;
        let ballot = stale_marking_ballot(
            ctx,
            op,
            &wc.batch,
            &c.good,
            &optional,
            &c.stale,
            new_version,
        );
        wc.voting = Some(Voting {
            ballot,
            new_version,
            stale: c.stale,
        });
    }

    /// Write-all-current commit: the write goes only to current replicas;
    /// if they alone do not form a write quorum, obsolete members must be
    /// synchronously reconciled first. Each is shipped the object a current
    /// replica granted with, as the base it applies the write on top of:
    /// the exclusive lock held since that grant keeps the copy current.
    fn start_wac_commit(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, c: Classified) {
        let good_set = NodeSet::from_iter(c.good.iter().copied());
        // One compiled plan covers every quorum test below; the clone out
        // of the cache keeps `self.vol` free for the coordinator borrow.
        let plan = self.plans.plan_for(&*self.config.rule, &c.view).clone();
        let is_quorum = |nodes| plan.includes_quorum(nodes, QuorumKind::Write);
        let Some(InFlight::Write(wc)) = self.vol.ops.get_mut(&op) else {
            return;
        };
        // Choose obsolete granted members, in name order, until good ∪
        // targets includes a quorum: none when the current replicas
        // already form one.
        let mut targets = Vec::new();
        let mut combined = good_set;
        for n in wc.poll.granted.keys().copied() {
            if good_set.contains(n) {
                continue;
            }
            if is_quorum(combined) {
                break;
            }
            combined.insert(n);
            targets.push(n);
        }
        if !is_quorum(combined) {
            self.finish_write_fail(ctx, op, FailReason::NoQuorum);
            return;
        }
        // Every non-stale grant carried its object, so the poll's copy is
        // one of GOOD's, at `max-version`.
        #[expect(
            clippy::expect_used,
            reason = "GOOD is nonempty on this path, and each of its grants carried the object"
        )]
        let (base_version, pages) = wc.poll.copy.take().expect("a current replica granted");
        if !targets.is_empty() {
            self.stats.inc(keys::SYNC_RECONCILIATIONS);
            ctx.output(ProtocolEvent::SyncReconciliation {
                targets: targets.len(),
            });
        }
        let new_version = base_version + wc.batch.len() as u64;
        let good: Vec<NodeId> = c.good.iter().chain(targets.iter()).copied().collect();
        // Release granted members not participating.
        let participants = NodeSet::from_iter(good.iter().copied());
        let others: Vec<NodeId> = wc
            .poll
            .granted
            .keys()
            .copied()
            .filter(|n| !participants.contains(*n))
            .collect();
        for n in others {
            wc.poll.granted.remove(&n);
            ctx.send(n, Msg::Release { op });
        }
        let writes: Vec<PartialWrite> = wc.batch.iter().map(|e| e.write.clone()).collect();
        let update = |base| Action::DoUpdate {
            writes: writes.clone(),
            new_version,
            stale: Vec::new(),
            good: good.clone(),
            base,
        };
        let current = c.good.iter().map(|&n| (n, update(None), false));
        let base = Some((pages, base_version));
        let obsolete = targets.iter().map(|&n| (n, update(base.clone()), false));
        let ballot = Ballot::open(ctx, op, &[], current.chain(obsolete));
        wc.voting = Some(Voting {
            ballot,
            new_version,
            stale: Vec::new(),
        });
    }

    /// The round's ballot closed: the decision goes out, granted nodes
    /// outside the vote are released, and the batch is acked (and chained
    /// on) or retried.
    pub(crate) fn write_decided(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        wc: WriteCoordinator,
        commit: bool,
    ) {
        let Some(Voting {
            ballot,
            new_version,
            stale,
        }) = wc.voting
        else {
            return;
        };
        // Pipelined 2PC: with more writes queued and no voter contended,
        // allocate the next round now and ride its lock handoff on this
        // decision. Participants move their exclusive lock from `op` to
        // `next` instead of unlocking, and the next round's prepare follows
        // the decision in the same effect batch — no fresh permission phase
        // and no race against the decision's delivery (same-sender FIFO).
        // Optional replicas whose yes-vote arrives after this moment learn
        // the outcome through the decision-query path.
        let chain = commit.then(|| self.plan_chain(ballot.contended)).flatten();
        let next = chain.as_ref().map(|(next, _)| *next);
        self.decide(ctx, op, &ballot, commit, next);
        // Release any granted nodes that were not participants (heavy polls
        // can grant more than the quorum used).
        let required = NodeSet::from_iter(ballot.required.iter().copied());
        for &n in wc.poll.granted.keys().filter(|n| !required.contains(**n)) {
            ctx.send(n, Msg::Release { op });
        }
        if !commit {
            self.retry_or_fail_write(ctx, wc.batch, FailReason::CommitFailed);
            return;
        }
        // The replicas that applied the write are the current ones now.
        let marked = NodeSet::from_iter(stale.iter().copied());
        self.vol.current = required.difference(marked).union(ballot.optional_yes);
        let touched = ballot.required.len() + ballot.optional_yes.len();
        let writes = wc.batch.len() as u64;
        self.stats.add(keys::WRITES_OK, writes);
        if writes > 1 {
            self.stats.add(keys::BATCHED_WRITES, writes);
        }
        self.stats
            .add(keys::REPLICAS_TOUCHED_SUM, touched as u64 * writes);
        self.stats
            .add(keys::MARKED_STALE_SUM, stale.len() as u64 * writes);
        // One ack per batched client write, at its own version.
        let first_version = new_version + 1 - writes;
        for (i, entry) in wc.batch.iter().enumerate() {
            ctx.output(ProtocolEvent::WriteOk {
                id: entry.client_id,
                version: first_version + i as u64,
                replicas_touched: touched,
                marked_stale: stale.len(),
            });
        }
        match chain {
            Some(next) => self.begin_chained_round(ctx, next, ballot, new_version, stale),
            None => self.maybe_launch_queued(ctx),
        }
    }

    /// Chains a successor to a committing round, unless its ballot was
    /// `contended` (someone else wants its replicas, so the chain yields
    /// and they wait at most this one round) or no write is queued:
    /// allocates the successor's op id and drains its batch. Only stale
    /// marking chains: a chained round skips the permission poll, and
    /// write-all-current takes its reconciliation base from that poll's
    /// copy.
    fn plan_chain(&mut self, contended: bool) -> Option<(OpId, Vec<BatchEntry>)> {
        let stale_marking = self.config.write_mode == WriteMode::StaleMarking;
        if contended || !stale_marking || self.vol.write_queue.is_empty() {
            return None;
        }
        let batch = self.next_batch();
        Some((self.durable.next_op(self.me), batch))
    }

    /// Opens round k+1 directly in the voting phase: its participants are
    /// round k's (they committed, so they hold handed-off locks and are at
    /// exactly `base_version`), and its prepares are already behind round
    /// k's decisions in the network. No permission phase runs. If a handoff
    /// was lost (lease expiry, crash), the participant meets the prepare
    /// without the lock, or with another op's slot held, and votes no, so
    /// the round degrades to a normal abort-and-retry.
    fn begin_chained_round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        (op, batch): (OpId, Vec<BatchEntry>),
        prev: Ballot,
        base_version: u64,
        stale: Vec<NodeId>,
    ) {
        self.stats.inc(keys::CHAINED_ROUNDS);
        let new_version = base_version + batch.len() as u64;
        let stale_set = NodeSet::from_iter(stale.iter().copied());
        let good: Vec<NodeId> = prev
            .required
            .into_iter()
            .filter(|n| !stale_set.contains(*n))
            .collect();
        let optional: Vec<NodeId> = prev.optional_yes.iter().collect();
        let ballot = stale_marking_ballot(ctx, op, &batch, &good, &optional, &stale, new_version);
        let voting = Some(Voting {
            ballot,
            new_version,
            stale,
        });
        let wc = WriteCoordinator {
            batch,
            poll: Poll::default(),
            voting,
        };
        self.vol.ops.insert(op, InFlight::Write(wc));
    }

    /// Releases all granted locks and fails (or retries) the operation.
    fn finish_write_fail(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, reason: FailReason) {
        let Some(InFlight::Write(wc)) = self.vol.ops.remove(&op) else {
            return;
        };
        for &n in wc.poll.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        self.retry_or_fail_write(ctx, wc.batch, reason);
    }

    /// Contention and commit races are retried with backoff; structural
    /// failures (no quorum, no current replica) are reported immediately,
    /// as the paper prescribes.
    ///
    /// A retryable batch requeues whole: disbanding it into per-entry
    /// retries would relaunch that many competing single-write rounds
    /// against the same replicas. One kick timer (shortest surviving
    /// backoff) holds the queue, then relaunches the batch, plus anything
    /// queued meanwhile, as one round.
    fn retry_or_fail_write(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        batch: Vec<BatchEntry>,
        reason: FailReason,
    ) {
        if !matches!(reason, FailReason::Contention | FailReason::CommitFailed) {
            for entry in batch {
                self.fail_write(ctx, entry.client_id, reason);
            }
            // The failed round is gone; if writes queued behind it, give
            // them their own round now rather than stranding them.
            self.maybe_launch_queued(ctx);
            return;
        }
        let mut min_attempt = u32::MAX;
        for entry in batch.into_iter().rev() {
            if entry.attempt < MAX_RETRIES {
                self.stats.inc(keys::RETRIES);
                min_attempt = min_attempt.min(entry.attempt + 1);
                self.vol.write_queue.push_front(BatchEntry {
                    attempt: entry.attempt + 1,
                    ..entry
                });
            } else {
                self.fail_write(ctx, entry.client_id, reason);
            }
        }
        if min_attempt != u32::MAX {
            let delay = self.backoff(ctx, min_attempt);
            self.vol.write_queue_held = true;
            ctx.set_timer(delay, Timer::WriteQueueKick);
        } else {
            self.maybe_launch_queued(ctx);
        }
    }

    /// Fails client write `id` for good.
    fn fail_write(&mut self, ctx: &mut NodeCtx<'_>, id: u64, reason: FailReason) {
        self.stats.inc(keys::WRITES_FAILED);
        ctx.output(ProtocolEvent::Failed { id, reason });
    }

    /// The contention backoff for a requeued batch expired: release the
    /// queue and relaunch.
    pub(crate) fn on_write_queue_kick(&mut self, ctx: &mut NodeCtx<'_>) {
        self.vol.write_queue_held = false;
        self.maybe_launch_queued(ctx);
    }
}

/// Opens a stale-marking round's ballot: `do-update` to the current
/// replicas `good` and the best-effort `optional` extras, `mark-stale` to
/// `stale`. Extras were never polled and lock at prepare time; required
/// participants must still hold the permission-phase lock.
fn stale_marking_ballot(
    ctx: &mut NodeCtx<'_>,
    op: OpId,
    batch: &[BatchEntry],
    good: &[NodeId],
    optional: &[NodeId],
    stale: &[NodeId],
    new_version: u64,
) -> Ballot {
    // The recorded good list: the intended holders of the new version.
    let mut good_list: Vec<NodeId> = good.iter().chain(optional).copied().collect();
    good_list.sort_unstable();
    let update = Action::DoUpdate {
        writes: batch.iter().map(|e| e.write.clone()).collect(),
        new_version,
        stale: stale.to_vec(),
        good: good_list,
        base: None,
    };
    // The desired version equals "the version number that the up-to-date
    // replicas will have after performing the current write".
    let mark = Action::MarkStale {
        desired_version: new_version,
    };
    let updates = good
        .iter()
        .chain(optional)
        .map(|&n| (n, update.clone(), optional.contains(&n)));
    let marks = stale.iter().map(|&n| (n, mark.clone(), false));
    Ballot::open(ctx, op, optional, updates.chain(marks))
}
