//! The engine's single entry point: [`ReplicaNode::step`].
//!
//! One input in, a batch of effects out. The dispatch below is the former
//! simulator-callback wiring, now substrate-free: handlers receive an
//! engine-owned [`NodeCtx`] backed by locals, so the borrow of `self` stays
//! free for the protocol methods.

use coterie_base::SimTime;

use crate::config::Mode;
use crate::msg::Msg;
use crate::node::{ReplicaNode, Timer, Volatile};

use super::ctx::NodeCtx;
use super::io::{Effect, Input};
use super::metrics::keys;
use super::trace::{TraceEvent, TraceRing};

impl ReplicaNode {
    /// Advances the state machine by one input at time `now`, returning the
    /// effects the host must apply.
    ///
    /// If the step changed durable state, the **first** effect is the
    /// [`Effect::Persist`] describing the change; hosts that journal must
    /// make it stable before acting on the effects after it.
    pub fn step(&mut self, now: SimTime, input: Input) -> Vec<Effect> {
        self.step_traced(now, input, None)
    }

    /// [`step`](ReplicaNode::step) with a flight recorder: when `ring` is
    /// attached, every protocol transition the step performs is recorded in
    /// it as a stamped [`TraceEvent`]. Tracing is purely
    /// observational — the returned effects, durable deltas, and digests
    /// are byte-identical to an untraced step.
    pub fn step_traced(
        &mut self,
        now: SimTime,
        input: Input,
        ring: Option<&mut TraceRing>,
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        // Move the engine-owned substrate state into locals so the context
        // can borrow them while protocol handlers borrow `self`.
        let mut rng = self.rng;
        let mut timer_seq = self.timer_seq;
        let mut lamport = self.lamport;
        let mut trace_seq = self.trace_seq;
        {
            let mut ctx = NodeCtx {
                me: self.me,
                now,
                rng: &mut rng,
                effects: &mut effects,
                timer_seq: &mut timer_seq,
                lamport: &mut lamport,
                trace_seq: &mut trace_seq,
                ring,
            };
            self.dispatch(&mut ctx, input);
        }
        self.rng = rng;
        self.timer_seq = timer_seq;
        self.lamport = lamport;
        self.trace_seq = trace_seq;
        if let Some(delta) = self.durable.take_delta() {
            effects.insert(0, Effect::Persist(Box::new(delta)));
        }
        effects
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, input: Input) {
        match input {
            Input::Boot => self.handle_boot(ctx),
            Input::Crash => self.vol = Volatile::default(),
            Input::Deliver { from, msg, lamport } => {
                ctx.observe_lamport(lamport);
                self.handle_message(ctx, from, msg)
            }
            Input::CallFailed { to, msg } => self.handle_call_failed(ctx, to, msg),
            Input::TimerFired(timer) => self.handle_timer(ctx, timer),
            Input::External(request) => self.start_client_request(ctx, request, 0),
        }
    }

    fn handle_boot(&mut self, ctx: &mut NodeCtx<'_>) {
        // A replayed prepared slot is the lock the way its vote made it,
        // with no lease, until its decision, which it chases.
        if let Some(op) = self.durable.prepared.as_ref().map(|(op, _)| *op) {
            self.arm_decision_retry(ctx, op);
        }
        if matches!(self.config.mode, Mode::Dynamic { .. }) {
            self.arm_epoch_tick(ctx);
        }
        // A quarantined journal, or a crash during the stale-rejoin
        // handshake, leaves the durable flag set: enter the poll, because
        // until it completes this replica's desired version lacks the
        // rejoin bound and must not be trusted.
        if self.durable.rejoin_pending {
            self.start_rejoin(ctx);
        }
    }

    fn handle_message(&mut self, ctx: &mut NodeCtx<'_>, from: coterie_quorum::NodeId, msg: Msg) {
        let class = msg.class();
        self.stats.inc(keys::msgs_in(class));
        ctx.trace(TraceEvent::MsgRecv { from, class });
        // Rejoin limbo, the one rule: until its own rejoin poll completes,
        // this replica serves no peer, so to them it is a failed node, which
        // the protocol survives (timeouts, retries around it, epoch checks
        // that shrink the epoch). Its tuple may have lost acknowledged
        // writes, votes and decisions, and an amnesiac tuple enters no
        // classification and anchors no vote: a quorum whose only
        // intersection with a lost write's quorum is this replica would
        // commit a duplicate version or serve a stale read. Replies to its
        // own polls and ballots, decisions, releases, decision queries
        // (silent on earlier incarnations) and transfers still run.
        if self.durable.rejoin_pending
            && matches!(
                msg,
                Msg::ReadReq { .. }
                    | Msg::WriteReq { .. }
                    | Msg::EpochCheckReq { .. }
                    | Msg::RejoinQuery { .. }
                    | Msg::Prepare { .. }
                    | Msg::PropOffer { .. }
            )
        {
            return;
        }
        match msg {
            Msg::WriteReq { op } => self.srv_permission(ctx, from, op, true),
            Msg::ReadReq { op } => self.srv_permission(ctx, from, op, false),
            Msg::EpochCheckReq { op } => self.srv_epoch_check_req(ctx, from, op),
            Msg::StateResp {
                op,
                granted,
                state,
                pages,
            } => self.on_state_resp(ctx, from, op, granted, state, pages),
            Msg::Release { op } => self.release_lock(ctx, op),
            Msg::Prepare { op, action, extra } => self.srv_prepare(ctx, from, op, action, extra),
            Msg::Vote { op, yes, contended } => self.on_vote(ctx, from, op, yes, contended),
            Msg::Decision { op, commit, chain } => self.srv_decision(ctx, op, commit, chain),
            Msg::DecisionQuery { op } => self.srv_decision_query(ctx, from, op),
            Msg::PropOffer { prop, version } => self.srv_prop_offer(ctx, from, prop, version),
            Msg::PropResp { prop, reply } => self.on_prop_resp(ctx, from, prop, reply),
            Msg::PropData {
                prop,
                payload,
                source_version,
            } => self.srv_prop_data(ctx, from, prop, payload, source_version),
            Msg::PropAck { prop, ok } => self.on_prop_ack(ctx, from, prop, ok),
            Msg::PropCancel { prop } => self.srv_prop_cancel(ctx, from, prop),
            // Never sent: stubs the frozen benchmark's spans.rs names.
            Msg::Election { .. }
            | Msg::ElectionAlive { .. }
            | Msg::FetchReq { .. }
            | Msg::FetchResp { .. } => {}
            Msg::RejoinQuery { op } => self.srv_rejoin_query(ctx, from, op),
            Msg::RejoinInfo { op, state } => self.on_rejoin_info(ctx, from, op, state),
        }
    }

    fn handle_call_failed(&mut self, ctx: &mut NodeCtx<'_>, to: coterie_quorum::NodeId, msg: Msg) {
        let class = msg.class();
        self.stats.inc(keys::msgs_bounced(class));
        ctx.trace(TraceEvent::MsgBounce { to, class });
        match msg {
            Msg::WriteReq { op } | Msg::ReadReq { op } | Msg::EpochCheckReq { op } => {
                self.on_request_failed(ctx, to, op)
            }
            // An unreachable 2PC participant is an implicit "no" (it cannot
            // have prepared: it never received the Prepare).
            Msg::Prepare { op, .. } => self.on_vote(ctx, to, op, false, false),
            Msg::PropOffer { prop, .. } | Msg::PropData { prop, .. } => {
                self.on_prop_peer_failed(ctx, prop)
            }
            // Lost responses and notifications are covered by coordinator
            // timeouts; lost decisions are re-fetched by the participant,
            // whose retry chain is still armed when its query bounces.
            // An unreachable rejoin peer is retried by the RejoinRetry
            // timer chain.
            Msg::DecisionQuery { .. }
            | Msg::RejoinQuery { .. }
            | Msg::RejoinInfo { .. }
            | Msg::StateResp { .. }
            | Msg::Vote { .. }
            | Msg::Decision { .. }
            | Msg::Release { .. }
            | Msg::FetchReq { .. }
            | Msg::FetchResp { .. }
            | Msg::PropResp { .. }
            | Msg::PropAck { .. }
            | Msg::PropCancel { .. }
            | Msg::Election { .. }
            | Msg::ElectionAlive { .. } => {}
        }
    }

    fn handle_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: Timer) {
        match timer {
            Timer::Collect { op } => self.on_collect_timeout(ctx, op),
            Timer::Votes { op } => self.on_vote_timeout(ctx, op),
            Timer::RetryClient { attempt, request } => {
                self.start_client_request(ctx, request, attempt)
            }
            Timer::LockLease { op } => self.handle_lock_lease(ctx, op),
            Timer::EpochTick => self.on_epoch_tick(ctx),
            Timer::EpochRetry => self.on_epoch_retry(ctx),
            Timer::PropKick => self.on_prop_kick(ctx),
            Timer::WriteQueueKick => self.on_write_queue_kick(ctx),
            Timer::PropTimeout { prop } => self.on_prop_timeout(ctx, prop),
            Timer::PropLease { prop } => self.on_prop_lease(prop),
            Timer::DecisionRetry { op } => self.on_decision_retry(ctx, op),
            Timer::RejoinRetry => self.on_rejoin_retry(ctx),
            // Never armed: stubs the frozen benchmark's spans.rs names.
            Timer::ElectionTimeout { .. } | Timer::Fetch { .. } => {}
        }
    }
}
