//! Asynchronous update propagation (§4.2 and the `Propagate` /
//! `PropagateResponse` pseudo-code).
//!
//! When a write marks replicas stale, the good replicas receive the stale
//! list and bring those replicas up to date in the background. Many good
//! replicas may try; the target serializes them with the three-way offer
//! reply (`already-recovering` / `i-am-current` / `propagation-permitted`).
//! The paper's pseudo-code locks both replicas for the transfer and admits
//! that "the propagation can interfere with write operations", suggesting
//! logging techniques instead. This is that design, and the only one:
//! the source ships a log suffix (an immutable snapshot, so it takes no
//! lock), and the target refuses the offer and the transfer while a
//! two-phase commit holds its lock or has prepared on it, and applies only
//! a suffix that continues its own version. Competing sources are
//! staggered with jitter.

use crate::config::{
    COLLECT_TIMEOUT, LOCK_LEASE, MAX_PROP_ATTEMPTS, PROPAGATION_COALESCE, PROPAGATION_JITTER,
    PROPAGATION_RETRY,
};
use crate::engine::metrics::keys;
use crate::msg::{Msg, OpId, PropPayload, PropReply, ProtocolEvent};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use coterie_base::{SimTime, TimerId};
use coterie_quorum::{NodeId, NodeSet};
use std::collections::BTreeMap;

/// Outgoing propagation state at a good replica.
#[derive(Clone, Debug, Default)]
pub struct Propagator {
    /// Stale replicas still to bring up to date.
    pub remaining: NodeSet,
    /// The single in-flight attempt (the paper's `foreach` is sequential).
    pub in_flight: Option<PropFlight>,
    /// Failed attempts per target (capped; epoch checking eventually drops
    /// persistently dead targets from the epoch).
    pub attempts: BTreeMap<NodeId, u32>,
    /// Whether a kick timer is pending.
    pub kick_armed: bool,
    /// Re-offer coalescing deadlines: a target brought current at time `t`
    /// is not offered to again before `t + propagation_coalesce`, so a
    /// write burst re-marking it stale yields one offer covering the whole
    /// burst instead of one offer (plus data and ack) per delta.
    pub cooldown: BTreeMap<NodeId, SimTime>,
}

/// One in-flight propagation attempt.
#[derive(Clone, Debug)]
pub struct PropFlight {
    /// Attempt id.
    pub prop: OpId,
    /// The stale target.
    pub target: NodeId,
    /// Attempt timeout.
    pub timer: TimerId,
}

/// Target-side state of an accepted propagation (the paper's
/// `locked-for-propagation` bit).
#[derive(Clone, Debug)]
pub struct IncomingProp {
    /// Attempt id.
    pub prop: OpId,
    /// Guard timer freeing the slot if the source vanishes.
    pub lease: TimerId,
}

impl ReplicaNode {
    /// Adds targets to the propagation work list and schedules a kick.
    pub(crate) fn start_propagation(&mut self, ctx: &mut NodeCtx<'_>, targets: NodeSet) {
        if self.durable.stale {
            return; // a stale replica is never a propagation source
        }
        let new = targets.difference(NodeSet::singleton(self.me));
        if new.is_empty() {
            return;
        }
        self.vol.propagator.remaining = self.vol.propagator.remaining.union(new);
        self.kick_propagation(ctx, true);
    }

    /// Arms a kick timer if none is pending. `jittered` staggers competing
    /// sources after a write; retries back off exponentially in the next
    /// target's failed-attempt count (capped), plus jitter so competing
    /// sources do not re-collide in lockstep.
    fn kick_propagation(&mut self, ctx: &mut NodeCtx<'_>, jittered: bool) {
        if self.vol.propagator.kick_armed || self.vol.propagator.in_flight.is_some() {
            return;
        }
        let Some(next) = self.vol.propagator.remaining.min() else {
            return;
        };
        let mut delay = if jittered {
            self.jitter(ctx, PROPAGATION_JITTER)
        } else {
            let attempts = self
                .vol
                .propagator
                .attempts
                .get(&next)
                .copied()
                .unwrap_or(0);
            let base = PROPAGATION_RETRY * (1u64 << attempts.min(6));
            base + self.jitter(ctx, PROPAGATION_JITTER)
        };
        // Re-offer coalescing: a target we just brought current waits out
        // its cooldown, so the next offer carries the whole burst.
        match self.vol.propagator.cooldown.get(&next) {
            Some(&until) if until > ctx.now() => {
                delay = delay.max(until - ctx.now());
            }
            Some(_) => {
                self.vol.propagator.cooldown.remove(&next);
            }
            None => {}
        }
        ctx.set_timer(delay, Timer::PropKick);
        self.vol.propagator.kick_armed = true;
    }

    /// The kick timer fired: offer propagation to the next target.
    pub(crate) fn on_prop_kick(&mut self, ctx: &mut NodeCtx<'_>) {
        self.vol.propagator.kick_armed = false;
        if self.vol.propagator.in_flight.is_some() || self.durable.stale {
            return;
        }
        let Some(target) = self.vol.propagator.remaining.min() else {
            return;
        };
        // Still cooling down (the kick was armed for a different target, or
        // the target was re-added since): re-arm for the remainder.
        if self
            .vol
            .propagator
            .cooldown
            .get(&target)
            .is_some_and(|&until| until > ctx.now())
        {
            self.kick_propagation(ctx, true);
            return;
        }
        self.vol.propagator.cooldown.remove(&target);
        let prop = self.durable.next_op(self.me);
        let timeout = COLLECT_TIMEOUT * 4;
        let timer = ctx.set_timer(timeout, Timer::PropTimeout { prop });
        self.vol.propagator.in_flight = Some(PropFlight {
            prop,
            target,
            timer,
        });
        ctx.send(
            target,
            Msg::PropOffer {
                prop,
                version: self.durable.version,
            },
        );
    }

    /// Target side: `PropagateResponse`.
    pub(crate) fn srv_prop_offer(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        prop: OpId,
        source_version: u64,
    ) {
        // "if locked-for-propagation = 1 then reply already-recovering";
        // rejoin limbo defers the offer too, since the desired version is not
        // known yet and a safe source cannot be told from an obsolete one.
        let busy = self.vol.incoming_prop.is_some() || self.in_rejoin_limbo();
        // "if stale-data = 1 and desired-version-number <= v" ...
        let wanted = self.durable.stale && self.durable.dversion <= source_version;
        // ... unless a two-phase commit is touching this replica: that keeps
        // propagation from racing a prepared update.
        let in_2pc = self.vol.lock.exclusive_holder().is_some() || self.durable.prepared.is_some();
        let reply = if busy || (wanted && in_2pc) {
            PropReply::AlreadyRecovering
        } else if !wanted {
            PropReply::IAmCurrent
        } else {
            let lease = ctx.set_timer(LOCK_LEASE, Timer::PropLease { prop });
            self.vol.incoming_prop = Some(IncomingProp { prop, lease });
            let target_version = self.durable.version;
            PropReply::Permitted { target_version }
        };
        ctx.send(from, Msg::PropResp { prop, reply });
    }

    /// Source side: the target answered our offer.
    pub(crate) fn on_prop_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        prop: OpId,
        reply: PropReply,
    ) {
        let Some(flight) = &self.vol.propagator.in_flight else {
            return;
        };
        if flight.prop != prop {
            return;
        }
        match reply {
            PropReply::IAmCurrent => {
                // "STALE-NODES := STALE-NODES \ {node}".
                self.clear_flight(ctx, true);
                self.kick_propagation(ctx, true);
            }
            PropReply::AlreadyRecovering => {
                // "pause(some-time)" and retry later.
                self.clear_flight(ctx, false);
                self.bump_attempts(from);
                self.kick_propagation(ctx, false);
            }
            PropReply::Permitted { target_version } => {
                // The log suffix is an atomic snapshot, so no source lock
                // is needed.
                if self.durable.stale {
                    // We were marked stale since the offer: abandon this
                    // attempt and free the target.
                    ctx.send(from, Msg::PropCancel { prop });
                    self.clear_flight(ctx, false);
                    self.bump_attempts(from);
                    self.kick_propagation(ctx, false);
                    return;
                }
                let payload = match self.durable.log.updates_since(target_version) {
                    Some(entries) => PropPayload::Updates { entries },
                    None => PropPayload::Snapshot {
                        pages: self.durable.object.snapshot(),
                        version: self.durable.version,
                    },
                };
                let source_version = self.durable.version;
                ctx.send(
                    from,
                    Msg::PropData {
                        prop,
                        payload,
                        source_version,
                    },
                );
            }
        }
    }

    /// Target side: apply the transfer.
    pub(crate) fn srv_prop_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        prop: OpId,
        payload: PropPayload,
        source_version: u64,
    ) {
        // Take ownership up front: every path below consumes the incoming
        // slot, and owning `inc` here removes the check-then-take panics.
        let inc = match self.vol.incoming_prop.take() {
            Some(inc) if inc.prop == prop => inc,
            other => {
                self.vol.incoming_prop = other;
                ctx.send(from, Msg::PropAck { prop, ok: false });
                return;
            }
        };
        // Lock-free fence: a two-phase commit grabbed the replica between
        // the offer and the transfer — back off, retry later.
        if self.vol.lock.exclusive_holder().is_some() || self.durable.prepared.is_some() {
            ctx.cancel_timer(inc.lease);
            ctx.send(from, Msg::PropAck { prop, ok: false });
            return;
        }
        let ok = self.durable.apply_propagation(payload, source_version);
        ctx.cancel_timer(inc.lease);
        ctx.send(from, Msg::PropAck { prop, ok });
    }

    /// Source side: transfer acknowledged.
    pub(crate) fn on_prop_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        prop: OpId,
        ok: bool,
    ) {
        let Some(flight) = &self.vol.propagator.in_flight else {
            return;
        };
        if flight.prop != prop {
            return;
        }
        if ok {
            self.stats.inc(keys::PROPAGATIONS_DONE);
            let version = self.durable.version;
            ctx.output(ProtocolEvent::Propagated {
                target: from,
                version,
            });
            self.clear_flight(ctx, true);
            self.kick_propagation(ctx, true);
        } else {
            self.clear_flight(ctx, false);
            self.bump_attempts(from);
            self.kick_propagation(ctx, false);
        }
    }

    /// Target side: the source abandoned a permitted transfer.
    pub(crate) fn srv_prop_cancel(&mut self, ctx: &mut NodeCtx<'_>, _from: NodeId, prop: OpId) {
        match self.vol.incoming_prop.take() {
            Some(inc) if inc.prop == prop => ctx.cancel_timer(inc.lease),
            other => self.vol.incoming_prop = other,
        }
    }

    /// Source side: the offer or transfer went unanswered.
    pub(crate) fn on_prop_timeout(&mut self, ctx: &mut NodeCtx<'_>, prop: OpId) {
        let target = match self.vol.propagator.in_flight.as_ref() {
            Some(flight) if flight.prop == prop => flight.target,
            _ => return,
        };
        ctx.send(target, Msg::PropCancel { prop });
        self.clear_flight(ctx, false);
        self.bump_attempts(target);
        self.kick_propagation(ctx, false);
    }

    /// Source side: the offer or data bounced (`RPC.CallFailed`).
    pub(crate) fn on_prop_peer_failed(&mut self, ctx: &mut NodeCtx<'_>, prop: OpId, to: NodeId) {
        let is_current = self
            .vol
            .propagator
            .in_flight
            .as_ref()
            .is_some_and(|f| f.prop == prop);
        if !is_current {
            return;
        }
        self.clear_flight(ctx, false);
        self.bump_attempts(to);
        self.kick_propagation(ctx, false);
    }

    /// Target side: a permitted propagation never completed; free the
    /// slot so another source can offer.
    pub(crate) fn on_prop_lease(&mut self, prop: OpId) {
        let incoming = &mut self.vol.incoming_prop;
        if incoming.as_ref().is_some_and(|inc| inc.prop == prop) {
            *incoming = None;
        }
    }

    /// Drops the in-flight attempt; `done` removes the target from the
    /// work list.
    fn clear_flight(&mut self, ctx: &mut NodeCtx<'_>, done: bool) {
        if let Some(flight) = self.vol.propagator.in_flight.take() {
            ctx.cancel_timer(flight.timer);
            if done {
                self.vol.propagator.remaining.remove(flight.target);
                self.vol.propagator.attempts.remove(&flight.target);
                // Start the re-offer coalescing window: if newer writes
                // re-mark this target stale, the next offer waits until
                // the window closes and covers all of them at once.
                self.vol
                    .propagator
                    .cooldown
                    .insert(flight.target, ctx.now() + PROPAGATION_COALESCE);
            }
        }
    }

    fn bump_attempts(&mut self, target: NodeId) {
        let n = self.vol.propagator.attempts.entry(target).or_insert(0);
        *n += 1;
        if *n >= MAX_PROP_ATTEMPTS {
            // Give up: the epoch-checking protocol owns long-term repair.
            self.vol.propagator.remaining.remove(target);
            self.vol.propagator.attempts.remove(&target);
        }
    }
}
