//! Asynchronous update propagation (§4.2 and the `Propagate` /
//! `PropagateResponse` pseudo-code).
//!
//! When a write marks replicas stale, the good replicas receive the stale
//! list and bring those replicas up to date in the background. Many good
//! replicas may try; the target serializes them with the three-way offer
//! reply (`already-recovering` / `i-am-current` / `propagation-permitted`).
//! Both ends lock their replicas for the duration of the transfer — the
//! paper notes this simple discipline can interfere with foreground writes
//! and suggests logging as an optimization; we keep the simple locking and
//! stagger sources with jitter instead.

use crate::config::{COLLECT_TIMEOUT, LOCK_LEASE, MAX_PROP_ATTEMPTS, PROPAGATION_COALESCE};
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
    /// True once the data transfer has been sent.
    pub sending: bool,
    /// True while we hold our own replica lock for the transfer.
    pub holds_lock: bool,
    /// Attempt timeout.
    pub timer: TimerId,
}

/// Target-side state of an accepted propagation (the paper's
/// `locked-for-propagation` bit, with the source recorded).
#[derive(Clone, Debug)]
pub struct IncomingProp {
    /// Attempt id.
    pub prop: OpId,
    /// The source replica.
    pub source: NodeId,
    /// Guard timer releasing the lock if the source vanishes.
    pub lease: TimerId,
    /// Whether the replica lock was taken (paper's locking mode).
    pub locked: bool,
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
            self.jitter(ctx, self.config.propagation_jitter)
        } else {
            let attempts = self
                .vol
                .propagator
                .attempts
                .get(&next)
                .copied()
                .unwrap_or(0);
            let base = self.config.propagation_retry * (1u64 << attempts.min(6));
            base + self.jitter(ctx, self.config.propagation_jitter)
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
        let prop = self.next_op();
        let timeout = COLLECT_TIMEOUT * 4;
        let timer = ctx.set_timer(timeout, Timer::PropTimeout { prop });
        self.vol.propagator.in_flight = Some(PropFlight {
            prop,
            target,
            sending: false,
            holds_lock: false,
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
        // Rejoin limbo: the desired version is not known yet, so a safe
        // source cannot be told from an obsolete one — defer the offer.
        // "if locked-for-propagation = 1 then reply already-recovering".
        if self.vol.incoming_prop.is_some() || self.in_rejoin_limbo() {
            ctx.send(
                from,
                Msg::PropResp {
                    prop,
                    reply: PropReply::AlreadyRecovering,
                },
            );
            return;
        }
        // "if stale-data = 1 and desired-version-number <= v".
        if !(self.durable.stale && self.durable.dversion <= source_version) {
            ctx.send(
                from,
                Msg::PropResp {
                    prop,
                    reply: PropReply::IAmCurrent,
                },
            );
            return;
        }
        // Locking mode: take the replica lock (no-wait — a busy replica
        // defers the recovery). Lock-free mode: refuse only while a
        // two-phase commit is actively touching this replica, which keeps
        // propagation from racing a prepared update.
        let locked = if self.config.lock_propagation {
            if !matches!(
                self.vol.lock.try_exclusive(prop),
                crate::locks::LockGrant::Granted
            ) {
                ctx.send(
                    from,
                    Msg::PropResp {
                        prop,
                        reply: PropReply::AlreadyRecovering,
                    },
                );
                return;
            }
            true
        } else {
            if self.vol.lock.exclusive_holder().is_some() || self.durable.prepared.is_some() {
                ctx.send(
                    from,
                    Msg::PropResp {
                        prop,
                        reply: PropReply::AlreadyRecovering,
                    },
                );
                return;
            }
            false
        };
        let lease = ctx.set_timer(LOCK_LEASE, Timer::PropLease { prop });
        self.vol.incoming_prop = Some(IncomingProp {
            prop,
            source: from,
            lease,
            locked,
        });
        ctx.send(
            from,
            Msg::PropResp {
                prop,
                reply: PropReply::Permitted {
                    target_version: self.durable.version,
                },
            },
        );
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
                // Locking mode: "On receiving permission, the coordinator
                // locks its replica and propagates missing updates".
                // Lock-free mode: the log suffix is an atomic snapshot, so
                // no source lock is needed.
                let source_locked = if self.config.lock_propagation {
                    matches!(
                        self.vol.lock.try_exclusive(prop),
                        crate::locks::LockGrant::Granted
                    )
                } else {
                    false
                };
                if self.durable.stale || (self.config.lock_propagation && !source_locked) {
                    // Our replica is busy (or we were marked stale since):
                    // abandon this attempt, let the target unlock.
                    if source_locked {
                        self.release_lock(ctx, prop);
                    }
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
                if let Some(flight) = &mut self.vol.propagator.in_flight {
                    flight.sending = true;
                    flight.holds_lock = source_locked;
                }
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
        if !inc.locked
            && (self
                .vol
                .lock
                .exclusive_holder()
                .is_some_and(|holder| holder != prop)
                || self.durable.prepared.is_some())
        {
            ctx.cancel_timer(inc.lease);
            ctx.send(from, Msg::PropAck { prop, ok: false });
            return;
        }
        let ok = match payload {
            PropPayload::Updates { entries } => {
                let mut applied = true;
                for entry in entries {
                    if entry.version != self.durable.version + 1 {
                        applied = false;
                        break;
                    }
                    self.durable.object.apply(&entry.write);
                    self.durable.version = entry.version;
                    self.durable.log.push(entry);
                }
                applied && self.durable.version == source_version
            }
            PropPayload::Snapshot { pages, version } => {
                self.durable.object.restore(pages);
                self.durable.version = version;
                self.durable.log.clear();
                version == source_version
            }
        };
        if ok && self.durable.version >= self.durable.dversion {
            // Caught up past the desired version: current again.
            self.durable.stale = false;
            self.durable.dversion = 0;
        }
        ctx.cancel_timer(inc.lease);
        if inc.locked {
            self.release_lock(ctx, prop);
        }
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
            Some(inc) if inc.prop == prop => {
                ctx.cancel_timer(inc.lease);
                if inc.locked {
                    self.release_lock(ctx, prop);
                }
            }
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

    /// Target side: a permitted propagation never completed; release the
    /// lock so foreground work can proceed.
    pub(crate) fn on_prop_lease(&mut self, ctx: &mut NodeCtx<'_>, prop: OpId) {
        let matches_incoming = self
            .vol
            .incoming_prop
            .as_ref()
            .is_some_and(|inc| inc.prop == prop);
        if matches_incoming {
            let locked = self
                .vol
                .incoming_prop
                .take()
                .map(|i| i.locked)
                .unwrap_or(false);
            if locked {
                self.release_lock(ctx, prop);
            }
        }
    }

    /// Drops the in-flight attempt; `done` removes the target from the
    /// work list.
    fn clear_flight(&mut self, ctx: &mut NodeCtx<'_>, done: bool) {
        if let Some(flight) = self.vol.propagator.in_flight.take() {
            ctx.cancel_timer(flight.timer);
            if flight.holds_lock {
                self.release_lock(ctx, flight.prop);
            }
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
