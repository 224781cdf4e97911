//! The per-step context handed to protocol handlers.
//!
//! This mirrors the callback context the simulator used to provide, but is
//! owned by the engine: effects accumulate into the step's output vector,
//! randomness comes from the engine's [`Rng64`], and timer ids come from
//! the node's own monotonic counter. Protocol handlers are substrate-blind
//! — they only ever see this struct.
//!
//! The context also carries the tracing state (see
//! [`trace`](super::trace)): a per-node sequence counter, the Lamport
//! causal counter, and the step's [`TraceRing`], if one is attached. Both
//! counters advance identically whether a ring records or none is
//! attached, so attaching one never changes a protocol-visible byte.

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

use crate::msg::{Msg, ProtocolEvent};
use crate::node::Timer;

use super::io::Effect;
use super::rng::Rng64;
use super::trace::{TraceEvent, TraceRecord, TraceRing};

/// The context threaded through every protocol handler during one
/// [`ReplicaNode::step`](crate::node::ReplicaNode::step).
pub struct NodeCtx<'a> {
    pub(crate) me: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut Rng64,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) timer_seq: &'a mut u64,
    pub(crate) lamport: &'a mut u64,
    pub(crate) trace_seq: &'a mut u64,
    pub(crate) ring: Option<&'a mut TraceRing>,
}

impl<'a> NodeCtx<'a> {
    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The time of the input being processed (host-provided).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Requests delivery of `msg` to `to` (or a `CallFailed` bounce). The
    /// send ticks the Lamport counter and stamps the effect with it.
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        *self.lamport += 1;
        let class = msg.class();
        self.effects.push(Effect::Send {
            to,
            msg,
            lamport: *self.lamport,
        });
        self.trace(TraceEvent::MsgSend { to, class });
    }

    /// Requests delivery of `msg` to every node in `targets`.
    pub fn multicast<I: IntoIterator<Item = NodeId>>(&mut self, targets: I, msg: Msg) {
        for to in targets {
            self.send(to, msg.clone());
        }
    }

    /// Arms a timer that fires after `delay` unless canceled or the node
    /// crashes first. Ids are node-unique (monotonic per engine lifetime).
    pub fn set_timer(&mut self, delay: SimDuration, timer: Timer) -> TimerId {
        let id = TimerId(*self.timer_seq);
        *self.timer_seq += 1;
        self.effects.push(Effect::SetTimer { id, delay, timer });
        id
    }

    /// Cancels a pending timer (no-op if already fired or unknown).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Emits a client-visible protocol event.
    pub fn output(&mut self, out: ProtocolEvent) {
        self.effects.push(Effect::Output(out));
    }

    /// Draws a uniform value in `[0, n)` from the engine's deterministic
    /// RNG; `n` must be positive.
    pub fn rand_below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    /// Merges a remote Lamport stamp into the local counter
    /// (`max(local, remote) + 1`) — called once per delivered message,
    /// before the handler runs, so every event the delivery causes is
    /// ordered after the send.
    pub(crate) fn observe_lamport(&mut self, remote: u64) {
        *self.lamport = (*self.lamport).max(remote) + 1;
    }

    /// Records a trace event, stamped with the step time, the per-node
    /// sequence counter (ticked here), and the current Lamport value. The
    /// counters advance with no ring attached too, keeping enabled and
    /// disabled runs byte-identical.
    pub(crate) fn trace(&mut self, event: TraceEvent) {
        *self.trace_seq += 1;
        if let Some(ring) = &mut self.ring {
            ring.record(TraceRecord {
                at: self.now,
                node: self.me,
                seq: *self.trace_seq,
                lamport: *self.lamport,
                event,
            });
        }
    }
}
