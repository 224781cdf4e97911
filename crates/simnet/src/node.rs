//! The node contract: a sans-I/O state machine the runtime feeds events
//! and whose returned effects it applies.

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

/// A node program hosted by the runtime, shaped like the engine's
/// `ReplicaNode::step`: each [`Event`] goes in, the [`Effect`]s it causes
/// come back, and the runtime applies them in order after the step
/// returns, so a node never re-enters itself.
///
/// State discipline: anything that must survive a crash (the replica's
/// version number, epoch list, stale flag, the prepared-transaction log, …)
/// must be kept through [`Event::Crash`]; everything else (locks, in-flight
/// coordinator state) is volatile and must be reset there. The runtime
/// drops the node's pending timers on a crash, and whatever effects the
/// crash step returns.
pub trait Node: Sized {
    /// Messages exchanged between nodes.
    type Msg;
    /// Timer payloads delivered back to the node that set them.
    type Timer;
    /// Operations injected from outside the system (client requests,
    /// management commands).
    type External;
    /// Observable outputs collected by the runtime (client responses,
    /// protocol events of interest to the harness).
    type Output;

    /// Handles one event at time `now` and returns what it causes.
    fn step(&mut self, now: SimTime, event: Event<Self>) -> Vec<Effect<Self>>;
}

/// What the runtime feeds a node.
pub enum Event<N: Node> {
    /// The node boots: first, and again after every recovery.
    Start,
    /// The node fail-stops: reset volatile state, keep durable state. No
    /// other event arrives until the next [`Event::Start`].
    Crash,
    /// A message from `from` arrived.
    Message {
        /// The sender.
        from: NodeId,
        /// The message.
        msg: N::Msg,
    },
    /// A message this node sent to `to` could not be delivered (the
    /// paper's `RPC.CallFailed`).
    CallFailed {
        /// The unreachable node.
        to: NodeId,
        /// The undeliverable message.
        msg: N::Msg,
    },
    /// A timer armed by [`Effect::SetTimer`] fired. A due timer goes ahead
    /// of the next message waiting in the node's inbox.
    Timer(N::Timer),
    /// An operation was injected at this node.
    External(N::External),
}

/// What a node asks the runtime to do.
pub enum Effect<N: Node> {
    /// Send `msg` to `to`. Delivery, or a `CallFailed` bounce, happens
    /// later; self-sends are permitted and also go through the inbox.
    Send {
        /// The destination.
        to: NodeId,
        /// The message.
        msg: N::Msg,
    },
    /// Arm timer `id` to fire `timer` after `delay`, unless it is
    /// cancelled or the node crashes first. The node chooses its ids; an
    /// id must be unique among the node's live timers.
    SetTimer {
        /// The node's name for this timer.
        id: TimerId,
        /// How long until it fires.
        delay: SimDuration,
        /// What it delivers.
        timer: N::Timer,
    },
    /// Disarm timer `id`; an already-fired or unknown id is a no-op.
    CancelTimer(TimerId),
    /// Emit an observable output, collected by the runtime.
    Output(N::Output),
}
