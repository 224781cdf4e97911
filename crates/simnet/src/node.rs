//! The node contract: a sans-I/O state machine the runtime feeds events
//! and whose returned effects it applies.

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

/// A node program hosted by the runtime, shaped like the engine's
/// `ReplicaNode::step`: each [`Event`] goes in, the [`Effect`]s it causes
/// come back, and the runtime applies them in order after the step
/// returns, so a node never re-enters itself. A step that blocks (a sync,
/// a lock, a channel) does so inside [`blocking`](crate::blocking); one
/// that blocks without it holds up every node but a waiting caller's.
///
/// State that must survive a crash (the replica's version number, epoch
/// list, stale flag, prepared-transaction log, …) is kept through
/// [`Event::Crash`]; the rest (locks, in-flight coordinator state) is
/// volatile and reset there. The runtime drops the node's pending timers
/// on a crash, and whatever effects the crash step returns.
pub trait Node: Sized {
    /// Messages exchanged between nodes.
    type Msg;
    /// Timer payloads delivered back to the node that set them.
    type Timer;
    /// Operations injected from outside (client requests, commands).
    type External;
    /// Outputs collected by the runtime (client responses, events).
    type Output;

    /// Handles one event at time `now` and returns what it causes.
    fn step(&mut self, now: SimTime, event: Event<Self>) -> Vec<Effect<Self>>;
}

/// What the runtime feeds a node.
pub enum Event<N: Node> {
    /// The node boots: first, and again after every recovery.
    Start,
    /// The node fail-stops; nothing else arrives until the next `Start`.
    Crash,
    /// A message from `from` arrived.
    Message {
        /// The sender.
        from: NodeId,
        /// The message.
        msg: N::Msg,
    },
    /// A message to `to` could not be delivered (the paper's `RPC.CallFailed`).
    CallFailed {
        /// The unreachable node.
        to: NodeId,
        /// The undeliverable message.
        msg: N::Msg,
    },
    /// A timer armed by [`Effect::SetTimer`] fired; it goes ahead of waiting mail.
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
    /// Arm timer `id` (unique among the node's live timers) to fire `timer`
    /// after `delay`, unless it is cancelled or the node crashes first.
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
