//! The engine's event vocabulary: [`Input`]s consumed and [`Effect`]s emitted.
//!
//! Every interaction between a replica and the outside world is one of the
//! variants below. There is no other channel: hosts translate their
//! substrate (simulated RPCs, real sockets, crash injection, client calls)
//! into `Input`s, and translate the returned `Effect`s back.

use coterie_base::{SimDuration, TimerId};
use coterie_quorum::NodeId;

use crate::msg::{ClientRequest, Msg, ProtocolEvent};
use crate::node::Timer;

use crate::durable::DurableDelta;

/// An event delivered to the replica state machine.
#[derive(Clone, Debug)]
pub enum Input {
    /// The node (re)starts: recover from durable state, arm background
    /// timers. Fired once before any other input, and again after `Crash`
    /// when the node comes back up. A node whose host quarantined its
    /// journal boots the same way: the installed state is already stale
    /// and rejoin-pending, so the boot starts the stale-rejoin poll
    /// ([`crate::rejoin`]).
    Boot,
    /// The node fail-stops: all volatile state is lost; durable state (and
    /// only durable state) survives into the next `Boot`.
    Crash,
    /// A protocol message arrived from a peer replica.
    Deliver {
        /// The sending replica.
        from: NodeId,
        /// The message body.
        msg: Msg,
        /// The sender's Lamport stamp, carried on the wire from the
        /// originating [`Effect::Send`]; the receiver merges it into its
        /// own causal counter (`max(local, remote) + 1`). Purely
        /// observational: it orders trace records and never feeds protocol
        /// decisions, durable state, or digests.
        lamport: u64,
    },
    /// A previously issued [`Effect::Send`] definitively failed: the callee
    /// is down or unreachable. Carries the original message so the engine
    /// can tell *which* RPC failed (fail-stop model — no byzantine
    /// ambiguity).
    CallFailed {
        /// The unreachable callee.
        to: NodeId,
        /// The message that could not be delivered.
        msg: Msg,
    },
    /// A timer set via [`Effect::SetTimer`] fired (and was not canceled).
    TimerFired(Timer),
    /// A client submitted an operation at this replica.
    External(ClientRequest),
}

/// An action the replica state machine asks its host to perform.
#[derive(Clone, Debug)]
pub enum Effect {
    /// Deliver `msg` to replica `to`; if `to` is down or unreachable, feed
    /// back [`Input::CallFailed`].
    Send {
        /// Destination replica.
        to: NodeId,
        /// Message body.
        msg: Msg,
        /// The sender's Lamport stamp at send time (ticked per send).
        /// Hosts carry it with the message and hand it back through
        /// [`Input::Deliver`]; it is trace metadata, not protocol state.
        lamport: u64,
    },
    /// Arm timer `id` to fire [`Input::TimerFired`]`(timer)` after `delay`,
    /// unless canceled first. Ids are unique per node for the lifetime of
    /// the engine (monotonic counter), so hosts key pending timers by
    /// `(NodeId, TimerId)`.
    SetTimer {
        /// Node-unique timer id (for cancellation).
        id: TimerId,
        /// Delay until firing.
        delay: SimDuration,
        /// Payload handed back on expiry.
        timer: Timer,
    },
    /// Disarm a pending timer. Canceling an already-fired or unknown id is
    /// a no-op.
    CancelTimer(TimerId),
    /// Apply `delta` to stable storage **before** acting on any effect that
    /// follows it. The engine emits at most one `Persist` per step, always
    /// first, so a host that journals the delta and then applies the rest
    /// preserves the protocol's write-ahead discipline (2PC prepare records
    /// and epoch installations hit disk before the acks that reveal them).
    /// Boxed: a delta carries whole-object snapshots and epoch lists, far
    /// larger than any other variant, and effects move through `Vec`s.
    Persist(Box<DurableDelta>),
    /// Surface a client-visible protocol event (operation completion,
    /// epoch installation, ...).
    Output(ProtocolEvent),
}
