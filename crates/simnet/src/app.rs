//! The application interface: event-driven nodes hosted by the runtime.

use crate::time::{SimDuration, SimTime};
use coterie_quorum::NodeId;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

pub use coterie_base::TimerId;

/// A node program hosted by the runtime.
///
/// The model matches the paper's §3: fail-stop nodes communicating through
/// RPC-style messages, where "the notification RPC.CallFailed is returned to
/// the sender if the message cannot be delivered".
///
/// State discipline: anything that must survive a crash (the replica's
/// version number, epoch list, stale flag, the prepared-transaction log, …)
/// must be kept in fields that [`on_crash`](Application::on_crash) preserves;
/// everything else (locks, in-flight coordinator state, timers) is volatile
/// and must be reset there. Pending timers are dropped by the host on crash.
pub trait Application: Sized {
    /// Messages exchanged between nodes.
    type Msg: Clone + fmt::Debug;
    /// Timer payloads delivered back to the node that set them.
    type Timer: Clone + fmt::Debug;
    /// Operations injected from outside the system (client requests,
    /// management commands).
    type External: fmt::Debug;
    /// Observable outputs collected by the runtime (client responses,
    /// protocol events of interest to the harness).
    type Output: fmt::Debug;

    /// Called when the node first boots and after every recovery.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>);

    /// Called when the node crashes: reset volatile state, keep durable
    /// state. The host guarantees no other callback runs while down.
    fn on_crash(&mut self);

    /// A message from `from` arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg);

    /// A message previously sent to `to` could not be delivered; `msg` is
    /// the undeliverable message (the paper's `RPC.CallFailed`).
    fn on_call_failed(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, msg: Self::Msg);

    /// A timer set via [`Ctx::set_timer`] fired. A due timer goes ahead of
    /// the next message waiting in the node's inbox.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Self::Timer);

    /// An external operation was injected at this node.
    fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, ext: Self::External);
}

/// Side effects a handler may request; applied by the runtime after the
/// handler returns (keeps handlers free of re-entrancy).
pub(crate) enum Effect<A: Application> {
    Send {
        to: NodeId,
        msg: A::Msg,
    },
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        timer: A::Timer,
    },
    CancelTimer {
        id: TimerId,
    },
    Output(A::Output),
}

/// The per-callback context handed to [`Application`] handlers.
pub struct Ctx<'a, A: Application> {
    pub(crate) me: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) effects: &'a mut Vec<Effect<A>>,
    pub(crate) next_timer_id: &'a mut u64,
}

impl<'a, A: Application> Ctx<'a, A> {
    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. Delivery (or a `CallFailed` bounce) happens
    /// after the network latency; self-sends are permitted and also go
    /// through the queue, so handlers never re-enter.
    pub fn send(&mut self, to: NodeId, msg: A::Msg) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every node in `targets`.
    pub fn multicast<I: IntoIterator<Item = NodeId>>(&mut self, targets: I, msg: A::Msg)
    where
        A::Msg: Clone,
    {
        for to in targets {
            self.send(to, msg.clone());
        }
    }

    /// Arms a timer that fires after `delay` unless canceled or the node
    /// crashes first. Returns an id usable with [`cancel_timer`](Ctx::cancel_timer).
    pub fn set_timer(&mut self, delay: SimDuration, timer: A::Timer) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer { id, delay, timer });
        id
    }

    /// Arms a timer under a caller-chosen id. Hosts use this to replay
    /// timer effects from sans-I/O engines that allocate their own ids;
    /// the id must be unique among this node's live timers (each node
    /// keeps and cancels its own timers).
    pub fn set_timer_with_id(&mut self, id: TimerId, delay: SimDuration, timer: A::Timer) {
        self.effects.push(Effect::SetTimer { id, delay, timer });
    }

    /// Cancels a pending timer. Canceling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Emits an observable output collected by the runtime.
    pub fn output(&mut self, out: A::Output) {
        self.effects.push(Effect::Output(out));
    }

    /// Draws a uniform `u64` from the node's seeded RNG.
    pub fn rand_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Draws a uniform value in `[0, n)`; `n` must be positive.
    pub fn rand_below(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }

    /// Draws a uniform duration in `[lo, hi]`.
    pub fn rand_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration(self.rng.gen_range(lo.0..=hi.0))
    }
}
