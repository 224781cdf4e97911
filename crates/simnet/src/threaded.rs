//! A real-thread runtime for [`Application`] nodes.
//!
//! The deterministic `coterie_core::StepDriver` is the measurement
//! substrate; this module hosts the protocol on OS threads, one per node,
//! joined by unbounded `std::sync::mpsc` channels (through the vendored
//! `crossbeam` shim), demonstrating that the implementation is not
//! simulator-bound. Message delivery, the `RPC.CallFailed` bounce for down
//! nodes, timers with cancellation, crash (volatile-state wipe) and
//! recovery all behave like the driver's — except that time is real and
//! scheduling is whatever the OS provides, so runs are *not* reproducible
//! (use the driver for experiments).
//!
//! Each node thread is its own event loop. It owns a deadline queue of its
//! armed timers and the `CallFailed` bounces it owes, and waits on its
//! inbox only until the earliest of them is due. Every due entry fires
//! before the next inbox message is taken, so a busy inbox cannot starve a
//! timer. Cancelling a timer removes its entry; a crash drops the node's
//! timers but not the bounces it owes. A runtime of `n` nodes runs `n`
//! threads and no others.

#![expect(
    clippy::disallowed_methods,
    reason = "this runtime is the real host: wall clocks are its whole point, and its runs are irreproducible by design"
)]

use crate::app::{Application, Ctx, Effect, TimerId};
use crate::time::SimTime;
use coterie_quorum::NodeId;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Inputs delivered to a node thread.
enum Input<A: Application> {
    Msg { from: NodeId, msg: A::Msg },
    CallFailed { to: NodeId, msg: A::Msg },
    External(A::External),
    Crash,
    Recover,
    Stop,
}

/// What a node's deadline queue holds.
enum Due<A: Application> {
    /// One of the node's own timers.
    Timer { id: TimerId, timer: A::Timer },
    /// A `CallFailed` this node owes `sender` for its `msg` to `to`.
    Bounce {
        sender: NodeId,
        to: NodeId,
        msg: A::Msg,
    },
}

/// A queue position: the deadline, then arming order among equal deadlines.
type Key = (Instant, u64);

/// One node's deadline queue, with an index from timer id to queue key so
/// that a cancel removes the entry instead of leaving it to come due.
struct Deadlines<A: Application> {
    queue: BTreeMap<Key, Due<A>>,
    timers: BTreeMap<TimerId, Key>,
    seq: u64,
}

impl<A: Application> Deadlines<A> {
    fn push(&mut self, at: Instant, due: Due<A>) -> Key {
        self.seq += 1;
        self.queue.insert((at, self.seq), due);
        (at, self.seq)
    }

    /// Arms timer `id`, which must not be live already.
    fn arm(&mut self, at: Instant, id: TimerId, timer: A::Timer) {
        let key = self.push(at, Due::Timer { id, timer });
        self.timers.insert(id, key);
    }

    /// Disarms timer `id`; an unknown or already-fired id is a no-op.
    fn cancel(&mut self, id: TimerId) {
        if let Some(key) = self.timers.remove(&id) {
            self.queue.remove(&key);
        }
    }
}

/// Shared state between node threads and the runtime handle.
struct Shared<A: Application> {
    inboxes: Vec<Sender<Input<A>>>,
    fail_notice: Duration,
    started: Instant,
}

impl<A: Application> Shared<A> {
    fn send_input(&self, to: NodeId, input: Input<A>) {
        if let Some(tx) = self.inboxes.get(to.index()) {
            let _ = tx.send(input);
        }
    }
}

/// The real-thread runtime. Create with [`ThreadedRuntime::spawn`], interact
/// through the handle, and call [`shutdown`](ThreadedRuntime::shutdown) to
/// join every node thread.
pub struct ThreadedRuntime<A: Application + Send + 'static>
where
    A::Msg: Send,
    A::Timer: Send,
    A::External: Send,
    A::Output: Send,
{
    shared: Arc<Shared<A>>,
    outputs: Receiver<(NodeId, A::Output)>,
    node_handles: Vec<JoinHandle<NodeThread<A>>>,
}

impl<A: Application + Send + 'static> ThreadedRuntime<A>
where
    A::Msg: Send,
    A::Timer: Send,
    A::External: Send,
    A::Output: Send,
{
    /// Spawns `n` nodes built by `make_node`, each on its own thread.
    /// `fail_notice` is the delay before a sender learns a message to a
    /// down or nonexistent node could not be delivered.
    pub fn spawn(
        n: usize,
        seed: u64,
        fail_notice: Duration,
        mut make_node: impl FnMut(NodeId) -> A,
    ) -> Self {
        let (out_tx, out_rx) = unbounded();
        let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            inboxes: inbox_txs,
            fail_notice,
            started: Instant::now(),
        });
        let node_handles = inbox_rxs
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| {
                let me = NodeId(i as u32);
                let node = NodeThread {
                    shared: shared.clone(),
                    out_tx: out_tx.clone(),
                    me,
                    up: true,
                    rng: StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37)),
                    next_timer_id: 1,
                    effects: Vec::new(),
                    deadlines: Deadlines {
                        queue: BTreeMap::new(),
                        timers: BTreeMap::new(),
                        seq: 0,
                    },
                    app: make_node(me),
                };
                std::thread::spawn(move || node.serve(inbox))
            })
            .collect();
        ThreadedRuntime {
            shared,
            outputs: out_rx,
            node_handles,
        }
    }

    /// Injects an external operation at `node`.
    pub fn inject(&self, node: NodeId, ext: A::External) {
        self.shared.send_input(node, Input::External(ext));
    }

    /// Crashes `node` (volatile state wiped, messages bounce).
    pub fn crash(&self, node: NodeId) {
        self.shared.send_input(node, Input::Crash);
    }

    /// Recovers `node`.
    pub fn recover(&self, node: NodeId) {
        self.shared.send_input(node, Input::Recover);
    }

    /// Receives the next output, waiting up to `timeout`.
    pub fn recv_output(&self, timeout: Duration) -> Option<(NodeId, A::Output)> {
        self.outputs.recv_timeout(timeout).ok()
    }

    /// Drains all currently available outputs.
    pub fn drain_outputs(&self) -> Vec<(NodeId, A::Output)> {
        self.outputs.try_iter().collect()
    }

    /// Stops every node and joins all threads, returning the final node
    /// states in id order.
    pub fn shutdown(self) -> Vec<A> {
        self.stop().into_iter().map(|node| node.app).collect()
    }

    #[expect(clippy::expect_used, reason = "join fails only if the node panicked")]
    fn stop(self) -> Vec<NodeThread<A>> {
        for tx in &self.shared.inboxes {
            let _ = tx.send(Input::Stop);
        }
        self.node_handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    }
}

/// One node's thread: its application, its deadline queue, and what a
/// callback on it needs.
struct NodeThread<A: Application> {
    shared: Arc<Shared<A>>,
    out_tx: Sender<(NodeId, A::Output)>,
    me: NodeId,
    up: bool,
    rng: StdRng,
    next_timer_id: u64,
    effects: Vec<Effect<A>>,
    deadlines: Deadlines<A>,
    app: A,
}

impl<A: Application> NodeThread<A> {
    /// The node's event loop, until `Stop` or a closed inbox.
    fn serve(mut self, inbox: Receiver<Input<A>>) -> Self {
        self.run(|app, ctx| app.on_start(ctx));
        while let Some(input) = self.next_input(&inbox) {
            match input {
                Input::Stop => break,
                Input::Crash if self.up => {
                    self.up = false;
                    self.deadlines.timers.clear();
                    let queue = &mut self.deadlines.queue;
                    queue.retain(|_, due| matches!(due, Due::Bounce { .. }));
                    self.app.on_crash();
                }
                Input::Recover if !self.up => {
                    self.up = true;
                    self.run(|app, ctx| app.on_start(ctx));
                }
                Input::Msg { from, msg } if self.up => {
                    self.run(|app, ctx| app.on_message(ctx, from, msg));
                }
                Input::Msg { from: sender, msg } => {
                    // The host bounces on behalf of the dead node after
                    // the RPC notice delay.
                    let (at, to) = (Instant::now() + self.shared.fail_notice, self.me);
                    self.deadlines.push(at, Due::Bounce { sender, to, msg });
                }
                Input::CallFailed { to, msg } if self.up => {
                    self.run(|app, ctx| app.on_call_failed(ctx, to, msg));
                }
                Input::External(ext) if self.up => {
                    self.run(|app, ctx| app.on_external(ctx, ext));
                }
                Input::Crash | Input::Recover | Input::CallFailed { .. } | Input::External(_) => {}
            }
        }
        self
    }

    /// Fires every due queue entry, then waits for the next input until
    /// the earliest deadline (or for good, when the queue is empty).
    fn next_input(&mut self, inbox: &Receiver<Input<A>>) -> Option<Input<A>> {
        loop {
            let Some(head) = self.deadlines.queue.first_entry() else {
                return inbox.recv().ok();
            };
            let (at, now) = (head.key().0, Instant::now());
            if at > now {
                match inbox.recv_timeout(at - now) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    received => return received.ok(),
                }
            }
            match head.remove() {
                Due::Timer { id, timer } => {
                    self.deadlines.timers.remove(&id);
                    self.run(|app, ctx| app.on_timer(ctx, timer));
                }
                Due::Bounce { sender, to, msg } => {
                    self.shared
                        .send_input(sender, Input::CallFailed { to, msg });
                }
            }
        }
    }

    /// Runs one application callback, then applies its effects: sends
    /// become channel deliveries (or bounces), timers enter the deadline
    /// queue, outputs go to the output channel. One clock reading serves
    /// the callback's `Ctx::now` and every deadline it arms.
    fn run(&mut self, f: impl FnOnce(&mut A, &mut Ctx<'_, A>)) {
        let (shared, me, now) = (&self.shared, self.me, Instant::now());
        {
            let mut ctx = Ctx {
                me,
                now: SimTime(now.duration_since(shared.started).as_micros() as u64),
                rng: &mut self.rng,
                effects: &mut self.effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(&mut self.app, &mut ctx);
        }
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => match shared.inboxes.get(to.index()) {
                    Some(tx) => {
                        let _ = tx.send(Input::Msg { from: me, msg });
                    }
                    None => {
                        let (at, sender) = (now + shared.fail_notice, me);
                        self.deadlines.push(at, Due::Bounce { sender, to, msg });
                    }
                },
                Effect::SetTimer { id, delay, timer } => {
                    let at = now + Duration::from_micros(delay.micros());
                    self.deadlines.arm(at, id, timer);
                }
                Effect::CancelTimer { id } => self.deadlines.cancel(id),
                Effect::Output(out) => {
                    let _ = self.out_tx.send((me, out));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Minimal ping-counting app.
    #[derive(Default)]
    struct Counter {
        pings: u64,
        durable: u64,
    }

    #[derive(Clone, Debug)]
    enum M {
        Ping,
        Pong,
    }

    impl Application for Counter {
        type Msg = M;
        type Timer = ();
        type External = NodeId; // "ping this node"
        type Output = u64;

        fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}
        fn on_crash(&mut self) {
            self.pings = 0; // volatile
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: M) {
            match msg {
                M::Ping => ctx.send(from, M::Pong),
                M::Pong => {
                    self.pings += 1;
                    self.durable += 1;
                    ctx.output(self.pings);
                }
            }
        }
        fn on_call_failed(&mut self, ctx: &mut Ctx<'_, Self>, _to: NodeId, _msg: M) {
            ctx.output(u64::MAX); // bounce marker
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _t: ()) {}
        fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, target: NodeId) {
            ctx.send(target, M::Ping);
        }
    }

    /// Arms timers on command and reports each one that fires. Its only
    /// messages are to itself.
    #[derive(Default)]
    struct Alarm {
        spins: u64,
        fired: bool,
    }

    #[derive(Debug)]
    enum Cmd {
        /// Arm a timer of this many ms.
        Arm(u64),
        /// Arm this many timers of this many ms, cancelling each at once.
        ArmCancel(u32, u64),
        /// Keep a message to self in the inbox until a timer fires.
        Spin,
    }

    impl Application for Alarm {
        type Msg = ();
        type Timer = u64;
        type External = Cmd;
        type Output = u64; // 0 = armed, else the delay of the timer that fired

        fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}
        fn on_crash(&mut self) {}
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: ()) {
            if !self.fired {
                self.spins += 1;
                ctx.send(ctx.me(), ());
            }
        }
        fn on_call_failed(&mut self, _ctx: &mut Ctx<'_, Self>, _to: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, ms: u64) {
            self.fired = true;
            ctx.output(ms);
        }
        fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, cmd: Cmd) {
            match cmd {
                Cmd::Arm(ms) => {
                    ctx.set_timer(SimDuration::from_millis(ms), ms);
                    ctx.output(0);
                }
                Cmd::ArmCancel(n, ms) => {
                    for _ in 0..n {
                        let id = ctx.set_timer(SimDuration::from_millis(ms), ms);
                        ctx.cancel_timer(id);
                    }
                }
                Cmd::Spin => ctx.send(ctx.me(), ()),
            }
        }
    }

    fn alarm() -> ThreadedRuntime<Alarm> {
        ThreadedRuntime::spawn(1, 4, Duration::from_millis(10), |_| Alarm::default())
    }

    fn next(rt: &ThreadedRuntime<Alarm>) -> Option<u64> {
        rt.recv_output(Duration::from_secs(5)).map(|(_, out)| out)
    }

    /// This process's thread count (0 where procfs is missing).
    fn threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let count = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        count.map_or(0, |c| c.trim().parse().expect("a thread count"))
    }

    #[test]
    fn earlier_timer_armed_later_fires_first() {
        let rt = alarm();
        let armed_long = Instant::now();
        rt.inject(NodeId(0), Cmd::Arm(500));
        assert_eq!(next(&rt), Some(0), "long timer armed");
        // Let the node thread block on the 500 ms deadline, so the short
        // timer's command arrives while it waits. (If it has not blocked
        // yet the assertions below still hold; the sleep only makes the
        // interesting interleaving the likely one.)
        std::thread::sleep(Duration::from_millis(50));
        rt.inject(NodeId(0), Cmd::Arm(20));
        assert_eq!(next(&rt), Some(0), "short timer armed");
        assert_eq!(next(&rt), Some(20), "the earlier-due timer fires first");
        // A thread that kept waiting for the long deadline would deliver
        // both then, in this same order — so the short one must arrive
        // clearly ahead of it (~70 ms after the long timer was armed).
        let waited = armed_long.elapsed().as_millis();
        assert!(waited < 400, "fired after {waited} ms");
        assert_eq!(next(&rt), Some(500));
        rt.shutdown();
    }

    #[test]
    fn cancelled_timers_leave_the_queue_and_never_fire() {
        let rt = alarm();
        // 10 000 pairs: the 1 ms half would fire at once if left armed,
        // the one-hour half would outlast the test in the queue.
        rt.inject(NodeId(0), Cmd::ArmCancel(5_000, 1));
        rt.inject(NodeId(0), Cmd::ArmCancel(5_000, 3_600_000));
        rt.inject(NodeId(0), Cmd::Arm(20));
        assert_eq!(next(&rt), Some(0));
        assert_eq!(next(&rt), Some(20), "only the timer left armed fires");
        let nodes = rt.stop();
        let deadlines = &nodes[0].deadlines;
        assert!(deadlines.queue.is_empty() && deadlines.timers.is_empty());
    }

    #[test]
    fn a_timer_armed_before_a_crash_never_fires_after_recovery() {
        let rt = alarm();
        rt.inject(NodeId(0), Cmd::Arm(30));
        rt.crash(NodeId(0));
        rt.recover(NodeId(0));
        rt.inject(NodeId(0), Cmd::Arm(100));
        assert_eq!((next(&rt), next(&rt)), (Some(0), Some(0)));
        assert_eq!(next(&rt), Some(100), "the 30 ms timer died with the crash");
        rt.shutdown();
    }

    #[test]
    fn a_due_timer_fires_while_the_inbox_stays_busy() {
        let rt = alarm();
        rt.inject(NodeId(0), Cmd::Arm(20));
        // From here until the timer fires, every message the node takes
        // puts the next one in its inbox.
        rt.inject(NodeId(0), Cmd::Spin);
        assert_eq!((next(&rt), next(&rt)), (Some(0), Some(20)));
        assert!(rt.shutdown()[0].spins > 0, "the inbox was busy meanwhile");
    }

    #[test]
    fn round_trips_over_real_threads() {
        let rt = ThreadedRuntime::spawn(2, 1, Duration::from_millis(20), |_| Counter::default());
        for _ in 0..5 {
            rt.inject(NodeId(0), NodeId(1));
        }
        for _ in 0..5 {
            let pong = rt.recv_output(Duration::from_secs(5));
            let (node, count) = pong.expect("pong within 5s");
            assert_eq!(node, NodeId(0));
            assert!(count <= 5);
        }
        assert_eq!(rt.shutdown()[0].durable, 5);
    }

    #[test]
    fn down_nodes_bounce_call_failed() {
        let notice = Duration::from_millis(200);
        let rt = ThreadedRuntime::spawn(2, 2, notice, |_| Counter::default());
        rt.crash(NodeId(1));
        let (before, sent) = (threads(), Instant::now());
        for _ in 0..200 {
            rt.inject(NodeId(0), NodeId(1));
        }
        std::thread::sleep(notice / 2);
        // Every bounce is owed now, in node 1's queue. Other tests may start
        // a runtime meanwhile (a few threads); a thread per bounce adds 200.
        let during = threads();
        assert!(during < before + 50, "{before} threads, then {during}");
        for _ in 0..200 {
            let bounce = rt.recv_output(Duration::from_secs(5));
            assert_eq!(bounce, Some((NodeId(0), u64::MAX)));
            assert!(sent.elapsed() >= notice, "a bounce came before the notice");
        }
        rt.shutdown();
    }

    #[test]
    fn crash_wipes_volatile_and_recover_restarts() {
        let rt = ThreadedRuntime::spawn(2, 3, Duration::from_millis(10), |_| Counter::default());
        rt.inject(NodeId(0), NodeId(1));
        assert!(rt.recv_output(Duration::from_secs(5)).is_some());
        rt.crash(NodeId(0));
        rt.recover(NodeId(0));
        rt.inject(NodeId(0), NodeId(1));
        let (_, count) = rt.recv_output(Duration::from_secs(5)).expect("pong");
        assert_eq!(count, 1, "volatile counter must restart at zero");
        assert_eq!(
            rt.shutdown()[0].durable,
            2,
            "durable counter survives the crash"
        );
    }
}
