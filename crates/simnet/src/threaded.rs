//! A real-thread runtime for [`Application`] nodes.
//!
//! The deterministic `coterie_core::StepDriver` is the measurement
//! substrate; this module hosts the protocol on OS threads with crossbeam
//! channels and wall-clock timers, demonstrating that the implementation is
//! not simulator-bound. Message delivery, the `RPC.CallFailed` bounce for
//! down nodes, timers with cancellation, crash (volatile-state wipe) and
//! recovery all behave like the driver's — except that time is real and
//! scheduling is whatever the OS provides, so runs are *not* reproducible
//! (use the driver for experiments).

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this runtime is the real host: wall clocks and OS bookkeeping are its whole point, and its runs are irreproducible by design"
)]

use crate::app::{Application, Ctx, Effect, TimerId};
use crate::time::{SimDuration, SimTime};
use coterie_quorum::NodeId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Inputs delivered to a node thread.
enum Input<A: Application> {
    Msg { from: NodeId, msg: A::Msg },
    CallFailed { to: NodeId, msg: A::Msg },
    Timer { boot: u64, timer: A::Timer },
    External(A::External),
    Crash,
    Recover,
    Stop,
}

/// A timer queue entry (min-heap by deadline).
struct Pending<A: Application> {
    at: Instant,
    node: NodeId,
    boot: u64,
    id: TimerId,
    timer: A::Timer,
}

impl<A: Application> PartialEq for Pending<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<A: Application> Eq for Pending<A> {}
impl<A: Application> PartialOrd for Pending<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Application> Ord for Pending<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

struct TimerService<A: Application> {
    heap: Mutex<BinaryHeap<Pending<A>>>,
    /// Canceled timers, keyed by `(node, id)`: timer ids are allocated per
    /// node thread, so the bare id is not unique across nodes.
    canceled: Mutex<HashSet<(NodeId, TimerId)>>,
    wake: Condvar,
    stopping: AtomicBool,
}

/// Shared state between node threads and the runtime handle.
struct Shared<A: Application> {
    inboxes: Vec<Sender<Input<A>>>,
    up: Vec<AtomicBool>,
    timers: TimerService<A>,
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
/// through the handle, and call [`shutdown`](ThreadedRuntime::shutdown) (or
/// drop) to join all threads.
pub struct ThreadedRuntime<A: Application + Send + 'static>
where
    A::Msg: Send,
    A::Timer: Send,
    A::External: Send,
    A::Output: Send,
{
    shared: Arc<Shared<A>>,
    outputs: Receiver<(NodeId, A::Output)>,
    node_handles: Vec<JoinHandle<A>>,
    timer_handle: Option<JoinHandle<()>>,
}

impl<A: Application + Send + 'static> ThreadedRuntime<A>
where
    A::Msg: Send,
    A::Timer: Send,
    A::External: Send,
    A::Output: Send,
{
    /// Spawns `n` nodes built by `make_node`, each on its own thread, plus a
    /// timer thread. `fail_notice` is the delay before a sender learns a
    /// message to a down node could not be delivered.
    pub fn spawn(
        n: usize,
        seed: u64,
        fail_notice: Duration,
        mut make_node: impl FnMut(NodeId) -> A,
    ) -> Self {
        let (out_tx, out_rx) = unbounded();
        let mut inbox_txs = Vec::with_capacity(n);
        let mut inbox_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Input<A>>();
            inbox_txs.push(tx);
            inbox_rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            inboxes: inbox_txs,
            up: (0..n).map(|_| AtomicBool::new(true)).collect(),
            timers: TimerService {
                heap: Mutex::new(BinaryHeap::new()),
                canceled: Mutex::new(HashSet::new()),
                wake: Condvar::new(),
                stopping: AtomicBool::new(false),
            },
            fail_notice,
            started: Instant::now(),
        });

        // Timer thread: sleeps until the earliest deadline, then routes the
        // timer back to its node's inbox.
        let timer_shared = shared.clone();
        let timer_handle = std::thread::spawn(move || loop {
            let mut heap = timer_shared.timers.heap.lock();
            if timer_shared.timers.stopping.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            match heap.peek().map(|p| p.at) {
                Some(at) if at <= now => {
                    #[expect(
                        clippy::expect_used,
                        reason = "peek returned Some under the same lock"
                    )]
                    let p = heap.pop().expect("peeked");
                    drop(heap);
                    let canceled = timer_shared.timers.canceled.lock().remove(&(p.node, p.id));
                    if !canceled {
                        timer_shared.send_input(
                            p.node,
                            Input::Timer {
                                boot: p.boot,
                                timer: p.timer,
                            },
                        );
                    }
                }
                Some(at) => {
                    timer_shared.timers.wake.wait_until(&mut heap, at);
                }
                None => {
                    timer_shared.timers.wake.wait(&mut heap);
                }
            }
        });

        // Node threads.
        let mut node_handles = Vec::with_capacity(n);
        for (i, rx) in inbox_rxs.into_iter().enumerate() {
            let me = NodeId(i as u32);
            let app = make_node(me);
            let shared = shared.clone();
            let out_tx = out_tx.clone();
            let handle = std::thread::spawn(move || {
                let mut node = NodeThread {
                    shared,
                    out_tx,
                    me,
                    boot: 0,
                    rng: StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37)),
                    next_timer_id: 1,
                    effects: Vec::new(),
                    app,
                };
                node.run(|app, ctx| app.on_start(ctx));
                loop {
                    let Ok(input) = rx.recv() else { break };
                    let up = node.up();
                    match input {
                        Input::Stop => break,
                        Input::Crash => {
                            if up {
                                node.set_up(false);
                                node.boot += 1;
                                node.app.on_crash();
                            }
                        }
                        Input::Recover => {
                            if !up {
                                node.set_up(true);
                                node.run(|app, ctx| app.on_start(ctx));
                            }
                        }
                        Input::Msg { from, msg } => {
                            if up {
                                node.run(|app, ctx| app.on_message(ctx, from, msg));
                            } else {
                                // The host bounces on behalf of the dead
                                // node after the RPC notice delay.
                                schedule_bounce(&node.shared, from, me, msg);
                            }
                        }
                        Input::CallFailed { to, msg } => {
                            if up {
                                node.run(|app, ctx| app.on_call_failed(ctx, to, msg));
                            }
                        }
                        Input::Timer { boot, timer } => {
                            if up && boot == node.boot {
                                node.run(|app, ctx| app.on_timer(ctx, timer));
                            }
                        }
                        Input::External(ext) => {
                            if up {
                                node.run(|app, ctx| app.on_external(ctx, ext));
                            }
                        }
                    }
                }
                node.app
            });
            node_handles.push(handle);
        }

        ThreadedRuntime {
            shared,
            outputs: out_rx,
            node_handles,
            timer_handle: Some(timer_handle),
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
    pub fn shutdown(mut self) -> Vec<A> {
        for tx in &self.shared.inboxes {
            let _ = tx.send(Input::Stop);
        }
        #[expect(clippy::expect_used, reason = "join fails only if the node panicked")]
        let apps: Vec<A> = self
            .node_handles
            .drain(..)
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        self.shared.timers.stopping.store(true, Ordering::Release);
        self.shared.timers.wake.notify_all();
        if let Some(h) = self.timer_handle.take() {
            let _ = h.join();
        }
        apps
    }
}

/// Schedules a `CallFailed` bounce back to `sender` after the notice delay.
fn schedule_bounce<A: Application + 'static>(
    shared: &Arc<Shared<A>>,
    sender: NodeId,
    to: NodeId,
    msg: A::Msg,
) where
    A::Msg: Send,
    A::Timer: Send,
    A::External: Send,
{
    // Reuse the timer heap with a synthetic timer id of 0 is not possible
    // (payload type differs), so bounce on a helper thread-free path: a
    // small sleep on the timer heap would need A::Timer. Instead, spawn the
    // bounce through the channel after sleeping on a detached thread would
    // cost a thread per bounce; in practice the notice delay is tens of
    // milliseconds and bounces are rare, so a detached thread is acceptable
    // and keeps the design simple.
    let shared = shared.clone();
    let delay = shared.fail_notice;
    std::thread::spawn(move || {
        std::thread::sleep(delay);
        shared.send_input(sender, Input::CallFailed { to, msg });
    });
}

/// One node's thread: its application, and what a callback on it needs.
struct NodeThread<A: Application> {
    shared: Arc<Shared<A>>,
    out_tx: Sender<(NodeId, A::Output)>,
    me: NodeId,
    /// Incarnation: bumped by each crash, so a timer armed before it is
    /// dropped when it fires.
    boot: u64,
    rng: StdRng,
    next_timer_id: u64,
    effects: Vec<Effect<A>>,
    app: A,
}

impl<A: Application + 'static> NodeThread<A>
where
    A::Msg: Send,
    A::Timer: Send,
    A::External: Send,
{
    fn up(&self) -> bool {
        self.shared.up[self.me.index()].load(Ordering::Acquire)
    }

    fn set_up(&self, up: bool) {
        self.shared.up[self.me.index()].store(up, Ordering::Release);
    }

    /// Runs one application callback, then applies its effects: sends
    /// become channel deliveries (or bounces), timers go to the timer
    /// service, outputs go to the output channel.
    fn run(&mut self, f: impl FnOnce(&mut A, &mut Ctx<'_, A>)) {
        let (shared, me) = (&self.shared, self.me);
        let now = SimTime(shared.started.elapsed().as_micros() as u64);
        {
            let mut ctx = Ctx {
                me,
                now,
                rng: &mut self.rng,
                effects: &mut self.effects,
                next_timer_id: &mut self.next_timer_id,
            };
            f(&mut self.app, &mut ctx);
        }
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    if to.index() < shared.inboxes.len() {
                        shared.send_input(to, Input::Msg { from: me, msg });
                    } else {
                        schedule_bounce(shared, me, to, msg);
                    }
                }
                Effect::SetTimer { id, delay, timer } => {
                    let at = Instant::now() + to_std(delay);
                    let mut heap = shared.timers.heap.lock();
                    // The timer thread sleeps until the head's deadline, so
                    // only a new earliest deadline changes what it is waiting
                    // for; behind the head there is nothing to re-discover.
                    let new_head = heap.peek().is_none_or(|head| at < head.at);
                    heap.push(Pending {
                        at,
                        node: me,
                        boot: self.boot,
                        id,
                        timer,
                    });
                    drop(heap);
                    if new_head {
                        shared.timers.wake.notify_all();
                    }
                }
                Effect::CancelTimer { id } => {
                    shared.timers.canceled.lock().insert((me, id));
                }
                Effect::Output(out) => {
                    let _ = self.out_tx.send((me, out));
                }
            }
        }
    }
}

fn to_std(d: SimDuration) -> Duration {
    Duration::from_micros(d.micros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;

    /// Minimal ping-counting app.
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

    /// Arms a timer of `External` milliseconds and reports it when it fires.
    struct Alarm;

    impl Application for Alarm {
        type Msg = ();
        type Timer = u64;
        type External = u64;
        type Output = u64; // 0 = armed, else the delay of the timer that fired

        fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}
        fn on_crash(&mut self) {}
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: ()) {}
        fn on_call_failed(&mut self, _ctx: &mut Ctx<'_, Self>, _to: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, ms: u64) {
            ctx.output(ms);
        }
        fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, ms: u64) {
            ctx.set_timer(SimDuration::from_millis(ms), ms);
            ctx.output(0);
        }
    }

    #[test]
    fn earlier_timer_armed_later_still_wakes_the_timer_thread() {
        let rt = ThreadedRuntime::spawn(1, 4, Duration::from_millis(10), |_| Alarm);
        let next = || rt.recv_output(Duration::from_secs(5)).map(|(_, out)| out);
        let armed_long = Instant::now();
        rt.inject(NodeId(0), 500);
        assert_eq!(next(), Some(0), "long timer armed");
        // Let the timer thread park on the 500 ms deadline, so the short
        // timer takes the branch that must wake it. (If it has not parked
        // yet the assertions below still hold; the sleep only makes the
        // interesting interleaving the likely one.)
        std::thread::sleep(Duration::from_millis(50));
        rt.inject(NodeId(0), 20);
        assert_eq!(next(), Some(0), "short timer armed");
        assert_eq!(next(), Some(20), "the earlier-due timer fires first");
        // Un-woken, the timer thread sleeps out the long deadline and
        // delivers both then, in this same order — so the proof of the wake
        // is that the short one arrived clearly ahead of that deadline
        // (~70 ms after the long timer was armed, never 500).
        let waited = armed_long.elapsed();
        assert!(
            waited < Duration::from_millis(400),
            "fired after {waited:?}"
        );
        assert_eq!(next(), Some(500));
        rt.shutdown();
    }

    #[test]
    fn round_trips_over_real_threads() {
        let rt = ThreadedRuntime::spawn(2, 1, Duration::from_millis(20), |_| Counter {
            pings: 0,
            durable: 0,
        });
        for _ in 0..5 {
            rt.inject(NodeId(0), NodeId(1));
        }
        let mut seen = 0;
        while seen < 5 {
            let (node, count) = rt
                .recv_output(Duration::from_secs(5))
                .expect("pong within 5s");
            assert_eq!(node, NodeId(0));
            assert!(count <= 5);
            seen += 1;
        }
        let apps = rt.shutdown();
        assert_eq!(apps[0].durable, 5);
    }

    #[test]
    fn down_nodes_bounce_call_failed() {
        let rt = ThreadedRuntime::spawn(2, 2, Duration::from_millis(10), |_| Counter {
            pings: 0,
            durable: 0,
        });
        rt.crash(NodeId(1));
        std::thread::sleep(Duration::from_millis(50));
        rt.inject(NodeId(0), NodeId(1));
        let (node, marker) = rt
            .recv_output(Duration::from_secs(5))
            .expect("bounce within 5s");
        assert_eq!(node, NodeId(0));
        assert_eq!(marker, u64::MAX);
        rt.shutdown();
    }

    #[test]
    fn crash_wipes_volatile_and_recover_restarts() {
        let rt = ThreadedRuntime::spawn(2, 3, Duration::from_millis(10), |_| Counter {
            pings: 0,
            durable: 0,
        });
        rt.inject(NodeId(0), NodeId(1));
        assert!(rt.recv_output(Duration::from_secs(5)).is_some());
        rt.crash(NodeId(0));
        rt.recover(NodeId(0));
        rt.inject(NodeId(0), NodeId(1));
        let (_, count) = rt.recv_output(Duration::from_secs(5)).expect("pong");
        assert_eq!(count, 1, "volatile counter must restart at zero");
        let apps = rt.shutdown();
        assert_eq!(apps[0].durable, 2, "durable counter survives the crash");
    }
}
