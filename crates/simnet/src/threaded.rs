//! A real-thread runtime for [`Node`]s.
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
//! Each node thread is its own event loop. It feeds its node one [`Event`]
//! at a time and applies the returned [`Effect`]s. It owns a deadline
//! queue of its node's armed timers and the `CallFailed` bounces it owes,
//! and waits on its inbox only until the earliest of them is due. Every
//! due entry fires before the next inbox message is taken, so a busy inbox
//! cannot starve a timer. Cancelling a timer removes its entry; a crash
//! drops the node's timers but not the bounces it owes. A runtime of `n`
//! nodes runs `n` threads and no others.

#![expect(
    clippy::disallowed_methods,
    reason = "this runtime is the real host: wall clocks are its whole point, and its runs are irreproducible by design"
)]

use crate::node::{Effect, Event, Node};
use coterie_base::{SimTime, TimerId};
use coterie_quorum::NodeId;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a node thread's inbox carries: an event for its node, or `None`,
/// which stops the thread. A recovery arrives as [`Event::Start`].
type Inbox<N> = Option<Event<N>>;

/// What a node's deadline queue holds.
enum Due<N: Node> {
    /// One of the node's own timers.
    Timer { id: TimerId, timer: N::Timer },
    /// A `CallFailed` this node owes `sender` for its `msg` to `to`.
    Bounce {
        sender: NodeId,
        to: NodeId,
        msg: N::Msg,
    },
}

/// A queue position: the deadline, then arming order among equal deadlines.
type Key = (Instant, u64);

/// One node's deadline queue, with an index from timer id to queue key so
/// that a cancel removes the entry instead of leaving it to come due.
struct Deadlines<N: Node> {
    queue: BTreeMap<Key, Due<N>>,
    timers: BTreeMap<TimerId, Key>,
    seq: u64,
}

impl<N: Node> Deadlines<N> {
    fn push(&mut self, at: Instant, due: Due<N>) -> Key {
        self.seq += 1;
        self.queue.insert((at, self.seq), due);
        (at, self.seq)
    }

    /// Arms timer `id`, which must not be live already.
    fn arm(&mut self, at: Instant, id: TimerId, timer: N::Timer) {
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
struct Shared<N: Node> {
    inboxes: Vec<Sender<Inbox<N>>>,
    fail_notice: Duration,
    started: Instant,
}

impl<N: Node> Shared<N> {
    fn send_event(&self, to: NodeId, event: Event<N>) {
        if let Some(tx) = self.inboxes.get(to.index()) {
            let _ = tx.send(Some(event));
        }
    }
}

/// The real-thread runtime. Create with [`ThreadedRuntime::spawn`], interact
/// through the handle, and call [`shutdown`](ThreadedRuntime::shutdown) to
/// join every node thread.
pub struct ThreadedRuntime<N: Node + Send + 'static>
where
    N::Msg: Send,
    N::Timer: Send,
    N::External: Send,
    N::Output: Send,
{
    shared: Arc<Shared<N>>,
    outputs: Receiver<(NodeId, N::Output)>,
    node_handles: Vec<JoinHandle<NodeThread<N>>>,
}

impl<N: Node + Send + 'static> ThreadedRuntime<N>
where
    N::Msg: Send,
    N::Timer: Send,
    N::External: Send,
    N::Output: Send,
{
    /// Spawns `n` nodes built by `make_node`, each on its own thread.
    /// `fail_notice` is the delay before a sender learns a message to a
    /// down or nonexistent node could not be delivered. The runtime draws
    /// no randomness, so `_seed` is unused.
    pub fn spawn(
        n: usize,
        _seed: u64,
        fail_notice: Duration,
        mut make_node: impl FnMut(NodeId) -> N,
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
                    deadlines: Deadlines {
                        queue: BTreeMap::new(),
                        timers: BTreeMap::new(),
                        seq: 0,
                    },
                    node: make_node(me),
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
    pub fn inject(&self, node: NodeId, ext: N::External) {
        self.shared.send_event(node, Event::External(ext));
    }

    /// Crashes `node` (volatile state wiped, messages bounce).
    pub fn crash(&self, node: NodeId) {
        self.shared.send_event(node, Event::Crash);
    }

    /// Recovers `node`.
    pub fn recover(&self, node: NodeId) {
        self.shared.send_event(node, Event::Start);
    }

    /// Receives the next output, waiting up to `timeout`.
    pub fn recv_output(&self, timeout: Duration) -> Option<(NodeId, N::Output)> {
        self.outputs.recv_timeout(timeout).ok()
    }

    /// Drains all currently available outputs.
    pub fn drain_outputs(&self) -> Vec<(NodeId, N::Output)> {
        self.outputs.try_iter().collect()
    }

    /// Stops every node and joins all threads, returning the final node
    /// states in id order.
    pub fn shutdown(self) -> Vec<N> {
        self.stop().into_iter().map(|thread| thread.node).collect()
    }

    #[expect(clippy::expect_used, reason = "join fails only if the node panicked")]
    fn stop(self) -> Vec<NodeThread<N>> {
        for tx in &self.shared.inboxes {
            let _ = tx.send(None);
        }
        self.node_handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    }
}

/// One node's thread: its node, its deadline queue, and where its effects
/// go.
struct NodeThread<N: Node> {
    shared: Arc<Shared<N>>,
    out_tx: Sender<(NodeId, N::Output)>,
    me: NodeId,
    up: bool,
    deadlines: Deadlines<N>,
    node: N,
}

impl<N: Node> NodeThread<N> {
    /// The node's event loop, until it is stopped or its inbox closes.
    fn serve(mut self, inbox: Receiver<Inbox<N>>) -> Self {
        self.run(Event::Start);
        while let Some(event) = self.next_event(&inbox) {
            match event {
                Event::Start if !self.up => {
                    self.up = true;
                    self.run(Event::Start);
                }
                Event::Crash if self.up => {
                    self.up = false;
                    self.deadlines.timers.clear();
                    let queue = &mut self.deadlines.queue;
                    queue.retain(|_, due| matches!(due, Due::Bounce { .. }));
                    // A down node does nothing: what its crash step asks
                    // for is dropped with its timers.
                    let _ = self.node.step(self.sim_time(Instant::now()), Event::Crash);
                }
                Event::Message { from: sender, msg } if !self.up => {
                    // The host bounces on behalf of the dead node after
                    // the RPC notice delay.
                    let (at, to) = (Instant::now() + self.shared.fail_notice, self.me);
                    self.deadlines.push(at, Due::Bounce { sender, to, msg });
                }
                Event::Start | Event::Crash => {} // already up, already down
                event if self.up => self.run(event),
                _ => {} // a down node takes nothing else
            }
        }
        self
    }

    /// Fires every due queue entry, then waits for the next event until
    /// the earliest deadline (or for good, when the queue is empty).
    fn next_event(&mut self, inbox: &Receiver<Inbox<N>>) -> Option<Event<N>> {
        loop {
            let Some(head) = self.deadlines.queue.first_entry() else {
                return inbox.recv().ok().flatten();
            };
            let (at, now) = (head.key().0, Instant::now());
            if at > now {
                match inbox.recv_timeout(at - now) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    received => return received.ok().flatten(),
                }
            }
            match head.remove() {
                Due::Timer { id, timer } => {
                    self.deadlines.timers.remove(&id);
                    self.run(Event::Timer(timer));
                }
                Due::Bounce { sender, to, msg } => {
                    self.shared
                        .send_event(sender, Event::CallFailed { to, msg });
                }
            }
        }
    }

    /// `at` on the runtime's clock.
    fn sim_time(&self, at: Instant) -> SimTime {
        SimTime(at.duration_since(self.shared.started).as_micros() as u64)
    }

    /// Feeds the node one event, then applies the effects it returns:
    /// sends become channel deliveries (or bounces), timers enter the
    /// deadline queue, outputs go to the output channel. One clock reading
    /// serves the step's `now` and every deadline it arms.
    fn run(&mut self, event: Event<N>) {
        let (me, now) = (self.me, Instant::now());
        for effect in self.node.step(self.sim_time(now), event) {
            match effect {
                Effect::Send { to, msg } => match self.shared.inboxes.get(to.index()) {
                    Some(tx) => {
                        let _ = tx.send(Some(Event::Message { from: me, msg }));
                    }
                    None => {
                        let (at, sender) = (now + self.shared.fail_notice, me);
                        self.deadlines.push(at, Due::Bounce { sender, to, msg });
                    }
                },
                Effect::SetTimer { id, delay, timer } => {
                    let at = now + Duration::from_micros(delay.micros());
                    self.deadlines.arm(at, id, timer);
                }
                Effect::CancelTimer(id) => self.deadlines.cancel(id),
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
    use coterie_base::SimDuration;

    /// Minimal ping-counting node.
    #[derive(Default)]
    struct Counter {
        pings: u64,
        durable: u64,
    }

    enum M {
        Ping,
        Pong,
    }

    impl Node for Counter {
        type Msg = M;
        type Timer = ();
        type External = NodeId; // "ping this node"
        type Output = u64;

        fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
            match event {
                Event::External(to) => vec![Effect::Send { to, msg: M::Ping }],
                Event::Message { from, msg: M::Ping } => vec![Effect::Send {
                    to: from,
                    msg: M::Pong,
                }],
                Event::Message { msg: M::Pong, .. } => {
                    self.pings += 1;
                    self.durable += 1;
                    vec![Effect::Output(self.pings)]
                }
                Event::CallFailed { .. } => vec![Effect::Output(u64::MAX)], // bounce marker
                Event::Crash => {
                    self.pings = 0; // volatile
                    Vec::new()
                }
                Event::Start | Event::Timer(()) => Vec::new(),
            }
        }
    }

    /// Arms timers on command and reports each one that fires. Its only
    /// messages are to itself.
    #[derive(Default)]
    struct Alarm {
        spins: u64,
        fired: bool,
        last_timer: u64,
    }

    enum Cmd {
        /// Arm a timer of this many ms.
        Arm(u64),
        /// Arm this many timers of this many ms, cancelling each at once.
        ArmCancel(u32, u64),
        /// Keep a message to self in the inbox until a timer fires.
        Spin,
    }

    impl Alarm {
        fn arm(&mut self, ms: u64) -> Effect<Self> {
            self.last_timer += 1;
            let (id, delay) = (TimerId(self.last_timer), SimDuration::from_millis(ms));
            Effect::SetTimer {
                id,
                delay,
                timer: ms,
            }
        }
    }

    impl Node for Alarm {
        type Msg = ();
        type Timer = u64;
        type External = Cmd;
        type Output = u64; // 0 = armed, else the delay of the timer that fired

        fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
            let to_self = Effect::Send {
                to: NodeId(0),
                msg: (),
            };
            match event {
                Event::Message { .. } if !self.fired => {
                    self.spins += 1;
                    vec![to_self]
                }
                Event::Timer(ms) => {
                    self.fired = true;
                    vec![Effect::Output(ms)]
                }
                Event::External(Cmd::Arm(ms)) => vec![self.arm(ms), Effect::Output(0)],
                Event::External(Cmd::ArmCancel(n, ms)) => (0..n)
                    .flat_map(|_| [self.arm(ms), Effect::CancelTimer(TimerId(self.last_timer))])
                    .collect(),
                Event::External(Cmd::Spin) => vec![to_self],
                _ => Vec::new(),
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
