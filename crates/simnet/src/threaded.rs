//! A real-thread runtime for [`Node`]s on the wall clock: delivery, the
//! `CallFailed` bounce, timers, crash and recovery behave as under the
//! deterministic `coterie_core::StepDriver`, but runs are not reproducible.
//!
//! Nodes are actors stepped by `n` workers and by any thread waiting in
//! [`ThreadedRuntime::recv_output`] (tokio's `block_on`), one [`Event`] at a
//! time outside the one scheduler lock; no two threads step one node, so one
//! sender's messages arrive in order. An idle worker is woken only for a
//! deadline no sleeper waits for, or for queued work while each busy thread
//! is inside [`blocking`] (Go's `entersyscall` hand-off), so a lone
//! operation runs on the thread that waits for it.

#![expect(
    clippy::disallowed_methods,
    reason = "this runtime is the real host: wall clocks are its whole point, and its runs are irreproducible by design"
)]

use crate::node::{Effect, Event, Node};
use coterie_base::{SimTime, TimerId};
use coterie_quorum::NodeId;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A deadline's event for node `.0`: a [`Event::Timer`] (its timer `.1`) or a bounce.
type Due<N> = (usize, Option<TimerId>, Event<N>);

/// One node's place in the scheduler: the node (`None` while a thread
/// steps it), its mailbox (its due timers, then its mail), and whether it is
/// up. A node is queued to run while it has mail and is not being stepped.
struct Slot<N: Node> {
    node: Option<Box<N>>,
    mailbox: VecDeque<Event<N>>,
    up: bool,
}

/// The scheduler, shared by the workers and the runtime handle.
struct Sched<N: Node> {
    slots: Vec<Slot<N>>,
    /// Nodes with mail and no thread stepping them, in the order they got it.
    runnable: VecDeque<usize>,
    /// Due events by deadline, then arming order; where each timer sits.
    deadlines: BTreeMap<(Instant, u64), Due<N>>,
    timers: BTreeMap<(usize, TimerId), (Instant, u64)>,
    seq: u64,
    outputs: VecDeque<(NodeId, N::Output)>,
    /// Workers and callers asleep; threads stepping (neither asleep nor in
    /// [`blocking`]); whether a woken worker is on its way; its deadline.
    idle: usize,
    callers: usize,
    stepping: usize,
    waking: bool,
    timed: Option<Instant>,
    stop: bool,
}

impl<N: Node> Sched<N> {
    /// Queues `event` for node `i`: a due timer ahead of its mail, the rest last.
    fn post(&mut self, i: usize, event: Event<N>) {
        let slot = &mut self.slots[i];
        if slot.node.is_some() && slot.mailbox.is_empty() {
            self.runnable.push_back(i);
        }
        if let Event::Timer(_) = event {
            let timer = |e: &&Event<N>| matches!(e, Event::Timer(_));
            let fired = slot.mailbox.iter().take_while(timer).count();
            slot.mailbox.insert(fired, event);
        } else {
            slot.mailbox.push_back(event);
        }
    }

    fn push(&mut self, at: Instant, due: Due<N>) -> (Instant, u64) {
        self.seq += 1;
        self.deadlines.insert((at, self.seq), due);
        (at, self.seq)
    }

    /// Wakes an idle worker if work is queued and no thread is stepping, or
    /// no sleeper waits for the earliest deadline, and none is on its way.
    fn wake(&mut self, wakeup: &Condvar) {
        let head = self.deadlines.first_key_value().map(|(key, _)| key.0);
        let untimed = head.is_some_and(|at| self.timed.is_none_or(|other| at < other));
        let queued = !self.runnable.is_empty() && self.stepping == 0;
        if (queued || untimed) && self.idle > 0 && !self.waking {
            self.waking = true;
            wakeup.notify_one();
        }
    }
}

/// What workers and handle share; idle workers wait on `wakeup`, callers on `ready`.
struct Shared<N: Node> {
    sched: Mutex<Sched<N>>,
    wakeup: Condvar,
    ready: Condvar,
    fail_notice: Duration,
    started: Instant,
}

type Guard<'a, N> = MutexGuard<'a, Sched<N>>;
const POISONED: &str = "the scheduler lock is poisoned";

#[expect(clippy::expect_used, reason = "lock unpoisoned; one thread per node")]
impl<N: Node + 'static> Shared<N> {
    fn lock(&self) -> Guard<'_, N> {
        self.sched.lock().expect(POISONED)
    }

    fn send_event(&self, to: NodeId, event: Event<N>) {
        let mut sched = self.lock();
        if to.index() < sched.slots.len() {
            sched.post(to.index(), event);
            sched.wake(&self.wakeup);
        }
    }

    /// The loop of workers and waiting callers: post what is due, then step a
    /// runnable node or sleep; a worker (no `until`) until the runtime stops,
    /// a caller until an output is queued, which it takes, or `until` passes.
    fn serve(self: &Arc<Self>, until: Option<Instant>) -> Option<(NodeId, N::Output)> {
        let pool = self.clone();
        let hook = POOL.replace(Some(Box::new(move |paused| pool.pause(paused))));
        let mut sched = self.lock();
        sched.stepping += 1;
        let out = loop {
            let now = Instant::now();
            let out = until.and_then(|_| sched.outputs.pop_front());
            if out.is_some() || sched.stop || until.is_some_and(|at| at <= now) {
                break out;
            }
            while let Some(head) = sched.deadlines.first_entry().filter(|e| e.key().0 <= now) {
                let (i, timer, event) = head.remove();
                timer.map(|id| sched.timers.remove(&(i, id)));
                sched.post(i, event);
            }
            sched = match (sched.runnable.pop_front(), until) {
                (Some(i), _) => self.run(sched, i),
                (None, None) => self.sleep(sched, now),
                (None, Some(at)) => {
                    (sched.callers, sched.stepping) = (sched.callers + 1, sched.stepping - 1);
                    sched.wake(&self.wakeup); // for the deadlines it armed
                    sched = self.ready.wait_timeout(sched, at - now).expect(POISONED).0;
                    (sched.callers, sched.stepping) = (sched.callers - 1, sched.stepping + 1);
                    sched
                }
            };
        };
        sched.stepping -= 1;
        sched.wake(&self.wakeup); // for what a caller leaves behind
        POOL.set(hook);
        out
    }

    /// Sleeps until woken, or until the earliest deadline when no other
    /// sleeper waits for it (an endless timeout is a plain wait).
    fn sleep<'a>(&'a self, mut sched: Guard<'a, N>, now: Instant) -> Guard<'a, N> {
        let head = sched.deadlines.first_key_value().map(|(key, _)| key.0);
        let timed = head.filter(|&at| sched.timed.is_none_or(|other| at < other));
        let wait = timed.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
        (sched.idle, sched.timed) = (sched.idle + 1, timed.or(sched.timed));
        sched.stepping -= 1;
        sched = self.wakeup.wait_timeout(sched, wait).expect(POISONED).0;
        sched.timed = sched.timed.filter(|&at| Some(at) != timed); // our claim ends
        (sched.idle, sched.stepping, sched.waking) = (sched.idle - 1, sched.stepping + 1, false);
        sched
    }

    /// Counts this thread out of the stepping ones while it is inside
    /// [`blocking`] (`paused`), so that queued work can wake an idle worker.
    fn pause(&self, paused: bool) {
        let mut sched = self.lock();
        sched.stepping = sched.stepping + usize::from(!paused) - usize::from(paused);
        sched.wake(&self.wakeup);
    }

    /// Feeds node `i` its next event, stepping it outside the lock, and
    /// posts the effects; one clock reading serves the step's `now` and the
    /// deadlines it arms. A down node steps on [`Event::Start`] alone; a
    /// message to it becomes a bounce owed to its sender after `fail_notice`.
    fn run<'a>(&'a self, mut sched: Guard<'a, N>, i: usize) -> Guard<'a, N> {
        let (me, slot) = (NodeId(i as u32), &mut sched.slots[i]);
        let (event, up) = (slot.mailbox.pop_front(), slot.up);
        let event = match event {
            Some(Event::Message { from, msg }) if !up => {
                let at = Instant::now() + self.fail_notice;
                sched.push(at, (from.index(), None, Event::CallFailed { to: me, msg }));
                None
            }
            Some(Event::Start) => (!up).then_some(Event::Start),
            event => event.filter(|_| up),
        };
        if let Some(event) = event {
            let crash = matches!(event, Event::Crash);
            if crash {
                sched.timers.retain(|&(node, _), _| node != i);
                sched.deadlines.retain(|_, d| d.0 != i || d.1.is_none());
            }
            sched.slots[i].up = !crash;
            let mut node = sched.slots[i].node.take().expect("a node stepped twice");
            drop(sched);
            let now = Instant::now();
            let at = SimTime(now.duration_since(self.started).as_micros() as u64);
            let effects = node.step(at, event);
            sched = self.lock();
            // A crash step's effects are dropped with the node's timers. The
            // node goes back after its sends, so that they do not queue it.
            for effect in effects.into_iter().filter(|_| !crash) {
                match effect {
                    Effect::Send { to, msg } if to.index() < sched.slots.len() => {
                        sched.post(to.index(), Event::Message { from: me, msg });
                    }
                    Effect::Send { to, msg } => {
                        let bounce = Event::CallFailed { to, msg };
                        sched.push(now + self.fail_notice, (i, None, bounce));
                    }
                    Effect::SetTimer { id, delay, timer } => {
                        let at = now + Duration::from_micros(delay.micros());
                        let key = sched.push(at, (i, Some(id), Event::Timer(timer)));
                        sched.timers.insert((i, id), key);
                    }
                    Effect::CancelTimer(id) => {
                        let key = sched.timers.remove(&(i, id));
                        key.map(|key| sched.deadlines.remove(&key));
                    }
                    Effect::Output(out) => {
                        sched.outputs.push_back((me, out));
                        if sched.callers > 0 {
                            self.ready.notify_one();
                        }
                    }
                }
            }
            sched.slots[i].node = Some(node);
        }
        if !sched.slots[i].mailbox.is_empty() {
            sched.runnable.push_back(i);
        }
        sched
    }
}

// The pause hook of the pool this thread serves, if any.
type Hook = RefCell<Option<Box<dyn Fn(bool)>>>;
thread_local!(static POOL: Hook = const { RefCell::new(None) });

/// Runs `f`, a call that may block (a sync, a lock, a channel), inside a
/// step and returns its result. On a pool's thread (a worker, or a caller in
/// `recv_output`) the thread counts as not stepping meanwhile, so queued work
/// can wake an idle worker; elsewhere it just runs `f`. Calls do not nest.
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    let pause = |paused| POOL.with_borrow(|hook| hook.as_ref().map(|pause| pause(paused)));
    pause(true);
    let out = f();
    pause(false);
    out
}

/// The real-thread runtime. Create with [`ThreadedRuntime::spawn`], interact
/// through the handle, and call [`shutdown`](ThreadedRuntime::shutdown) to
/// join every worker thread.
pub struct ThreadedRuntime<N: Node> {
    shared: Arc<Shared<N>>,
    workers: Vec<JoinHandle<()>>,
}

impl<N> ThreadedRuntime<N>
where
    N: Node<Msg: Send, Timer: Send, External: Send, Output: Send> + Send + 'static,
{
    /// Spawns `n` nodes built by `make_node` on `n` workers. `fail_notice`
    /// is the delay before a sender learns that a message to a down or
    /// nonexistent node was not delivered; `_seed` is unused (no randomness).
    pub fn spawn(
        n: usize,
        _seed: u64,
        fail_notice: Duration,
        mut make_node: impl FnMut(NodeId) -> N,
    ) -> Self {
        let slots = (0..n as u32).map(|i| Slot {
            node: Some(Box::new(make_node(NodeId(i)))),
            mailbox: VecDeque::from([Event::Start]),
            up: false,
        });
        let sched = Mutex::new(Sched {
            slots: slots.collect(),
            runnable: (0..n).collect(),
            deadlines: BTreeMap::new(),
            timers: BTreeMap::new(),
            seq: 0,
            outputs: VecDeque::new(),
            idle: 0,
            callers: 0,
            stepping: 0,
            waking: false,
            timed: None,
            stop: false,
        });
        let shared = Arc::new(Shared {
            sched,
            wakeup: Condvar::new(),
            ready: Condvar::new(),
            fail_notice,
            started: Instant::now(),
        });
        let worker = |shared: Arc<Shared<N>>| std::thread::spawn(move || _ = shared.serve(None));
        let workers = (0..n).map(|_| worker(shared.clone())).collect();
        ThreadedRuntime { shared, workers }
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

    /// Receives the next output, waiting up to `timeout` while this thread
    /// steps nodes as a worker does: the call can overrun `timeout` by the
    /// step in progress, and a panic in a step it runs surfaces here.
    pub fn recv_output(&self, timeout: Duration) -> Option<(NodeId, N::Output)> {
        self.shared.serve(Some(Instant::now() + timeout))
    }

    /// Drains all currently available outputs.
    pub fn drain_outputs(&self) -> Vec<(NodeId, N::Output)> {
        std::mem::take(&mut self.shared.lock().outputs).into()
    }

    /// Stops every worker after its current step and joins them all,
    /// returning the final node states in id order. Events still queued
    /// are dropped.
    #[expect(clippy::expect_used, reason = "join fails only if a node panicked")]
    pub fn shutdown(self) -> Vec<N> {
        self.shared.lock().stop = true;
        self.shared.wakeup.notify_all();
        for worker in self.workers {
            worker.join().expect("a node panicked in its step");
        }
        let slots = std::mem::take(&mut self.shared.lock().slots);
        let node = |slot: Slot<N>| *slot.node.expect("every worker returned its node");
        slots.into_iter().map(node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_base::SimDuration;

    /// Minimal ping-counting node; a message is a ping (`true`) or a pong.
    #[derive(Default)]
    struct Counter {
        pings: u64,
        durable: u64,
    }

    impl Node for Counter {
        type Msg = bool;
        type Timer = ();
        type External = NodeId; // "ping this node"
        type Output = u64;

        fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
            match event {
                Event::External(to) => vec![Effect::Send { to, msg: true }],
                Event::Message { from: to, msg } if msg => vec![Effect::Send { to, msg: false }],
                Event::Message { .. } => {
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

    /// Arms timers on command and reports each that fires; messages itself.
    #[derive(Default)]
    struct Alarm {
        spins: u64,
        fired: bool,
        last_timer: u64,
    }

    /// `Arm(ms)` arms a timer; `ArmCancel(n, ms)` arms `n`, cancelling each
    /// at once; `Spin` keeps a message to self queued until a timer fires.
    enum Cmd {
        Arm(u64),
        ArmCancel(u32, u64),
        Spin,
    }

    impl Alarm {
        fn arm(&mut self, ms: u64) -> Effect<Self> {
            self.last_timer += 1;
            let (id, delay, timer) = (TimerId(self.last_timer), SimDuration::from_millis(ms), ms);
            Effect::SetTimer { id, delay, timer }
        }
    }

    impl Node for Alarm {
        type Msg = ();
        type Timer = u64;
        type External = Cmd;
        type Output = u64; // 0 = armed, else the delay of the timer that fired

        fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
            let (to, msg) = (NodeId(0), ());
            let to_self = Effect::Send { to, msg };
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
        // Likely, not forced: the worker is waiting on the 500 ms deadline.
        std::thread::sleep(Duration::from_millis(50));
        rt.inject(NodeId(0), Cmd::Arm(20));
        assert_eq!(next(&rt), Some(0), "short timer armed");
        assert_eq!(next(&rt), Some(20), "the earlier-due timer fires first");
        // A worker still waiting for the long deadline would fire both late.
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
        let sched = rt.shared.lock();
        assert!(sched.deadlines.is_empty() && sched.timers.is_empty());
        drop(sched);
        rt.shutdown();
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
        // Every bounce is owed now. Other tests may start a runtime meanwhile
        // (a few threads); a thread per bounce would add 200.
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
        let durable = rt.shutdown()[0].durable;
        assert_eq!(durable, 2, "durable counter survives the crash");
    }
}
