//! The shared worker pool, through the public API: a step blocked inside
//! `blocking` does not hold up other nodes, a caller waiting in
//! `recv_output` steps nodes itself (so a step stuck outside `blocking`
//! cannot stall it, and a lone fan-out runs on one thread), a timer armed on
//! the caller's thread still fires after it returns, no node is stepped by
//! two threads at once, and one sender's messages reach one node in the
//! order sent.

// Blocking a step and timing a round trip need the real clock.
#![allow(clippy::disallowed_methods)]

use coterie_simnet::{
    blocking, Effect, Event, Node, NodeId, SimDuration, SimTime, ThreadedRuntime, TimerId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// What a [`Gated`] node outputs.
#[derive(Debug, PartialEq)]
enum Out {
    /// A blocked step returned.
    Released,
    /// A pong came back.
    Pong,
}

/// A node whose `External(None)` step blocks until the test opens a shared
/// gate (or 5 s pass), inside [`blocking`] if `says` and outside it if not,
/// and whose `External(Some(to))` pings `to`. The ping and pong steps record
/// the thread that ran them.
struct Gated {
    entered: Sender<NodeId>,
    gate: Arc<Mutex<Receiver<()>>>,
    me: NodeId,
    says: bool,
    steps: Arc<Mutex<Vec<ThreadId>>>,
}

/// `n` [`Gated`] nodes, the channel their gated steps report on, the gate's
/// opener (drop it to release them) and the ping-pong steps' threads.
type GatedRun = (
    ThreadedRuntime<Gated>,
    Receiver<NodeId>,
    Sender<()>,
    Arc<Mutex<Vec<ThreadId>>>,
);

fn gated(n: usize, says: bool) -> GatedRun {
    let (entered_tx, entered) = channel();
    let (open, gate) = channel::<()>();
    let gate = Arc::new(Mutex::new(gate));
    let steps = Arc::new(Mutex::new(Vec::new()));
    let rt = ThreadedRuntime::spawn(n, 0, Duration::from_millis(20), |me| Gated {
        entered: entered_tx.clone(),
        gate: gate.clone(),
        me,
        says,
        steps: steps.clone(),
    });
    (rt, entered, open, steps)
}

impl Node for Gated {
    type Msg = bool; // true: ping
    type Timer = ();
    type External = Option<NodeId>;
    type Output = Out;

    fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
        match event {
            Event::External(None) => {
                self.entered.send(self.me).expect("the test is waiting");
                let wait = || {
                    let gate = self.gate.lock().expect("no step panics holding the gate");
                    let _ = gate.recv_timeout(Duration::from_secs(5));
                };
                if self.says {
                    blocking(wait);
                } else {
                    wait();
                }
                return vec![Effect::Output(Out::Released)];
            }
            Event::Start => return Vec::new(),
            _ => {}
        }
        let me = std::thread::current().id();
        self.steps.lock().expect("no step panics").push(me);
        match event {
            Event::External(Some(to)) => vec![Effect::Send { to, msg: true }],
            Event::Message {
                from: to,
                msg: true,
            } => vec![Effect::Send { to, msg: false }],
            Event::Message { msg: false, .. } => vec![Effect::Output(Out::Pong)],
            _ => Vec::new(),
        }
    }
}

/// With every core's worth of nodes blocked inside a step, two other nodes
/// still finish a ping-pong well inside 50 ms: the pool has a worker per
/// node, and a worker blocked in [`blocking`] hands the queue off. A pool
/// sized to the cores would have no worker left, and the pong would wait
/// for a blocked step to return. The test polls `drain_outputs` rather than
/// waiting in `recv_output`, which would step the ping-pong itself: an idle
/// worker must take the hand-off.
#[test]
fn blocked_steps_do_not_hold_up_other_nodes() {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let (rt, entered, open, _) = gated(cores + 2, true);
    // Every blocked node is inside its step before the ping is sent. The
    // gate's mutex lets one step wait on the channel and the rest on the
    // mutex: either way each holds its worker.
    for i in 0..cores {
        rt.inject(NodeId(i as u32), None);
    }
    for _ in 0..cores {
        entered
            .recv_timeout(Duration::from_secs(5))
            .expect("a blocked step began");
    }
    let (a, b) = (NodeId(cores as u32), NodeId(cores as u32 + 1));
    let pinged = Instant::now();
    rt.inject(a, Some(b));
    let mut first = Vec::new();
    while first.is_empty() && pinged.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_micros(200));
        first = rt.drain_outputs();
    }
    let took = pinged.elapsed();
    drop(open); // releases every blocked step
    assert_eq!(first, [(a, Out::Pong)], "a blocked step came first");
    assert!(
        took < Duration::from_millis(50),
        "the ping-pong took {took:?}"
    );
    for _ in 0..cores {
        let out = rt.recv_output(Duration::from_secs(10)).map(|(_, out)| out);
        assert_eq!(out, Some(Out::Released));
    }
    rt.shutdown();
}

/// Every node sends `PER_SENDER` numbered messages to node 0, and node 0
/// to node 1; each node checks that it is never stepped concurrently and
/// that each sender's numbers arrive in order.
struct FanIn {
    stepping: AtomicBool,
    /// The next number expected from each sender.
    next: Vec<u32>,
    received: u32,
    overlaps: u32,
    out_of_order: u32,
}

const PER_SENDER: u32 = 300;

impl Node for FanIn {
    type Msg = u32;
    type Timer = ();
    type External = NodeId;
    type Output = u32;

    fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
        // The step is long enough for another worker to collide with it, and
        // its pause lets one wake: a step that never blocks keeps the queue.
        self.overlaps += u32::from(self.stepping.swap(true, Ordering::SeqCst));
        blocking(std::thread::yield_now);
        let effects = match event {
            Event::External(to) => (0..PER_SENDER)
                .map(|msg| Effect::Send { to, msg })
                .collect(),
            Event::Message { from, msg } => {
                let expected = &mut self.next[from.index()];
                self.out_of_order += u32::from(msg != *expected);
                *expected = msg + 1;
                self.received += 1;
                vec![Effect::Output(self.received)]
            }
            _ => Vec::new(),
        };
        self.stepping.store(false, Ordering::SeqCst);
        effects
    }
}

#[test]
fn fan_in_steps_each_node_once_at_a_time_and_keeps_sender_order() {
    let n = 8;
    let rt = ThreadedRuntime::spawn(n, 0, Duration::from_millis(20), |_| FanIn {
        stepping: AtomicBool::new(false),
        next: vec![0; n],
        received: 0,
        overlaps: 0,
        out_of_order: 0,
    });
    for i in 0..n as u32 {
        rt.inject(NodeId(i), NodeId(u32::from(i == 0)));
    }
    // Node 0 hears from the n - 1 others, node 1 from node 0.
    let want = [(n as u32 - 1) * PER_SENDER, PER_SENDER];
    let mut received = [0, 0];
    let deadline = Instant::now() + Duration::from_secs(30);
    while received != want && Instant::now() < deadline {
        if let Some((node, count)) = rt.recv_output(Duration::from_millis(100)) {
            received[node.index()] = count;
        }
    }
    assert_eq!(received, want);
    for (i, node) in rt.shutdown().iter().enumerate() {
        assert_eq!(
            node.overlaps, 0,
            "node {i} was stepped by two workers at once"
        );
        assert_eq!(
            node.out_of_order, 0,
            "node {i} got a sender's messages out of order"
        );
    }
}

/// A hub pings the other nodes and counts their pongs; every step spins
/// without blocking and records the worker that ran it.
struct Hub {
    steps: Arc<Mutex<Vec<ThreadId>>>,
    pongs: u32,
}

const SPOKES: u32 = 7;

impl Node for Hub {
    type Msg = bool; // true: ping
    type Timer = ();
    type External = ();
    type Output = ();

    fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
        if matches!(event, Event::Start) {
            return Vec::new();
        }
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        let me = std::thread::current().id();
        self.steps.lock().expect("no step panics").push(me);
        match event {
            Event::External(()) => (1..=SPOKES)
                .map(|i| Effect::Send {
                    to: NodeId(i),
                    msg: true,
                })
                .collect(),
            Event::Message {
                from: to,
                msg: true,
            } => vec![Effect::Send { to, msg: false }],
            Event::Message { .. } => {
                self.pongs += 1;
                if self.pongs == SPOKES {
                    vec![Effect::Output(())]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }
}

/// Once the pool is idle, a lone fan-out and its replies (1 + 7 + 7 steps,
/// none blocking) run on one thread, the waiting caller or the worker woken
/// for the injection: taking work wakes no helper while a thread is stepping.
#[test]
fn a_lone_fan_out_runs_on_one_thread() {
    let steps = Arc::new(Mutex::new(Vec::new()));
    let rt = ThreadedRuntime::spawn(SPOKES as usize + 1, 0, Duration::from_millis(20), |_| Hub {
        steps: steps.clone(),
        pongs: 0,
    });
    std::thread::sleep(Duration::from_millis(100)); // every Start step done
    rt.inject(NodeId(0), ());
    assert_eq!(
        rt.recv_output(Duration::from_secs(5)),
        Some((NodeId(0), ()))
    );
    rt.shutdown();
    let steps = steps.lock().expect("no step panicked");
    assert_eq!(steps.len(), 2 * SPOKES as usize + 1);
    assert!(
        steps.iter().all(|&id| id == steps[0]),
        "a helper stole a step: {steps:?}"
    );
}

#[test]
fn blocking_outside_a_worker_runs_on_the_caller() {
    let caller = std::thread::current().id();
    assert_eq!(blocking(|| (std::thread::current().id(), 7)), (caller, 7));
}

/// A step stuck outside [`blocking`] holds the only stepping worker, so no
/// idle worker is woken for a ping-pong injected meanwhile; a caller waiting
/// in `recv_output` runs all three of its steps itself.
#[test]
fn a_stuck_worker_cannot_stall_the_caller() {
    let (rt, entered, open, steps) = gated(3, false);
    std::thread::sleep(Duration::from_millis(100)); // every Start step done
    rt.inject(NodeId(0), None);
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("the stuck step began");
    rt.inject(NodeId(1), Some(NodeId(2)));
    let pong = rt.recv_output(Duration::from_secs(1));
    drop(open); // releases the stuck step
    assert_eq!(pong, Some((NodeId(1), Out::Pong)), "the caller stalled");
    let caller = std::thread::current().id();
    assert_eq!(*steps.lock().expect("no step panicked"), [caller; 3]);
    let released = rt.recv_output(Duration::from_secs(10)).map(|(_, out)| out);
    assert_eq!(released, Some(Out::Released));
    rt.shutdown();
}

/// A node whose injected step spins 2 ms, then arms a 20 ms timer and says
/// so; the timer says so when it fires.
struct Late;

impl Node for Late {
    type Msg = ();
    type Timer = ();
    type External = ();
    type Output = &'static str;

    fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
        match event {
            Event::External(()) => {
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_millis(2) {
                    std::hint::spin_loop();
                }
                let (id, delay) = (TimerId(1), SimDuration::from_millis(20));
                let arm = Effect::SetTimer {
                    id,
                    delay,
                    timer: (),
                };
                vec![arm, Effect::Output("armed")]
            }
            Event::Timer(()) => vec![Effect::Output("fired")],
            _ => Vec::new(),
        }
    }
}

/// Likely, not forced: the worker woken by the injection finds its step
/// taken by the caller and goes back to sleep before the timer is armed.
/// Once the caller returns, a worker must still wait for that timer, though
/// nobody calls in again.
#[test]
fn a_timer_outlives_the_callers_visit() {
    let rt = ThreadedRuntime::spawn(1, 0, Duration::from_millis(20), |_| Late);
    rt.inject(NodeId(0), ());
    let armed = rt.recv_output(Duration::from_secs(5));
    assert_eq!(armed, Some((NodeId(0), "armed")));
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(rt.drain_outputs(), [(NodeId(0), "fired")]);
    rt.shutdown();
}
