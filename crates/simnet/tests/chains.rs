//! Independent work uses a second core while the test waits in
//! `recv_output`: four relay chains finish in well under four times one
//! chain's time (ROADMAP 38(a)). Its own test binary, so that no other test
//! competes for the cores.

// Timing the chains needs the real clock.
#![allow(clippy::disallowed_methods)]

use coterie_simnet::{Effect, Event, Node, NodeId, SimTime, ThreadedRuntime};
use std::time::{Duration, Instant};

/// Passes a counter back and forth with its partner, down to 0; every step
/// spins 100 µs without `blocking`.
struct Relay;

const HOPS: u32 = 400;

impl Node for Relay {
    type Msg = u32;
    type Timer = ();
    type External = NodeId; // start a chain with this partner
    type Output = ();

    fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
        match event {
            Event::External(to) => vec![Effect::Send { to, msg: HOPS }],
            Event::Message { msg: 0, .. } => vec![Effect::Output(())],
            Event::Message { from: to, msg } => vec![Effect::Send { to, msg: msg - 1 }],
            _ => Vec::new(),
        }
    }
}

/// The fastest of three runs of `chains` chains, each on its own two nodes.
fn fastest(chains: u32) -> Duration {
    let runs = (0..3).map(|_| {
        let n = 2 * chains as usize;
        let rt = ThreadedRuntime::spawn(n, 0, Duration::from_millis(20), |_| Relay);
        std::thread::sleep(Duration::from_millis(50)); // every Start step done
        let started = Instant::now();
        for c in 0..chains {
            rt.inject(NodeId(2 * c), NodeId(2 * c + 1));
        }
        for _ in 0..chains {
            let done = rt.recv_output(Duration::from_secs(10));
            assert!(done.is_some(), "a chain did not finish");
        }
        let took = started.elapsed();
        rt.shutdown();
        took
    });
    runs.min().expect("three runs")
}

#[test]
fn independent_chains_use_a_second_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipped: {cores} core; four chains can overlap only on two or more");
        return;
    }
    let (one, four) = (fastest(1), fastest(4));
    let ratio = four.as_secs_f64() / one.as_secs_f64();
    eprintln!("one chain {one:?}, four chains {four:?}: {ratio:.2}x");
    assert!(
        ratio < 2.6,
        "four chains took {ratio:.2}x one chain ({four:?} against {one:?})"
    );
}
