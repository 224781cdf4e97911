//! The fixtures the protocol-level integration tests share: a
//! [`StepDriver`] on the modelled network, read the way a test reads it,
//! the weighted random schedule and pinned run of the determinism and
//! crash-replay tests, and the helpers of the tests that drive one engine
//! by hand.

#![allow(dead_code, reason = "each test crate uses its own subset")]

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use bytes::Bytes;
use coterie_base::{SimDuration, SimTime};
use coterie_core::{
    ClientRequest, Effect, Input, Msg, OpId, PartialWrite, ProtocolConfig, ProtocolEvent,
    ReplicaNode, Rng64, StepDriver,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};

/// A cluster on the modelled network, plus how much of its output the test
/// has already taken.
pub struct Cluster {
    driver: StepDriver,
    taken: usize,
}

impl Cluster {
    /// Boots `n` replicas of `config`; `seed` drives the engines' jitter and
    /// the network's delays.
    pub fn new(n: usize, config: ProtocolConfig, seed: u64) -> Self {
        Cluster {
            driver: StepDriver::with_latency(n, config.rng_seed(seed)),
            taken: 0,
        }
    }

    /// The outputs emitted since the last call.
    pub fn take_outputs(&mut self) -> Vec<(SimTime, NodeId, ProtocolEvent)> {
        let fresh = self.driver.outputs()[self.taken..].to_vec();
        self.taken += fresh.len();
        fresh
    }

    /// Runs the cluster up to `at`, then submits `request` at `node` —
    /// unless `node` is down, which drops it like a refused connection.
    pub fn inject_at(&mut self, at: SimTime, node: NodeId, request: ClientRequest) {
        self.driver.run_until(at);
        if !self.driver.is_down(node) {
            self.driver.inject(node, request);
        }
    }
}

/// Delivers pending messages until none is left, firing no timer: every
/// protocol round trip completes, while timer-driven work — the jittered
/// propagation kicks that would repair stale replicas, retries, epoch
/// checks — stays parked.
pub fn drain_messages(driver: &mut StepDriver) {
    while !driver.pending_messages().is_empty() {
        driver.deliver(0);
    }
}

/// One step of the weighted random schedule: picks uniformly among the
/// pending messages, the armed timers and 4 fault slots. Deliveries and
/// firings move the protocol; a fault slot toggles the liveness of node 0
/// or node 1.
pub fn weighted_step(driver: &mut StepDriver, rng: &mut Rng64) {
    let msgs = driver.pending_messages().len();
    let timers = driver.pending_timers().len();
    let fault_slots = 4;
    let pick = rng.below((msgs + timers + fault_slots) as u64) as usize;
    if pick < msgs {
        driver.deliver(pick);
    } else if pick < msgs + timers {
        driver.fire(pick - msgs);
    } else {
        let node = NodeId(((pick - msgs - timers) % 2) as u32);
        if driver.is_down(node) {
            driver.recover(node);
        } else {
            driver.crash(node);
        }
    }
}

/// The determinism tests' pinned run: four writes and a read on a 4-node
/// grid, 140 weighted steps of a pinned schedule, then every down node
/// recovered and 30 s drained. `traced` attaches a trace ring first.
pub fn pinned_run(traced: bool) -> StepDriver {
    const N: usize = 4;
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N)
        .pages(4)
        .rng_seed(0xC07E41E);
    let mut driver = StepDriver::new(N, config);
    if traced {
        driver.enable_tracing(1 << 16);
    }
    for (id, node, page) in [(1u64, 0u32, 0u16), (2, 1, 1), (3, 2, 0), (4, 0, 2)] {
        driver.inject(
            NodeId(node),
            ClientRequest::Write {
                id,
                write: PartialWrite::new([(page, Bytes::copy_from_slice(b"payload"))]),
            },
        );
    }
    driver.inject(NodeId(3), ClientRequest::Read { id: 5 });
    let mut schedule = Rng64::new(42);
    for _ in 0..140 {
        weighted_step(&mut driver, &mut schedule);
    }
    for id in 0..N as u32 {
        if driver.is_down(NodeId(id)) {
            driver.recover(NodeId(id));
        }
    }
    driver.run_for(SimDuration::from_secs(30));
    driver
}

/// The protocol-visible bytes of a run: per-node journal bytes (the framed
/// format, hex-encoded, so framing and checksums are part of the
/// contract), checked-replay verdict and replayed durable state, then the
/// cluster digest and every output event.
pub fn render_protocol(driver: &StepDriver) -> String {
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    let mut out = String::new();
    for id in 0..driver.cluster_size() as u32 {
        let node = NodeId(id);
        let journal = driver.journal(node);
        let replay = driver.replay_checked(node);
        out.push_str(&format!(
            "node={id};appended={};bytes={};verdict={:?};replayed={:?};\n",
            journal.appended_total(),
            hex(journal.bytes()),
            replay.verdict,
            driver.replay_journal(node),
        ));
    }
    out.push_str(&format!(
        "digest={:016x};outputs={:?};\n",
        driver.state_digest(),
        driver.outputs(),
    ));
    out
}

impl Deref for Cluster {
    type Target = StepDriver;

    fn deref(&self) -> &StepDriver {
        &self.driver
    }
}

impl DerefMut for Cluster {
    fn deref_mut(&mut self) -> &mut StepDriver {
        &mut self.driver
    }
}

/// Three replicas under majority.
pub fn majority3() -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
}

/// The op `seq` coordinated by `node`.
pub fn op(node: u32, seq: u64) -> OpId {
    OpId {
        node: NodeId(node),
        inc: 0,
        seq,
    }
}

/// Steps a lone engine on `msg` from `from`, at time zero.
pub fn deliver(node: &mut ReplicaNode, from: NodeId, msg: Msg) -> Vec<Effect> {
    let lamport = 0;
    node.step(SimTime::ZERO, Input::Deliver { from, msg, lamport })
}
