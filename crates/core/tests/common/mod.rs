//! The cluster fixture the protocol-level integration tests share: a
//! [`StepDriver`] on the modelled network, read the way a test reads it.

#![allow(dead_code, reason = "each test crate uses its own subset")]

use std::ops::{Deref, DerefMut};

use coterie_base::SimTime;
use coterie_core::{ClientRequest, ProtocolConfig, ProtocolEvent, StepDriver};
use coterie_quorum::NodeId;

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
