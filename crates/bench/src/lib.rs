//! # coterie-bench
//!
//! Shared fixtures for the Criterion benchmarks. The benches are organized
//! one-per-artifact (see EXPERIMENTS.md):
//!
//! * `table1` — regenerates the paper's Table 1 end to end (closed forms +
//!   GTH solve) and reports the time to do so.
//! * `figures` — grid construction/rendering (Figures 1-2) and the
//!   Figure 3 chain build.
//! * `quorum_ops` — the protocol hot path: `coterie-rule(V, S)` checks and
//!   quorum selection per rule and size (backs E6).
//! * `markov_solve` — GTH steady-state solve scaling.
//! * `protocol_paths` — full simulated write/read operations per rule
//!   (backs E7) and under churn (E8).
//! * `site_model` — Monte-Carlo site-model throughput (backs E5/E9/E10).
//! * `ablations` — design choices DESIGN.md calls out: locking vs
//!   log-shipping propagation, no-wait vs waiting epoch prepares
//!   (via check-period extremes), write-log capacity.

use coterie_core::{ClientRequest, PartialWrite, ProtocolConfig, StepDriver};
use coterie_quorum::{CoterieRule, NodeId};
use coterie_simnet::{SimDuration, SimTime};
use std::sync::Arc;

/// Builds an N-node cluster with the given rule for protocol benches, on
/// the step driver's modelled network.
pub fn cluster(
    rule: Arc<dyn CoterieRule>,
    n: usize,
    seed: u64,
    configure: impl Fn(ProtocolConfig) -> ProtocolConfig,
) -> StepDriver {
    let config = configure(ProtocolConfig::new(rule, n)).rng_seed(seed);
    StepDriver::with_latency(n, config)
}

/// Drives `ops` alternating writes and reads through the cluster, `gap`
/// apart (one at a down coordinator is dropped), and runs to completion;
/// returns the committed-op count (for throughput assertions).
pub fn drive_ops(driver: &mut StepDriver, ops: u64, gap: SimDuration) -> u64 {
    let n = driver.cluster_size() as u32;
    for i in 0..ops {
        driver.run_until(SimTime(i * gap.micros()));
        let node = NodeId((i % n as u64) as u32);
        let req = if i % 2 == 0 {
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(
                    (i % 8) as u16,
                    bytes::Bytes::copy_from_slice(&i.to_le_bytes()),
                )]),
            }
        } else {
            ClientRequest::Read { id: i }
        };
        if !driver.is_down(node) {
            driver.inject(node, req);
        }
    }
    driver.run_until(SimTime(ops * gap.micros()) + SimDuration::from_secs(2));
    driver
        .outputs()
        .iter()
        .filter(|(_, _, e)| {
            matches!(
                e,
                coterie_core::ProtocolEvent::WriteOk { .. }
                    | coterie_core::ProtocolEvent::ReadOk { .. }
            )
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_quorum::GridCoterie;

    #[test]
    fn fixtures_work() {
        let mut driver = cluster(Arc::new(GridCoterie::new()), 9, 1, |c| c);
        let done = drive_ops(&mut driver, 20, SimDuration::from_millis(50));
        assert_eq!(done, 20);
    }
}
