//! Client workload generation: Poisson arrivals of reads and partial
//! writes spread across coordinator nodes.

// Tool-side bookkeeping; hash maps never feed engine effects.
#![allow(clippy::disallowed_types)]

use bytes::Bytes;
use coterie_core::{ClientRequest, PageId, PartialWrite, ProtocolConfig};
use coterie_quorum::NodeId;
use coterie_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Maximum pages touched by one partial write.
const MAX_PAGES_PER_WRITE: usize = 3;
/// Payload bytes per page write.
const PAGE_BYTES: usize = 64;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Mean operations per simulated second (Poisson process).
    pub ops_per_sec: f64,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Total workload duration.
    pub duration: SimDuration,
    /// RNG seed (independent of the simulator's).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            ops_per_sec: 50.0,
            read_fraction: 0.5,
            duration: SimDuration::from_secs(60),
            seed: 0xF00D,
        }
    }
}

/// What the harness remembers about each issued operation, for the
/// consistency checker and latency metrics.
#[derive(Clone, Debug)]
pub struct IssuedOp {
    /// The client request id.
    pub id: u64,
    /// Issue time.
    pub at: SimTime,
    /// Coordinator node.
    pub coordinator: NodeId,
    /// The write payload, or `None` for reads.
    pub write: Option<PartialWrite>,
}

impl IssuedOp {
    /// The record of `request`, issued at `coordinator` at time `at`.
    pub fn new(at: SimTime, coordinator: NodeId, request: &ClientRequest) -> IssuedOp {
        let (id, write) = match request {
            ClientRequest::Read { id } => (*id, None),
            ClientRequest::Write { id, write } => (*id, Some(write.clone())),
        };
        IssuedOp {
            id,
            at,
            coordinator,
            write,
        }
    }
}

/// A generated workload: a time-ordered schedule of client requests.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// The schedule.
    pub ops: Vec<(SimTime, NodeId, ClientRequest)>,
    /// Issue records by client id.
    pub issued: HashMap<u64, IssuedOp>,
}

impl Workload {
    /// Generates a workload for a cluster running `protocol`: its replicas
    /// coordinate, and writes target pages of its object.
    pub fn generate(config: &WorkloadConfig, protocol: &ProtocolConfig) -> Workload {
        let (n_nodes, n_pages) = (protocol.n_replicas, protocol.n_pages);
        assert!(n_nodes >= 1);
        assert!((0.0..=1.0).contains(&config.read_fraction));
        assert!(config.ops_per_sec > 0.0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut out = Workload::default();
        let mut t = 0.0f64;
        let horizon = config.duration.as_secs_f64();
        let mut id = 0u64;
        while t < horizon {
            let gap = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / config.ops_per_sec;
            t += gap;
            if t >= horizon {
                break;
            }
            id += 1;
            let at = SimTime((t * 1e6) as u64);
            let coordinator = NodeId(rng.gen_range(0..n_nodes as u32));
            let request = if rng.gen::<f64>() < config.read_fraction {
                ClientRequest::Read { id }
            } else {
                let k = rng.gen_range(1..=MAX_PAGES_PER_WRITE.min(n_pages));
                let mut pages = Vec::with_capacity(k);
                for _ in 0..k {
                    let page = rng.gen_range(0..n_pages as u16) as PageId;
                    let mut body = vec![0u8; PAGE_BYTES];
                    rng.fill(&mut body[..]);
                    pages.push((page, Bytes::from(body)));
                }
                ClientRequest::Write {
                    id,
                    write: PartialWrite::new(pages),
                }
            };
            out.issued
                .insert(id, IssuedOp::new(at, coordinator, &request));
            out.ops.push((at, coordinator, request));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn grid(n: usize) -> ProtocolConfig {
        ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
    }

    #[test]
    fn generates_poisson_schedule() {
        let cfg = WorkloadConfig {
            ops_per_sec: 100.0,
            duration: SimDuration::from_secs(10),
            ..Default::default()
        };
        let w = Workload::generate(&cfg, &grid(5));
        let len = w.ops.len();
        // ~1000 ops expected; allow wide slack.
        assert!(len > 700 && len < 1300, "got {len}");
        // Sorted by time, ids unique.
        for pair in w.ops.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        assert_eq!(w.issued.len(), len);
        // Mix near the requested fraction.
        let reads = w.issued.values().filter(|o| o.write.is_none()).count();
        let frac = reads as f64 / len as f64;
        assert!((frac - 0.5).abs() < 0.1, "read fraction {frac}");
        // Coordinators within range.
        assert!(w.ops.iter().all(|(_, n, _)| n.0 < 5));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig::default();
        let a = Workload::generate(&cfg, &grid(3));
        let b = Workload::generate(&cfg, &grid(3));
        assert_eq!(a.ops.len(), b.ops.len());
        assert_eq!(
            a.ops
                .iter()
                .map(|(t, n, _)| (t.micros(), n.0))
                .collect::<Vec<_>>(),
            b.ops
                .iter()
                .map(|(t, n, _)| (t.micros(), n.0))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_reads_or_all_writes() {
        let all_reads = WorkloadConfig {
            read_fraction: 1.0,
            ..Default::default()
        };
        let w = Workload::generate(&all_reads, &grid(2));
        assert!(w.issued.values().all(|o| o.write.is_none()));
        let all_writes = WorkloadConfig {
            read_fraction: 0.0,
            ..Default::default()
        };
        let w = Workload::generate(&all_writes, &grid(2));
        assert!(w.issued.values().all(|o| o.write.is_some()));
    }
}
