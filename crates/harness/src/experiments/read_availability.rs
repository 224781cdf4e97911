//! **E12 — read availability.** §6: "We omit the analysis for read
//! availability which is completely analogous." We carry it out: static
//! read availability has the closed form Π(1 − q^h_j); for the dynamic
//! protocol, reads stay possible even in some blocked states (the frozen
//! epoch's survivors may still cover every column without containing a
//! full column), which the exact chain and structure-aware MC measure.

use crate::report::{sci, Table};
use coterie_markov::exact_unavailability_kind;
use coterie_quorum::availability::{grid_read_availability, grid_write_availability};
use coterie_quorum::{CoterieRule, GridCoterie, GridShape, NodeSet, PlanCache, QuorumKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One row of the read-availability analysis.
#[derive(Clone, Debug)]
pub struct ReadAvailRow {
    /// Replica count.
    pub n: usize,
    /// Node-up probability.
    pub p: f64,
    /// Static grid read unavailability (closed form).
    pub static_read: f64,
    /// Static grid write unavailability, for contrast.
    pub static_write: f64,
    /// Dynamic (exact chain) read unavailability, small N only.
    pub dynamic_read: Option<f64>,
    /// Dynamic (exact chain) write unavailability, small N only.
    pub dynamic_write: Option<f64>,
}

/// Computes the rows.
pub fn compute(ns: &[usize], p: f64) -> Vec<ReadAvailRow> {
    let mu = p / (1.0 - p);
    let rule = GridCoterie::new();
    ns.iter()
        .map(|&n| {
            let shape = GridShape::define(n);
            let dynamic = (n <= 6).then(|| {
                (
                    exact_unavailability_kind(&rule, n, 1.0, mu, QuorumKind::Read).unwrap(),
                    exact_unavailability_kind(&rule, n, 1.0, mu, QuorumKind::Write).unwrap(),
                )
            });
            ReadAvailRow {
                n,
                p,
                static_read: 1.0 - grid_read_availability(shape, p),
                static_write: 1.0 - grid_write_availability(shape, p),
                dynamic_read: dynamic.map(|d| d.0),
                dynamic_write: dynamic.map(|d| d.1),
            }
        })
        .collect()
}

/// Structure-aware MC estimate of dynamic *read* unavailability for any N
/// (reads succeed when the up members of the current epoch include a read
/// quorum over it).
pub fn mc_dynamic_read(n: usize, p: f64, horizon: f64, seed: u64) -> f64 {
    let mu = p / (1.0 - p);
    let rule: Arc<dyn CoterieRule> = Arc::new(GridCoterie::new());
    // Reuse the write-dynamics walker but measure with the read predicate:
    // re-implemented compactly here because the sitemodel measures writes.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut up = NodeSet::first_n(n);
    let mut epoch = NodeSet::first_n(n);
    let mut t = 0.0;
    let mut unavailable = 0.0;
    // One compiled plan per distinct epoch instead of re-deriving the grid
    // layout twice per event.
    let mut plans = PlanCache::new();
    while t < horizon {
        let up_count = up.len() as f64;
        let down_count = (n - up.len()) as f64;
        let total = up_count * 1.0 + down_count * mu;
        let dt = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / total;
        let plan = plans.plan_for_set(&*rule, epoch);
        if !plan.includes_quorum(up.intersection(epoch), QuorumKind::Read) {
            unavailable += dt;
        }
        t += dt;
        if rng.gen::<f64>() * total < up_count {
            let k = rng.gen_range(0..up.len());
            let node = up.iter().nth(k).unwrap();
            up.remove(node);
        } else {
            let down: Vec<_> = NodeSet::first_n(n).difference(up).to_vec();
            up.insert(down[rng.gen_range(0..down.len())]);
        }
        // Instantaneous epoch check (write-quorum reform rule, as in the
        // protocol: epochs change only with a write quorum of the old one).
        let plan = plans.plan_for_set(&*rule, epoch);
        if epoch != up && plan.includes_quorum(up.intersection(epoch), QuorumKind::Write) {
            epoch = up;
        }
    }
    unavailable / horizon
}

/// Renders the analysis.
pub fn render(ns: &[usize], p: f64) -> String {
    let rows = compute(ns, p);
    let mut t = Table::new(
        format!("E12 - read vs write unavailability, grid, p = {p}"),
        &[
            "N",
            "static read",
            "static write",
            "dynamic read (exact)",
            "dynamic write (exact)",
        ],
    );
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            sci(r.static_read),
            sci(r.static_write),
            r.dynamic_read.map(sci).unwrap_or_else(|| "-".into()),
            r.dynamic_write.map(sci).unwrap_or_else(|| "-".into()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_always_at_least_as_available_as_writes() {
        for r in compute(&[3, 4, 5, 6, 9, 16], 0.9) {
            assert!(
                r.static_read <= r.static_write + 1e-15,
                "N={}: read {:.3e} vs write {:.3e}",
                r.n,
                r.static_read,
                r.static_write
            );
            if let (Some(dr), Some(dw)) = (r.dynamic_read, r.dynamic_write) {
                assert!(dr <= dw + 1e-15, "N={}", r.n);
            }
        }
    }

    #[test]
    fn dynamic_reads_beat_static_reads_beyond_tiny_n() {
        for r in compute(&[5, 6], 0.8) {
            let dr = r.dynamic_read.unwrap();
            assert!(
                dr < r.static_read,
                "N={}: dynamic {dr:.3e} vs static {:.3e}",
                r.n,
                r.static_read
            );
        }
    }

    #[test]
    fn n4_read_anomaly_dynamic_can_be_worse() {
        // A finding the paper's "completely analogous" remark glosses over:
        // at N = 4 the dynamic protocol *hurts* read availability. Epochs
        // shrink to keep writes alive (e.g. down to a 1x2 grid), and reads
        // must then come from the shrunken epoch — while the static 2x2
        // grid can still serve reads from any column cover of all four
        // replicas.
        let r = &compute(&[4], 0.8)[0];
        let dr = r.dynamic_read.unwrap();
        assert!(
            dr > r.static_read,
            "expected the anomaly: dynamic {dr:.3e} vs static {:.3e}",
            r.static_read
        );
        // Writes still benefit.
        assert!(r.dynamic_write.unwrap() < r.static_write);
    }

    #[test]
    fn mc_read_estimate_matches_exact_chain() {
        let n = 5;
        let p = 0.7;
        let mu = p / (1.0 - p);
        let exact =
            exact_unavailability_kind(&GridCoterie::new(), n, 1.0, mu, QuorumKind::Read).unwrap();
        let mc = mc_dynamic_read(n, p, 40_000.0, 3);
        assert!(
            (mc - exact).abs() / exact.max(1e-9) < 0.25,
            "MC {mc:.5} vs exact {exact:.5}"
        );
    }
}
