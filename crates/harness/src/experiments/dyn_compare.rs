//! **E11 — dynamic grid vs dynamic voting.** The paper generalizes dynamic
//! quorum adjustment from voting to structured coteries; the price is a
//! slightly larger minimum epoch (a grid epoch of three blocks on any
//! failure, a voting epoch of two). This sweep quantifies the availability
//! gap across N and p — alongside the quorum-size advantage the grid buys
//! (E6), which is the trade the paper advocates.

use crate::report::{sci, Table};
use coterie_markov::DynamicModel;
use coterie_quorum::availability::{grid_write_availability, majority_write_availability};
use coterie_quorum::GridShape;

/// One (N, p) comparison.
#[derive(Clone, Debug)]
pub struct DynCompareRow {
    /// Replica count.
    pub n: usize,
    /// Node-up probability.
    pub p: f64,
    /// Static grid unavailability (best-effort `DefineGrid` shape).
    pub static_grid: f64,
    /// Static majority unavailability.
    pub static_majority: f64,
    /// Dynamic grid unavailability (Figure 3 chain, min epoch 3).
    pub dynamic_grid: f64,
    /// Dynamic voting unavailability (min epoch 2).
    pub dynamic_voting: f64,
}

/// Computes the sweep.
pub fn compute(ns: &[usize], ps: &[f64]) -> Vec<DynCompareRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for &p in ps {
            let mu = p / (1.0 - p);
            rows.push(DynCompareRow {
                n,
                p,
                static_grid: 1.0 - grid_write_availability(GridShape::define(n), p),
                static_majority: 1.0 - majority_write_availability(n, p),
                dynamic_grid: DynamicModel::grid(n, 1.0, mu).unavailability().unwrap(),
                dynamic_voting: DynamicModel::majority(n, 1.0, mu).unavailability().unwrap(),
            });
        }
    }
    rows
}

/// Renders the sweep.
pub fn render(ns: &[usize], ps: &[f64]) -> String {
    let rows = compute(ns, ps);
    let mut t = Table::new(
        "E11 - static vs dynamic, grid vs voting (write unavailability)",
        &[
            "N",
            "p",
            "static grid",
            "static majority",
            "dynamic grid",
            "dynamic voting",
        ],
    );
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            format!("{:.2}", r.p),
            sci(r.static_grid),
            sci(r.static_majority),
            sci(r.dynamic_grid),
            sci(r.dynamic_voting),
        ]);
    }
    t.render()
}

/// Default sweeps.
pub const DEFAULT_NS: [usize; 4] = [5, 9, 15, 25];
/// Default node-up probabilities.
pub const DEFAULT_PS: [f64; 3] = [0.7, 0.9, 0.95];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_hold_across_the_sweep() {
        for r in compute(&DEFAULT_NS, &DEFAULT_PS) {
            // Dynamic always beats its static counterpart.
            assert!(r.dynamic_grid < r.static_grid, "N={} p={}", r.n, r.p);
            assert!(r.dynamic_voting < r.static_majority, "N={} p={}", r.n, r.p);
            // Voting's smaller minimum epoch beats the grid's.
            assert!(
                r.dynamic_voting <= r.dynamic_grid,
                "N={} p={}: voting {:.3e} vs grid {:.3e}",
                r.n,
                r.p,
                r.dynamic_voting,
                r.dynamic_grid
            );
        }
    }

    #[test]
    fn gap_shrinks_as_n_grows() {
        let rows = compute(&[5, 25], &[0.9]);
        let ratio = |r: &DynCompareRow| r.dynamic_grid / r.dynamic_voting.max(1e-300);
        let small = ratio(&rows[0]);
        let large = ratio(&rows[1]);
        assert!(
            large <= small * 10.0,
            "grid/voting gap should not explode with N: {small} -> {large}"
        );
    }
}
