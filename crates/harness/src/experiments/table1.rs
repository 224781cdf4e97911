//! **E1 — Table 1 of the paper**: write unavailability of the conventional
//! (static) grid protocol at its best dimensions versus the dynamic grid
//! protocol, for p = 0.95 (μ/λ = 19) and N ∈ {9, 12, 15, 16, 20, 24, 30}.
//!
//! The static column is closed-form (`coterie_quorum::availability`); the
//! dynamic column solves the paper's Figure 3 Markov chain with the GTH
//! algorithm (`coterie_markov::DynamicModel`). The paper's printed values
//! are shown alongside for direct comparison.

use crate::report::Table;
use coterie_markov::DynamicModel;
use coterie_quorum::availability::best_static_grid;

/// The replica counts Table 1 covers.
pub const TABLE1_N: [usize; 7] = [9, 12, 15, 16, 20, 24, 30];

/// The paper's printed unavailability values (None = reported as
/// "negligible" or omitted).
pub const PAPER_STATIC: [f64; 7] = [
    3268.59e-6, 912.25e-6, 683.60e-6, 1208.75e-6, 250.82e-6, 78.23e-6, 135.90e-6,
];

/// The paper's dynamic-grid column.
pub const PAPER_DYNAMIC: [Option<f64>; 7] = [
    Some(0.18e-6),
    Some(0.6e-10),
    Some(1.564e-14),
    None,
    None,
    None,
    None,
];

/// One row of the regenerated table.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Number of replicas.
    pub n: usize,
    /// Best static grid dimensions (rows, columns).
    pub best_dims: (usize, usize),
    /// Our computed static unavailability.
    pub static_unavail: f64,
    /// The paper's printed static unavailability.
    pub paper_static: f64,
    /// Our computed dynamic unavailability.
    pub dynamic_unavail: f64,
    /// The paper's printed dynamic unavailability, if given.
    pub paper_dynamic: Option<f64>,
}

/// Computes all rows at the given node-up probability.
pub fn compute(p: f64) -> Vec<Table1Row> {
    let mu_over_lambda = p / (1.0 - p);
    TABLE1_N
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let (shape, avail) = best_static_grid(n, p);
            let dynamic = DynamicModel::grid(n, 1.0, mu_over_lambda)
                .unavailability()
                .expect("figure-3 chain is irreducible");
            Table1Row {
                n,
                best_dims: (shape.m, shape.n),
                static_unavail: 1.0 - avail,
                paper_static: PAPER_STATIC[i],
                dynamic_unavail: dynamic,
                paper_dynamic: PAPER_DYNAMIC[i],
            }
        })
        .collect()
}

/// Renders the table exactly in the paper's row order, with paper values
/// interleaved.
pub fn render(p: f64) -> String {
    let rows = compute(p);
    let mut t = Table::new(
        format!("Table 1 - write unavailability, p = {p} (x 1e-6 where shown)"),
        &[
            "N",
            "best dims",
            "static (ours)",
            "static (paper)",
            "dynamic (ours)",
            "dynamic (paper)",
        ],
    );
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            format!("{}x{}", r.best_dims.0, r.best_dims.1),
            format!("{:.2}", r.static_unavail * 1e6),
            format!("{:.2}", r.paper_static * 1e6),
            format!("{:.3e}", r.dynamic_unavail),
            r.paper_dynamic
                .map(|v| format!("{v:.3e}"))
                .unwrap_or_else(|| "negligible".into()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_values() {
        let rows = compute(0.95);
        for r in &rows {
            assert!(
                (r.static_unavail - r.paper_static).abs() / r.paper_static < 2e-3,
                "N={}: static {:.4e} vs paper {:.4e}",
                r.n,
                r.static_unavail,
                r.paper_static
            );
            if let Some(paper) = r.paper_dynamic {
                assert!(
                    (r.dynamic_unavail - paper).abs() / paper < 0.1,
                    "N={}: dynamic {:.4e} vs paper {:.4e}",
                    r.n,
                    r.dynamic_unavail,
                    paper
                );
            } else {
                assert!(r.dynamic_unavail < 1e-15, "N={} should be negligible", r.n);
            }
            // The headline: orders of magnitude improvement.
            assert!(r.static_unavail / r.dynamic_unavail.max(1e-300) > 1e3);
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let s = render(0.95);
        for n in TABLE1_N {
            assert!(
                s.contains(&format!("\n{n} ")) || s.contains(&format!(" {n} ")),
                "{s}"
            );
        }
        assert!(s.contains("negligible"));
    }
}
