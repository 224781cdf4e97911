//! **E10 — the idealized model vs the published rule.** The paper's
//! Figure 3 chain assumes every epoch above three nodes survives any
//! single failure and that a three-node epoch blocks on every failure.
//! Under the *published* `DefineGrid`/`IsWriteQuorum` pseudo-code this is
//! not exact (DESIGN.md §5): the N = 5 layout has a singleton column whose
//! failure blocks a five-node epoch, while a three-node epoch survives two
//! of its three possible single failures. This experiment quantifies the
//! gap with the exact `(epoch, up-set)` chain for small N and with
//! structure-aware Monte Carlo for larger N.

use crate::report::{sci, Table};
use crate::sitemodel::{replicated_unavailability, EpochDynamics, SiteModelConfig};
use coterie_markov::{exact_unavailability, DynamicModel};
use coterie_quorum::{CoterieRule, GridCoterie};
use std::sync::Arc;

/// One comparison row.
#[derive(Clone, Debug)]
pub struct ExactRow {
    /// Replica count.
    pub n: usize,
    /// The paper's idealized chain.
    pub idealized: f64,
    /// The exact chain (small N) — `None` when out of range.
    pub exact_chain: Option<f64>,
    /// The exact chain for the corrected *tall* orientation, which makes
    /// Figure 3 exact (small N only).
    pub exact_tall: Option<f64>,
    /// Structure-aware Monte Carlo mean.
    pub mc_mean: f64,
    /// Monte-Carlo standard error.
    pub mc_se: f64,
}

/// Computes the comparison at up probability `p`.
pub fn compute(p: f64, horizon: f64, replications: usize, seed: u64) -> Vec<ExactRow> {
    let mu = p / (1.0 - p);
    let rule: Arc<dyn CoterieRule> = Arc::new(GridCoterie::new());
    [3usize, 4, 5, 6, 9, 12]
        .into_iter()
        .map(|n| {
            let idealized = DynamicModel::grid(n, 1.0, mu).unavailability().unwrap();
            let exact_chain = (n <= 6).then(|| exact_unavailability(&*rule, n, 1.0, mu).unwrap());
            let tall = GridCoterie::tall();
            let exact_tall = (n <= 6).then(|| exact_unavailability(&tall, n, 1.0, mu).unwrap());
            let config = SiteModelConfig {
                n,
                lambda: 1.0,
                mu,
                dynamics: EpochDynamics::Exact { rule: rule.clone() },
                check_rate: None,
                horizon,
                warmup: horizon / 100.0,
                seed,
            };
            let (mc_mean, mc_se) = replicated_unavailability(&config, replications);
            ExactRow {
                n,
                idealized,
                exact_chain,
                exact_tall,
                mc_mean,
                mc_se,
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(p: f64, horizon: f64, replications: usize, seed: u64) -> String {
    let rows = compute(p, horizon, replications, seed);
    let mut t = Table::new(
        format!("E10 - idealized Figure 3 model vs published grid rule, p = {p}"),
        &[
            "N",
            "idealized chain",
            "exact (paper rule)",
            "exact (tall rule)",
            "exact MC",
            "MC s.e.",
        ],
    );
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            sci(r.idealized),
            r.exact_chain.map(sci).unwrap_or_else(|| "-".into()),
            r.exact_tall.map(sci).unwrap_or_else(|| "-".into()),
            sci(r.mc_mean),
            sci(r.mc_se),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_matches_exact_chain_where_both_exist() {
        for r in compute(0.7, 6_000.0, 4, 23) {
            if let Some(exact) = r.exact_chain {
                let tol = 6.0 * r.mc_se.max(3e-3);
                assert!(
                    (r.mc_mean - exact).abs() < tol,
                    "N={}: MC {:.5} vs chain {:.5}",
                    r.n,
                    r.mc_mean,
                    exact
                );
            }
        }
    }

    #[test]
    fn tall_rule_matches_idealized_everywhere() {
        for r in compute(0.8, 2_000.0, 2, 25) {
            if let Some(tall) = r.exact_tall {
                assert!(
                    (tall - r.idealized).abs() / r.idealized < 1e-9,
                    "N={}: tall {tall:e} vs idealized {:e}",
                    r.n,
                    r.idealized
                );
            }
        }
    }

    #[test]
    fn n5_gap_is_material() {
        let rows = compute(0.7, 4_000.0, 4, 24);
        let r5 = rows.iter().find(|r| r.n == 5).unwrap();
        let exact = r5.exact_chain.unwrap();
        assert!(
            (exact - r5.idealized).abs() / r5.idealized > 0.3,
            "exact {exact:.5} vs idealized {:.5}",
            r5.idealized
        );
    }
}
