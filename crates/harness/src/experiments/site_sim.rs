//! **E5 — Monte-Carlo validation of the availability analysis.** The
//! Figure 3 Markov chain (and the static closed forms) are checked against
//! direct stochastic simulation of the site model. The paper's p = 0.95
//! operating point makes dynamic unavailability (~1e-7 and below)
//! unmeasurable by simulation, so validation runs at lower node
//! availability where unavailable sojourns are frequent enough to
//! estimate; the *models* being validated are the same.

use crate::report::{sci, Table};
use crate::sitemodel::{replicated_unavailability, EpochDynamics, SiteModelConfig};
use coterie_markov::DynamicModel;
use coterie_quorum::availability::grid_write_availability;
use coterie_quorum::{GridCoterie, GridShape};
use std::sync::Arc;

/// One validation row.
#[derive(Clone, Debug)]
pub struct SiteSimRow {
    /// Replica count.
    pub n: usize,
    /// Node-up probability.
    pub p: f64,
    /// Which model was validated.
    pub model: String,
    /// Analytic unavailability.
    pub analytic: f64,
    /// Monte-Carlo mean unavailability.
    pub mc_mean: f64,
    /// Monte-Carlo standard error.
    pub mc_se: f64,
}

/// Runs the validation grid.
pub fn compute(horizon: f64, replications: usize, seed: u64) -> Vec<SiteSimRow> {
    let mut rows = Vec::new();
    for &(n, p) in &[(6usize, 0.6), (9, 0.6), (9, 0.8)] {
        let mu = p / (1.0 - p);
        let base = SiteModelConfig {
            n,
            lambda: 1.0,
            mu,
            dynamics: EpochDynamics::Idealized { min_epoch: 3 },
            check_rate: None,
            horizon,
            warmup: horizon / 100.0,
            seed,
        };
        // Dynamic grid (idealized chain).
        let (mc, se) = replicated_unavailability(&base, replications);
        let analytic = DynamicModel::grid(n, 1.0, mu).unavailability().unwrap();
        rows.push(SiteSimRow {
            n,
            p,
            model: "dynamic grid (Figure 3)".into(),
            analytic,
            mc_mean: mc,
            mc_se: se,
        });
        // Static grid (closed form).
        let mut stat = base.clone();
        stat.dynamics = EpochDynamics::Static {
            rule: Arc::new(GridCoterie::new()),
        };
        let (mc, se) = replicated_unavailability(&stat, replications);
        let analytic = 1.0 - grid_write_availability(GridShape::define(n), p);
        rows.push(SiteSimRow {
            n,
            p,
            model: "static grid (closed form)".into(),
            analytic,
            mc_mean: mc,
            mc_se: se,
        });
    }
    rows
}

/// Renders the validation table.
pub fn render(horizon: f64, replications: usize, seed: u64) -> String {
    let rows = compute(horizon, replications, seed);
    let mut t = Table::new(
        "E5 - Monte-Carlo validation of the availability models",
        &["N", "p", "model", "analytic", "MC mean", "MC s.e.", "|z|"],
    );
    for r in &rows {
        let z = if r.mc_se > 0.0 {
            ((r.mc_mean - r.analytic) / r.mc_se).abs()
        } else {
            0.0
        };
        t.row(&[
            r.n.to_string(),
            format!("{:.2}", r.p),
            r.model.clone(),
            sci(r.analytic),
            sci(r.mc_mean),
            sci(r.mc_se),
            format!("{z:.2}"),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_brackets_analytic_values() {
        for r in compute(8_000.0, 6, 11) {
            let tol = 6.0 * r.mc_se.max(2e-3);
            assert!(
                (r.mc_mean - r.analytic).abs() < tol,
                "{} N={} p={}: MC {:.5} vs analytic {:.5} (se {:.6})",
                r.model,
                r.n,
                r.p,
                r.mc_mean,
                r.analytic,
                r.mc_se
            );
        }
    }
}
