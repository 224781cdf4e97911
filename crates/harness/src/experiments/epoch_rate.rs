//! **E9 — sensitivity to the epoch-check rate.** The §6 analysis assumes
//! epoch checking runs between any two failure/repair events (assumption
//! 4). Here the assumption is relaxed: epoch checks arrive as a Poisson
//! process of finite rate, and unavailability is measured as a function of
//! the check-to-failure rate ratio. As the ratio grows the measurement
//! must converge to the instantaneous-checking value; as it shrinks the
//! protocol degrades toward static behaviour — quantifying the paper's
//! §2 argument for "a steady (albeit infrequent) pulse of epoch checking".

use crate::report::{sci, Table};
use crate::sitemodel::{replicated_unavailability, EpochDynamics, SiteModelConfig};
use coterie_quorum::{CoterieRule, GridCoterie};
use std::sync::Arc;

/// One point of the sweep.
#[derive(Clone, Debug)]
pub struct EpochRateRow {
    /// Check rate relative to the per-node failure rate (`None` =
    /// instantaneous, the paper's assumption).
    pub check_over_lambda: Option<f64>,
    /// Measured unavailability.
    pub unavailability: f64,
    /// Standard error.
    pub se: f64,
}

/// Sweeps the epoch-check rate for an N-node dynamic grid at up
/// probability `p`.
pub fn compute(
    n: usize,
    p: f64,
    horizon: f64,
    replications: usize,
    seed: u64,
) -> Vec<EpochRateRow> {
    let mu = p / (1.0 - p);
    let rule: Arc<dyn CoterieRule> = Arc::new(GridCoterie::new());
    let mut rows = Vec::new();
    let ratios: [Option<f64>; 6] = [
        Some(0.1),
        Some(0.5),
        Some(2.0),
        Some(10.0),
        Some(50.0),
        None,
    ];
    for ratio in ratios {
        let config = SiteModelConfig {
            n,
            lambda: 1.0,
            mu,
            dynamics: EpochDynamics::Exact { rule: rule.clone() },
            check_rate: ratio,
            horizon,
            warmup: horizon / 100.0,
            seed,
        };
        let (mean, se) = replicated_unavailability(&config, replications);
        rows.push(EpochRateRow {
            check_over_lambda: ratio,
            unavailability: mean,
            se,
        });
    }
    rows
}

/// Renders the sweep.
pub fn render(n: usize, p: f64, horizon: f64, replications: usize, seed: u64) -> String {
    let rows = compute(n, p, horizon, replications, seed);
    let mut t = Table::new(
        format!("E9 - unavailability vs epoch-check rate, N = {n}, p = {p} (exact grid dynamics)"),
        &["check rate / lambda", "unavailability", "s.e."],
    );
    for r in &rows {
        t.row(&[
            r.check_over_lambda
                .map(|x| format!("{x}"))
                .unwrap_or_else(|| "instantaneous".into()),
            sci(r.unavailability),
            sci(r.se),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_checking_is_monotonically_better() {
        let rows = compute(9, 0.8, 6_000.0, 4, 17);
        // Compare the slowest and fastest finite rates and the limit.
        let slow = rows.first().unwrap();
        let fast = rows
            .iter()
            .rev()
            .find(|r| r.check_over_lambda.is_some())
            .unwrap();
        let instant = rows.last().unwrap();
        assert!(slow.unavailability > fast.unavailability, "{rows:?}");
        // The fast finite rate should approach the instantaneous limit
        // within MC noise.
        let tol = 6.0 * (fast.se + instant.se).max(2e-3);
        assert!(
            (fast.unavailability - instant.unavailability).abs() < tol.max(0.01),
            "fast {:.5} vs instant {:.5}",
            fast.unavailability,
            instant.unavailability
        );
    }
}
