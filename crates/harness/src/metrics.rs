//! Run metrics: load-sharing statistics over per-node counts. Latency
//! distributions are the engine's [`Histogram`](coterie_core::Histogram).

/// Load-sharing statistics over per-node counts.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    /// Per-node counts (e.g. messages received).
    pub per_node: Vec<u64>,
}

impl LoadStats {
    /// Builds from raw counts.
    pub fn new(per_node: Vec<u64>) -> Self {
        LoadStats { per_node }
    }

    /// Mean per-node count.
    pub fn mean(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.per_node.iter().sum::<u64>() as f64 / self.per_node.len() as f64
    }

    /// Coefficient of variation (stddev / mean): 0 = perfectly balanced.
    pub fn cv(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 || self.per_node.len() < 2 {
            return 0.0;
        }
        let var = self
            .per_node
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / self.per_node.len() as f64;
        var.sqrt() / mean
    }

    /// Max/mean ratio: 1 = balanced; large = hot spot.
    pub fn peak_to_mean(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        self.per_node.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_balance_metrics() {
        let balanced = LoadStats::new(vec![10, 10, 10, 10]);
        assert_eq!(balanced.cv(), 0.0);
        assert_eq!(balanced.peak_to_mean(), 1.0);
        let skewed = LoadStats::new(vec![40, 0, 0, 0]);
        assert!(skewed.cv() > 1.5);
        assert_eq!(skewed.peak_to_mean(), 4.0);
        assert_eq!(LoadStats::new(vec![]).cv(), 0.0);
    }
}
