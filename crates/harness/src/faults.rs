//! Fault-injection schedules: per-node Poisson crash/repair processes,
//! pre-generated so runs stay reproducible.

use coterie_core::StepDriver;
use coterie_quorum::NodeId;
use coterie_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-injection parameters.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Per-node crash rate (per simulated second). Zero (or any
    /// non-finite or negative value) disables crashes.
    pub lambda_per_sec: f64,
    /// Per-node repair rate (per simulated second). Zero (or any
    /// non-finite or negative value) makes the first crash of each node
    /// final: it goes down and never recovers within the plan.
    pub mu_per_sec: f64,
    /// Horizon to pre-generate.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            lambda_per_sec: 0.0,
            mu_per_sec: 1.0,
            duration: SimDuration::from_secs(60),
            seed: 0xDEAD,
        }
    }
}

/// One scheduled fault event.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Crash `node`.
    Crash(NodeId),
    /// Recover `node`.
    Recover(NodeId),
}

impl FaultEvent {
    /// Applies the fault to `driver` now. Crashing a node that is already
    /// down, or recovering one that is up, does nothing.
    pub fn apply(&self, driver: &mut StepDriver) {
        match self {
            FaultEvent::Crash(node) if !driver.is_down(*node) => driver.crash(*node),
            FaultEvent::Recover(node) if driver.is_down(*node) => driver.recover(*node),
            FaultEvent::Crash(_) | FaultEvent::Recover(_) => {}
        }
    }
}

/// A pre-generated, time-ordered fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The schedule.
    pub events: Vec<(SimTime, FaultEvent)>,
}

impl FaultPlan {
    /// Generates independent alternating crash/repair processes for each
    /// node.
    pub fn generate(config: &FaultConfig, n_nodes: usize) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if !config.lambda_per_sec.is_finite() || config.lambda_per_sec <= 0.0 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let horizon = config.duration.as_secs_f64();
        for node in (0..n_nodes as u32).map(NodeId) {
            let mut t = 0.0f64;
            let mut up = true;
            loop {
                let rate = if up {
                    config.lambda_per_sec
                } else {
                    config.mu_per_sec
                };
                // A non-positive (or NaN/infinite) rate means this state
                // is absorbing — the exponential inter-arrival time would
                // be infinite (or nonsense), so the process stops here
                // rather than emitting events at garbage timestamps.
                if !rate.is_finite() || rate <= 0.0 {
                    break;
                }
                t += -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / rate;
                if t >= horizon {
                    break;
                }
                let at = SimTime((t * 1e6) as u64);
                plan.events.push((
                    at,
                    if up {
                        FaultEvent::Crash(node)
                    } else {
                        FaultEvent::Recover(node)
                    },
                ));
                up = !up;
            }
        }
        plan.events.sort_by_key(|(t, _)| *t);
        plan
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lambda_means_no_faults() {
        let plan = FaultPlan::generate(&FaultConfig::default(), 5);
        assert!(plan.is_empty());
    }

    #[test]
    fn processes_alternate_per_node() {
        let cfg = FaultConfig {
            lambda_per_sec: 0.5,
            mu_per_sec: 2.0,
            duration: SimDuration::from_secs(100),
            ..Default::default()
        };
        let plan = FaultPlan::generate(&cfg, 3);
        assert!(!plan.is_empty());
        for node in (0..3).map(NodeId) {
            let mine: Vec<_> = plan
                .events
                .iter()
                .filter(|(_, e)| matches!(e, FaultEvent::Crash(n) | FaultEvent::Recover(n) if *n == node))
                .collect();
            let mut expect_crash = true;
            for (_, e) in mine {
                match e {
                    FaultEvent::Crash(_) => {
                        assert!(expect_crash, "two crashes in a row for {node:?}");
                        expect_crash = false;
                    }
                    FaultEvent::Recover(_) => {
                        assert!(!expect_crash);
                        expect_crash = true;
                    }
                }
            }
        }
        // Time-ordered overall.
        for pair in plan.events.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn degenerate_rates_produce_no_garbage_events() {
        for lambda in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = FaultConfig {
                lambda_per_sec: lambda,
                ..Default::default()
            };
            assert!(
                FaultPlan::generate(&cfg, 4).is_empty(),
                "lambda={lambda} should disable crashes"
            );
        }
    }

    #[test]
    fn zero_mu_means_first_crash_is_final() {
        for mu in [0.0, -3.0, f64::NAN] {
            let cfg = FaultConfig {
                lambda_per_sec: 5.0,
                mu_per_sec: mu,
                duration: SimDuration::from_secs(200),
                ..Default::default()
            };
            let plan = FaultPlan::generate(&cfg, 3);
            for node in (0..3).map(NodeId) {
                let mine: Vec<_> = plan
                    .events
                    .iter()
                    .filter(|(_, e)| {
                        matches!(e, FaultEvent::Crash(n) | FaultEvent::Recover(n) if *n == node)
                    })
                    .collect();
                assert!(
                    mine.len() <= 1,
                    "mu={mu}: {node:?} has {} events",
                    mine.len()
                );
                if let Some((t, e)) = mine.first() {
                    assert!(matches!(e, FaultEvent::Crash(_)));
                    assert!(t.0 < 200_000_000, "event past the horizon");
                }
            }
        }
    }
}
