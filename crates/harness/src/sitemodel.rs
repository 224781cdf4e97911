//! Monte-Carlo simulation of the §6 *site model*: nodes fail and repair as
//! independent Poisson processes; links are reliable; operations are
//! instantaneous. Used to cross-validate the Markov-chain availabilities
//! (experiment E5), to relax the "epoch checking between any two events"
//! assumption (E9), and to measure the structure-aware dynamics at sizes
//! the exact chain cannot reach (E10).

use coterie_quorum::{CoterieRule, NodeId, NodeSet, PlanCache, QuorumKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How the epoch reacts to failures and repairs.
#[derive(Clone)]
pub enum EpochDynamics {
    /// The paper's idealized Figure 3 model: any epoch larger than
    /// `min_epoch` survives a single failure; an epoch of exactly
    /// `min_epoch` freezes on any failure and thaws only when all its
    /// members are simultaneously up.
    Idealized {
        /// Smallest epoch size that blocks on failure (grid: 3).
        min_epoch: usize,
    },
    /// The published coterie rule decides: an epoch re-forms iff the up
    /// members of the current epoch include a write quorum over it.
    Exact {
        /// The coterie rule.
        rule: Arc<dyn CoterieRule>,
    },
    /// No epoch adjustment (the conventional static protocol): available
    /// iff the up set includes a write quorum over the full replica set.
    Static {
        /// The coterie rule.
        rule: Arc<dyn CoterieRule>,
    },
}

/// Site-model simulation parameters.
#[derive(Clone)]
pub struct SiteModelConfig {
    /// Number of replicas.
    pub n: usize,
    /// Per-node failure rate.
    pub lambda: f64,
    /// Per-node repair rate.
    pub mu: f64,
    /// Epoch dynamics under test.
    pub dynamics: EpochDynamics,
    /// Epoch-check rate. `None` = instantaneous checking after every event
    /// (site-model assumption 4); `Some(rate)` = Poisson epoch checks,
    /// relaxing the assumption (experiment E9).
    pub check_rate: Option<f64>,
    /// Total simulated time (in `1/lambda` units).
    pub horizon: f64,
    /// Warm-up time excluded from the estimate.
    pub warmup: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The estimate produced by one run.
#[derive(Clone, Copy, Debug)]
pub struct AvailabilityEstimate {
    /// Fraction of (post-warm-up) time the object was writable.
    pub availability: f64,
    /// `1 - availability`.
    pub unavailability: f64,
    /// Number of failure/repair events simulated.
    pub events: u64,
    /// Number of epoch changes performed.
    pub epoch_changes: u64,
}

enum SimEvent {
    Fail(usize),
    Repair(usize),
    EpochCheck,
}

/// Runs one Monte-Carlo site-model simulation.
pub fn simulate(config: &SiteModelConfig) -> AvailabilityEstimate {
    let n = config.n;
    assert!(n >= 1);
    // The idealized dynamics' availability predicate (epoch == up-set)
    // is only meaningful under instantaneous checking; rate-limited
    // checking (E9) needs the structure-aware predicate.
    assert!(
        config.check_rate.is_none() || !matches!(config.dynamics, EpochDynamics::Idealized { .. }),
        "rate-limited epoch checking requires Exact or Static dynamics"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut up = NodeSet::first_n(n);
    let mut epoch = NodeSet::first_n(n);
    let mut t = 0.0f64;
    let mut available_time = 0.0f64;
    let mut measured_time = 0.0f64;
    let mut events = 0u64;
    let mut epoch_changes = 0u64;

    // Quorum predicates are evaluated on every event but always against
    // the current epoch; the cache compiles one plan per distinct epoch.
    let mut plans = PlanCache::new();
    let available = |plans: &mut PlanCache, epoch: NodeSet, up: NodeSet| -> bool {
        match &config.dynamics {
            EpochDynamics::Idealized { min_epoch } => {
                // Frozen epochs are exactly the case epoch ⊄ up; while the
                // epoch tracks the up set the system is available as long
                // as the epoch is at least the minimum size.
                epoch.is_subset_of(up) && epoch.len() >= (*min_epoch).min(n)
            }
            EpochDynamics::Exact { rule } | EpochDynamics::Static { rule } => plans
                .plan_for_set(&**rule, epoch)
                .includes_quorum(up.intersection(epoch), QuorumKind::Write),
        }
    };
    let can_reform = |plans: &mut PlanCache, epoch: NodeSet, up: NodeSet| -> bool {
        match &config.dynamics {
            EpochDynamics::Idealized { min_epoch } => {
                let me = (*min_epoch).min(n);
                let survivors = up.intersection(epoch).len();
                // A write quorum of the idealized epoch: all members for
                // epochs at the minimum size, all-but-one above it.
                if epoch.len() <= me {
                    survivors == epoch.len()
                } else {
                    survivors + 1 >= epoch.len()
                }
            }
            EpochDynamics::Exact { rule } => plans
                .plan_for_set(&**rule, epoch)
                .includes_quorum(up.intersection(epoch), QuorumKind::Write),
            EpochDynamics::Static { .. } => false,
        }
    };

    while t < config.horizon {
        let up_count = up.len() as f64;
        let down_count = (n - up.len()) as f64;
        let check = config.check_rate.unwrap_or(0.0);
        let total_rate = up_count * config.lambda + down_count * config.mu + check;
        debug_assert!(total_rate > 0.0);
        let dt = -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / total_rate;
        // Accrue availability over the sojourn [t, t+dt).
        if t >= config.warmup {
            measured_time += dt;
            if available(&mut plans, epoch, up) {
                available_time += dt;
            }
        } else if t + dt > config.warmup {
            let tail = t + dt - config.warmup;
            measured_time += tail;
            if available(&mut plans, epoch, up) {
                available_time += tail;
            }
        }
        t += dt;
        // Sample which event fired.
        let x = rng.gen::<f64>() * total_rate;
        let event = if x < up_count * config.lambda {
            let k = rng.gen_range(0..up.len());
            SimEvent::Fail(k)
        } else if x < up_count * config.lambda + down_count * config.mu {
            let k = rng.gen_range(0..(n - up.len()));
            SimEvent::Repair(k)
        } else {
            SimEvent::EpochCheck
        };
        let is_check_event = matches!(event, SimEvent::EpochCheck);
        match event {
            SimEvent::Fail(k) => {
                let node = up.iter().nth(k).expect("k < up.len()");
                up.remove(node);
                events += 1;
            }
            SimEvent::Repair(k) => {
                let down: Vec<NodeId> = NodeSet::first_n(n).difference(up).to_vec();
                up.insert(down[k]);
                events += 1;
            }
            SimEvent::EpochCheck => {}
        }
        // Epoch checking: instantaneous mode runs after every fail/repair;
        // rate mode only on EpochCheck events.
        let run_check = match config.check_rate {
            None => !is_check_event,
            Some(_) => is_check_event,
        };
        if run_check
            && !matches!(config.dynamics, EpochDynamics::Static { .. })
            && epoch != up
            && can_reform(&mut plans, epoch, up)
        {
            epoch = up;
            epoch_changes += 1;
        }
    }
    let availability = if measured_time > 0.0 {
        available_time / measured_time
    } else {
        1.0
    };
    AvailabilityEstimate {
        availability,
        unavailability: 1.0 - availability,
        events,
        epoch_changes,
    }
}

/// Runs `replications` independent simulations and returns the mean
/// unavailability plus its standard error.
pub fn replicated_unavailability(config: &SiteModelConfig, replications: usize) -> (f64, f64) {
    assert!(replications >= 1);
    let run = |i: usize| {
        let mut c = config.clone();
        c.seed = config.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
        simulate(&c).unavailability
    };
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
        .min(replications);
    // Replications are independent and each is seeded by its own index, so
    // the sample vector is identical to the sequential one no matter how
    // many worker threads carry them.
    let samples: Vec<f64> = if workers <= 1 {
        (0..replications).map(run).collect()
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        (w..replications)
                            .step_by(workers)
                            .map(|i| (i, run(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut samples = vec![0.0; replications];
            for h in handles {
                for (i, s) in h.join().unwrap() {
                    samples[i] = s;
                }
            }
            samples
        })
    };
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
        / (samples.len().max(2) - 1) as f64;
    (mean, (var / samples.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_markov::DynamicModel;
    use coterie_quorum::availability::{grid_write_availability, majority_write_availability};
    use coterie_quorum::{GridCoterie, GridShape, MajorityCoterie};

    fn cfg(n: usize, mu: f64, dynamics: EpochDynamics) -> SiteModelConfig {
        SiteModelConfig {
            n,
            lambda: 1.0,
            mu,
            dynamics,
            check_rate: None,
            horizon: 30_000.0,
            warmup: 100.0,
            seed: 7,
        }
    }

    #[test]
    fn static_grid_mc_matches_closed_form() {
        // p = 0.6 (mu/lambda = 1.5) keeps unavailability large enough to
        // estimate accurately in a short run.
        let c = cfg(
            9,
            1.5,
            EpochDynamics::Static {
                rule: Arc::new(GridCoterie::new()),
            },
        );
        let (mc, se) = replicated_unavailability(&c, 8);
        let exact = 1.0 - grid_write_availability(GridShape::define(9), 0.6);
        assert!(
            (mc - exact).abs() < 5.0 * se.max(1e-3),
            "MC {mc:.4} vs exact {exact:.4} (se {se:.5})"
        );
    }

    #[test]
    fn static_majority_mc_matches_closed_form() {
        let c = cfg(
            5,
            1.5,
            EpochDynamics::Static {
                rule: Arc::new(MajorityCoterie::new()),
            },
        );
        let (mc, se) = replicated_unavailability(&c, 8);
        let exact = 1.0 - majority_write_availability(5, 0.6);
        assert!((mc - exact).abs() < 5.0 * se.max(1e-3), "{mc} vs {exact}");
    }

    #[test]
    fn idealized_mc_matches_figure3_chain() {
        let c = cfg(6, 1.5, EpochDynamics::Idealized { min_epoch: 3 });
        let (mc, se) = replicated_unavailability(&c, 8);
        let chain = DynamicModel::grid(6, 1.0, 1.5).unavailability().unwrap();
        assert!(
            (mc - chain).abs() < 6.0 * se.max(1e-3),
            "MC {mc:.5} vs chain {chain:.5} (se {se:.6})"
        );
    }

    #[test]
    fn exact_mc_matches_exact_chain_small_n() {
        let rule: Arc<dyn CoterieRule> = Arc::new(GridCoterie::new());
        let c = cfg(5, 1.5, EpochDynamics::Exact { rule: rule.clone() });
        let (mc, se) = replicated_unavailability(&c, 8);
        let chain = coterie_markov::exact_unavailability(&*rule, 5, 1.0, 1.5).unwrap();
        assert!(
            (mc - chain).abs() < 6.0 * se.max(1e-3),
            "MC {mc:.5} vs exact chain {chain:.5}"
        );
    }

    #[test]
    fn dynamic_beats_static_in_mc() {
        let stat = cfg(
            9,
            1.5,
            EpochDynamics::Static {
                rule: Arc::new(GridCoterie::new()),
            },
        );
        let dynm = cfg(9, 1.5, EpochDynamics::Idealized { min_epoch: 3 });
        let (us, _) = replicated_unavailability(&stat, 4);
        let (ud, _) = replicated_unavailability(&dynm, 4);
        assert!(ud < us, "dynamic {ud} should beat static {us}");
    }

    #[test]
    fn slower_epoch_checking_hurts_availability() {
        let mut fast = cfg(
            6,
            1.5,
            EpochDynamics::Exact {
                rule: Arc::new(GridCoterie::new()),
            },
        );
        fast.check_rate = Some(50.0);
        let mut slow = fast.clone();
        slow.check_rate = Some(0.2);
        let (uf, _) = replicated_unavailability(&fast, 6);
        let (us, _) = replicated_unavailability(&slow, 6);
        assert!(
            uf < us,
            "frequent checks ({uf:.4}) should beat rare checks ({us:.4})"
        );
    }

    #[test]
    fn estimate_fields_are_consistent() {
        let c = cfg(4, 2.0, EpochDynamics::Idealized { min_epoch: 3 });
        let est = simulate(&c);
        assert!((est.availability + est.unavailability - 1.0).abs() < 1e-12);
        assert!(est.events > 1000);
        assert!(est.epoch_changes > 0);
        assert!(est.availability > 0.0 && est.availability < 1.0);
    }
}
