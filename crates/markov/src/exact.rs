//! Structure-aware exact availability chain.
//!
//! The paper's Figure 3 model idealizes the grid: it assumes every epoch of
//! more than three nodes survives any single failure and that an epoch of
//! three blocks on any failure. The *published* coterie rule behaves
//! slightly differently (DESIGN.md §5): e.g. the `DefineGrid` layout for
//! N = 5 has a single-node column whose failure blocks even a 5-node epoch,
//! while a 3-node epoch actually survives two of its three possible single
//! failures. This module builds the exact continuous-time chain over
//! `(epoch, up-set)` states for a concrete [`CoterieRule`], so the idealized
//! and exact models can be compared (experiment E10).

// Offline analysis: visited-set membership is order-insensitive.
#![allow(clippy::disallowed_types)]

use crate::chain::{Ctmc, CtmcBuilder};
use crate::solve::{probability_of, stationary, SolveError};
use coterie_quorum::{CoterieRule, NodeId, NodeSet, PlanCache, QuorumKind};
use std::cell::RefCell;
use std::collections::VecDeque;

/// A state of the exact chain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExactState {
    /// Epoch equals the up-set `up`; available (assumption 4 keeps the epoch
    /// glued to the up-set while epoch changes keep succeeding).
    Available {
        /// The current epoch = set of up nodes.
        up: NodeSet,
    },
    /// An epoch change failed: the epoch is frozen at `epoch`, the up-set is
    /// `up`, and `up ∩ epoch` does not include a write quorum over `epoch`.
    Blocked {
        /// The frozen epoch.
        epoch: NodeSet,
        /// Currently-up nodes (inside and outside the epoch).
        up: NodeSet,
    },
}

impl ExactState {
    /// Whether writes are possible in this state.
    pub fn is_available(self) -> bool {
        matches!(self, ExactState::Available { .. })
    }
}

/// Builds the exact `(epoch, up-set)` chain for `rule` over `n` nodes with
/// per-node failure rate `lambda` and repair rate `mu`. Restricted to
/// `n <= 6` to keep the dense solve tractable.
pub fn exact_chain(rule: &dyn CoterieRule, n: usize, lambda: f64, mu: f64) -> Ctmc<ExactState> {
    assert!((1..=6).contains(&n), "exact chain limited to 6 nodes");
    assert!(lambda > 0.0 && mu > 0.0);
    let all = NodeSet::first_n(n);
    let nodes: Vec<NodeId> = all.to_vec();
    let mut b = CtmcBuilder::new();
    let start = ExactState::Available { up: all };
    b.state(start);
    let mut queue = VecDeque::from([start]);
    let mut seen = std::collections::HashSet::from([start]);
    // The BFS revisits the same epoch view for many up-sets; compile each
    // epoch's quorum plan once instead of re-deriving the rule structure
    // on every transition.
    let mut plans = PlanCache::new();
    let push = |b: &mut CtmcBuilder<ExactState>,
                queue: &mut VecDeque<ExactState>,
                seen: &mut std::collections::HashSet<ExactState>,
                from: ExactState,
                to: ExactState,
                rate: f64| {
        b.transition(from, to, rate);
        if seen.insert(to) {
            queue.push_back(to);
        }
    };

    while let Some(state) = queue.pop_front() {
        match state {
            ExactState::Available { up } => {
                let plan = plans.plan_for_set(rule, up);
                for &v in &nodes {
                    if up.contains(v) {
                        // Failure of an epoch member: the instantaneous
                        // epoch check succeeds iff the survivors include a
                        // write quorum over the old epoch.
                        let mut survivors = up;
                        survivors.remove(v);
                        let next = if plan.includes_quorum(survivors, QuorumKind::Write) {
                            ExactState::Available { up: survivors }
                        } else {
                            ExactState::Blocked {
                                epoch: up,
                                up: survivors,
                            }
                        };
                        push(&mut b, &mut queue, &mut seen, state, next, lambda);
                    } else {
                        // Repair of an outsider: the current (fully up)
                        // epoch is itself a write quorum, so the epoch
                        // check absorbs the newcomer.
                        let mut grown = up;
                        grown.insert(v);
                        push(
                            &mut b,
                            &mut queue,
                            &mut seen,
                            state,
                            ExactState::Available { up: grown },
                            mu,
                        );
                    }
                }
            }
            ExactState::Blocked { epoch, up } => {
                let plan = plans.plan_for_set(rule, epoch);
                for &v in &nodes {
                    if up.contains(v) {
                        // Further failures keep the system blocked
                        // (quorum predicates are monotone).
                        let mut fewer = up;
                        fewer.remove(v);
                        push(
                            &mut b,
                            &mut queue,
                            &mut seen,
                            state,
                            ExactState::Blocked { epoch, up: fewer },
                            lambda,
                        );
                    } else {
                        let mut grown = up;
                        grown.insert(v);
                        let next =
                            if plan.includes_quorum(grown.intersection(epoch), QuorumKind::Write) {
                                // Epoch check succeeds and installs all up
                                // nodes as the new epoch.
                                ExactState::Available { up: grown }
                            } else {
                                ExactState::Blocked { epoch, up: grown }
                            };
                        push(&mut b, &mut queue, &mut seen, state, next, mu);
                    }
                }
            }
        }
    }
    b.build()
}

/// Steady-state write unavailability of the exact chain.
pub fn exact_unavailability(
    rule: &dyn CoterieRule,
    n: usize,
    lambda: f64,
    mu: f64,
) -> Result<f64, SolveError> {
    exact_unavailability_kind(rule, n, lambda, mu, QuorumKind::Write)
}

/// Steady-state unavailability for the requested operation kind. Writes
/// are impossible exactly in blocked states; reads additionally succeed in
/// blocked states whose up members still include a *read* quorum over the
/// frozen epoch (the paper notes the read analysis is "completely
/// analogous"; experiment E12).
pub fn exact_unavailability_kind(
    rule: &dyn CoterieRule,
    n: usize,
    lambda: f64,
    mu: f64,
    kind: QuorumKind,
) -> Result<f64, SolveError> {
    let chain = exact_chain(rule, n, lambda, mu);
    let pi = stationary(&chain)?;
    let plans = RefCell::new(PlanCache::new());
    Ok(probability_of(&chain, &pi, |s| match (s, kind) {
        (ExactState::Available { .. }, _) => false,
        (ExactState::Blocked { .. }, QuorumKind::Write) => true,
        (ExactState::Blocked { epoch, up }, QuorumKind::Read) => {
            let mut plans = plans.borrow_mut();
            let plan = plans.plan_for_set(rule, *epoch);
            !plan.includes_quorum(up.intersection(*epoch), QuorumKind::Read)
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicModel;
    use coterie_quorum::{GridCoterie, MajorityCoterie, RowaCoterie, View};

    #[test]
    fn exact_majority_matches_idealized_chain() {
        // For majority voting the idealized Figure-3-style chain with
        // min_epoch = 2 is exact: every epoch >= 3 survives any single
        // failure, an epoch of 2 blocks on any failure and unfreezes when
        // both members are up.
        let rule = MajorityCoterie::new();
        for n in [3usize, 4, 5] {
            let exact = exact_unavailability(&rule, n, 1.0, 19.0).unwrap();
            let ideal = DynamicModel::majority(n, 1.0, 19.0)
                .unavailability()
                .unwrap();
            assert!(
                (exact - ideal).abs() / ideal < 1e-10,
                "n={n}: exact {exact:e} vs ideal {ideal:e}"
            );
        }
    }

    #[test]
    fn exact_grid_diverges_from_idealized_chain_at_n5() {
        // DefineGrid's 2x3 layout for N=5 has a singleton column: the exact
        // chain blocks more often above the minimum epoch but can also ride
        // epochs down to 2 nodes. The models must disagree.
        let rule = GridCoterie::new();
        let exact = exact_unavailability(&rule, 5, 1.0, 19.0).unwrap();
        let ideal = DynamicModel::grid(5, 1.0, 19.0).unavailability().unwrap();
        assert!(
            (exact - ideal).abs() / ideal > 0.5,
            "expected a material gap: exact {exact:e} vs ideal {ideal:e}"
        );
    }

    #[test]
    fn tall_grid_makes_figure3_exact() {
        // With the corrected tall orientation every epoch of >= 4 nodes
        // tolerates any single failure and a 3-node epoch (a single
        // column) blocks on any failure and thaws only when all three are
        // up — exactly the paper's Figure 3 assumptions. The exact chain
        // must therefore coincide with the idealized one.
        let rule = GridCoterie::tall();
        for n in [3usize, 4, 5, 6] {
            let exact = exact_unavailability(&rule, n, 1.0, 19.0).unwrap();
            let ideal = DynamicModel::grid(n, 1.0, 19.0).unavailability().unwrap();
            assert!(
                (exact - ideal).abs() / ideal < 1e-10,
                "n={n}: tall exact {exact:e} vs idealized {ideal:e}"
            );
        }
    }

    #[test]
    fn exact_grid_n4_beats_idealized_model() {
        // For N=4 (2x2 exact grid) epochs of 3 tolerate 2 of 3 single
        // failures under the published rule, so the exact protocol is
        // strictly more available than the paper's conservative model.
        let rule = GridCoterie::new();
        let exact = exact_unavailability(&rule, 4, 1.0, 19.0).unwrap();
        let ideal = DynamicModel::grid(4, 1.0, 19.0).unavailability().unwrap();
        assert!(
            exact < ideal,
            "exact {exact:e} should be below idealized {ideal:e}"
        );
    }

    #[test]
    fn rowa_exact_chain_blocks_after_first_failure_recovery_cycle() {
        // Dynamic ROWA: any failure still leaves... nothing — the write
        // quorum is the whole epoch, so the epoch can never shrink; but the
        // frozen epoch unfreezes as soon as the failed member returns
        // (up ∩ epoch = epoch). Availability = P(reaching the all-up state
        // from blocked states) — strictly less than P(all up) + churn.
        let rule = RowaCoterie::new();
        let n = 3;
        let exact = exact_unavailability(&rule, n, 1.0, 19.0).unwrap();
        // The epoch never shrinks below the full set, so availability is
        // exactly P(all n up) = p^n.
        let p: f64 = 0.95;
        let expect = 1.0 - p.powi(n as i32);
        assert!(
            (exact - expect).abs() < 1e-10,
            "got {exact}, expected {expect}"
        );
    }

    #[test]
    fn exact_chain_state_counts_are_sane() {
        let rule = GridCoterie::new();
        let chain = exact_chain(&rule, 4, 1.0, 19.0);
        // All states reachable, every available state's up-set distinct.
        assert!(chain.len() >= 16, "at least the 2^4 available states");
        for (i, s) in chain.states().iter().enumerate() {
            if let ExactState::Blocked { epoch, up } = s {
                let view = View::from_set(*epoch);
                assert!(
                    !rule.is_write_quorum(&view, up.intersection(*epoch)),
                    "state {i} marked blocked but has a quorum"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "limited to 6")]
    fn exact_chain_size_guard() {
        let rule = GridCoterie::new();
        let _ = exact_chain(&rule, 7, 1.0, 19.0);
    }
}
