//! Property-based tests: every shipped coterie rule must satisfy the
//! intersection and monotonicity properties the paper's correctness proof
//! (§4.4) relies on, for arbitrary views — including views with sparse,
//! non-contiguous node names, as arise after epoch changes.

mod common;

use common::rules;
use coterie_quorum::{
    CoterieRule, GridCoterie, GridShape, MajorityCoterie, NodeId, NodeSet, QuorumKind, View,
};
use proptest::prelude::*;

/// Strategy: a view of 1..=12 nodes with names drawn from 0..40.
fn view_strategy() -> impl Strategy<Value = View> {
    proptest::collection::btree_set(0u32..40, 1..=12)
        .prop_map(|names| View::new(names.into_iter().map(NodeId)))
}

/// Strategy: a subset mask over the view positions.
fn subset_of(view: &View) -> NodeSet {
    view.set()
}

fn subset_from_mask(view: &View, mask: u32) -> NodeSet {
    let mut s = NodeSet::new();
    for (i, &n) in view.members().iter().enumerate() {
        if mask & (1 << i) != 0 {
            s.insert(n);
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any two subsets that each include a write quorum must intersect, and
    /// a read-quorum-including subset must intersect every write-quorum-
    /// including subset.
    #[test]
    fn intersection_property(view in view_strategy(), a in any::<u32>(), b in any::<u32>()) {
        for rule in rules() {
            let sa = subset_from_mask(&view, a);
            let sb = subset_from_mask(&view, b);
            if rule.is_write_quorum(&view, sa) && rule.is_write_quorum(&view, sb) {
                prop_assert!(sa.intersects(sb),
                    "{}: disjoint write quorums over {view:?}: {sa:?} / {sb:?}", rule.name());
            }
            if rule.is_read_quorum(&view, sa) && rule.is_write_quorum(&view, sb) {
                prop_assert!(sa.intersects(sb),
                    "{}: read quorum disjoint from write quorum over {view:?}", rule.name());
            }
        }
    }

    /// Supersets of quorums are quorums (the predicate is monotone).
    #[test]
    fn monotonicity(view in view_strategy(), mask in any::<u32>(), extra in 0u32..40) {
        for rule in rules() {
            let s = subset_from_mask(&view, mask);
            let mut bigger = s;
            bigger.insert(NodeId(extra));
            for kind in [QuorumKind::Read, QuorumKind::Write] {
                if rule.includes_quorum(&view, s, kind) {
                    prop_assert!(rule.includes_quorum(&view, bigger, kind),
                        "{}: adding a node destroyed a quorum", rule.name());
                }
            }
        }
    }

    /// The whole view is always a quorum of both kinds; the empty set never is.
    #[test]
    fn extremes(view in view_strategy()) {
        for rule in rules() {
            for kind in [QuorumKind::Read, QuorumKind::Write] {
                prop_assert!(rule.includes_quorum(&view, subset_of(&view), kind),
                    "{}: full view is not a quorum of {view:?}", rule.name());
                prop_assert!(!rule.includes_quorum(&view, NodeSet::EMPTY, kind),
                    "{}: empty set is a quorum", rule.name());
            }
        }
    }

    /// A write quorum is always also a read quorum for the shipped rules
    /// (the paper defines write quorums as "some read quorum plus ..." for
    /// the grid; voting thresholds satisfy w >= r).
    #[test]
    fn write_implies_read(view in view_strategy(), mask in any::<u32>()) {
        for rule in rules() {
            let s = subset_from_mask(&view, mask);
            if rule.is_write_quorum(&view, s) {
                prop_assert!(rule.is_read_quorum(&view, s),
                    "{}: write quorum that is not a read quorum", rule.name());
            }
        }
    }

    /// pick_quorum output always satisfies the predicate, stays within the
    /// preferred set, and respects the view.
    #[test]
    fn pick_quorum_sound(view in view_strategy(), prefer_mask in any::<u32>(), seed in any::<u64>()) {
        for rule in rules() {
            let prefer = subset_from_mask(&view, prefer_mask);
            for kind in [QuorumKind::Read, QuorumKind::Write] {
                if let Some(q) = rule.pick_quorum(&view, prefer, seed, kind) {
                    prop_assert!(rule.includes_quorum(&view, q, kind),
                        "{}: picked non-quorum", rule.name());
                    prop_assert!(q.is_subset_of(prefer.intersection(view.set())),
                        "{}: pick left the preferred set", rule.name());
                }
                // Full preference must always succeed (the full view is a quorum).
                let q = rule.pick_quorum(&view, view.set(), seed, kind);
                prop_assert!(q.is_some(), "{}: cannot pick from full view", rule.name());
            }
        }
    }

    /// DefineGrid invariants for arbitrary N, plus placement bijectivity.
    #[test]
    fn grid_shape_invariants(n_nodes in 1usize..=512) {
        let g = GridShape::define(n_nodes);
        prop_assert!(g.m * g.n >= n_nodes);
        prop_assert!(g.b < g.n);
        prop_assert!(g.m.abs_diff(g.n) <= 1);
        prop_assert_eq!(g.occupied(), n_nodes);
        let mut seen = std::collections::BTreeSet::new();
        for k in 1..=n_nodes {
            let (i, j) = g.position(k);
            prop_assert!(seen.insert((i, j)), "position collision at k={}", k);
            prop_assert_eq!(g.ordered_number_at(i, j), Some(k));
        }
    }

    /// The epoch-change precondition of the dynamic protocol: removing a
    /// single node from a view of >= 4 nodes leaves a write quorum for the
    /// majority rule (this is what makes dynamic voting shrink gracefully).
    #[test]
    fn majority_tolerates_single_failure(view in view_strategy()) {
        prop_assume!(view.len() >= 3);
        let rule = MajorityCoterie::new();
        for &victim in view.members() {
            let mut survivors = view.set();
            survivors.remove(victim);
            prop_assert!(rule.is_write_quorum(&view, survivors));
        }
    }
}

/// Deterministic check of the paper's §6 claim and its boundary: grids of
/// 4, 6, 7, 8, 9, ... nodes tolerate any single failure; the N = 3 and
/// N = 5 grids produced by the published DefineGrid both contain a
/// single-node column whose failure blocks every quorum (see DESIGN.md §5).
#[test]
fn grid_single_failure_tolerance_boundary() {
    let rule = GridCoterie::new();
    let tolerant = |n_nodes: usize| -> bool {
        let view = View::first_n(n_nodes);
        view.members().iter().all(|&victim| {
            let mut survivors = view.set();
            survivors.remove(victim);
            rule.is_write_quorum(&view, survivors)
        })
    };
    assert!(!tolerant(3));
    assert!(tolerant(4));
    assert!(!tolerant(5), "N=5 has a singleton column under DefineGrid");
    for n in 6..=30 {
        assert!(tolerant(n), "grid of {n} nodes should tolerate one failure");
    }
}
