//! Property-based equivalence: for every shipped rule, the compiled
//! [`QuorumPlan`] must agree with the legacy predicate on **every** input —
//! random views up to 20 members, with holes in the name space (as arise
//! after epoch changes), and candidate sets that may contain nodes outside
//! the view. This is the contract that lets the protocol core swap
//! `includes_quorum` for plan evaluation without behavioral change.

mod common;

use common::rules;
use coterie_quorum::{NodeId, NodeSet, PlanCache, QuorumKind, View};
use proptest::prelude::*;

/// A view of 1..=20 nodes with names drawn sparsely from 0..60.
fn view_strategy() -> impl Strategy<Value = View> {
    proptest::collection::btree_set(0u32..60, 1..=20)
        .prop_map(|names| View::new(names.into_iter().map(NodeId)))
}

/// Selects view members by `mask` bit position and mixes in up to two
/// nodes that may fall outside the view (the legacy predicates ignore
/// strangers; compiled plans must too).
fn candidate(view: &View, mask: u32, strangers: (u32, u32)) -> NodeSet {
    let mut s = NodeSet::new();
    for (i, &n) in view.members().iter().enumerate() {
        if mask & (1 << i) != 0 {
            s.insert(n);
        }
    }
    s.insert(NodeId(strangers.0));
    s.insert(NodeId(strangers.1));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled plans agree with the legacy predicates on random inputs.
    #[test]
    fn compiled_matches_legacy(
        view in view_strategy(),
        mask in any::<u32>(),
        sx in 0u32..64,
        sy in 0u32..64,
    ) {
        for rule in rules() {
            let plan = rule.compile(&view);
            let s = candidate(&view, mask, (sx, sy));
            for kind in [QuorumKind::Read, QuorumKind::Write] {
                let legacy = rule.includes_quorum(&view, s, kind);
                let compiled = plan.includes_quorum(s, kind);
                prop_assert_eq!(
                    legacy, compiled,
                    "{}: plan disagrees on {:?} over {:?} ({:?})",
                    rule.name(), s, view, kind
                );
            }
        }
    }

    /// The plan cache returns plans equivalent to a fresh compile, and one
    /// entry serves every lookup of the same view.
    #[test]
    fn cache_is_transparent(view in view_strategy(), mask in any::<u32>()) {
        for rule in rules() {
            let mut cache = PlanCache::new();
            let s = candidate(&view, mask, (0, 0));
            for kind in [QuorumKind::Read, QuorumKind::Write] {
                let legacy = rule.includes_quorum(&view, s, kind);
                let via_cache = cache
                    .plan_for(&*rule, &view)
                    .includes_quorum(s, kind);
                prop_assert_eq!(legacy, via_cache, "{}: cached plan diverged", rule.name());
            }
            prop_assert_eq!(cache.len(), 1);
            // A second lookup (by set) must not grow the cache.
            let _ = cache.plan_for_set(&*rule, view.set());
            prop_assert_eq!(cache.len(), 1);
        }
    }

    /// Exhaustive agreement over all 2^N subsets for small views: no
    /// sampling gaps where the masks actually fit in a scan.
    #[test]
    fn compiled_matches_legacy_exhaustively_small(
        names in proptest::collection::btree_set(0u32..24, 1..=8),
    ) {
        let view = View::new(names.into_iter().map(NodeId));
        for rule in rules() {
            let plan = rule.compile(&view);
            for mask in 0u32..(1 << view.len()) {
                let s = candidate(&view, mask, (0, 0));
                for kind in [QuorumKind::Read, QuorumKind::Write] {
                    prop_assert_eq!(
                        rule.includes_quorum(&view, s, kind),
                        plan.includes_quorum(s, kind),
                        "{}: mask {:#b} over {:?}", rule.name(), mask, view
                    );
                }
            }
        }
    }
}
