//! Compiled quorum plans: a [`CoterieRule`] × [`View`] pair reduced to a
//! handful of precomputed bitmasks so that the hot predicate
//! `coterie-rule(V, S)` becomes a few word operations on the `u128`
//! encoding of `S`, with no per-call allocation, position arithmetic, or
//! recursion.
//!
//! The paper's protocol evaluates `coterie-rule(V, S)` on every response
//! classification, every availability-model transition, and every
//! enumeration step over candidate sets — always against the *same* view
//! (the current epoch list) while `S` varies. A [`QuorumPlan`] hoists all
//! the view-dependent work (grid layout, thresholds, tree grouping) out
//! of the loop:
//!
//! * **Grid** — one occupancy mask per column. `S` includes a read quorum
//!   iff it intersects every column mask; a write quorum additionally
//!   requires some column mask to be entirely inside `S`.
//! * **Majority** — a popcount against precomputed read/write sizes.
//! * **Tree** — the hierarchy flattened into leaf masks and
//!   majority-of-children counters.
//! * **ROWA** — raw mask emptiness / equality tests.
//!
//! Every rule implements [`CoterieRule::compile`], so the plan is the one
//! evaluator; the legacy [`CoterieRule::includes_quorum`] predicate is the
//! oracle the equivalence tests check each plan against.
//!
//! A plan is valid only for the exact view it was compiled from — epoch
//! changes must discard it (see `DESIGN.md`, "Quorum plan compilation").

use crate::node::{NodeSet, View};
use crate::rule::{CoterieRule, QuorumKind};

/// One group in a flattened tree-quorum hierarchy: either a leaf group
/// whose members are tested directly, or an internal group satisfied by a
/// strict majority of its children. Children always precede their parent
/// in the plan's group vector, so the root is the last entry.
#[derive(Clone, Debug)]
pub enum TreeGroup {
    /// A leaf group: at least `need` members of `mask` must be present.
    Leaf {
        /// Bitmask of the group's members.
        mask: u128,
        /// Strict majority count over the group size.
        need: u32,
    },
    /// An internal group: at least `need` child groups must be satisfied.
    Inner {
        /// Indices of the child groups within the plan's group vector.
        children: Vec<usize>,
        /// Strict majority count over the number of children.
        need: u32,
    },
}

fn tree_satisfied(groups: &[TreeGroup], idx: usize, s: u128) -> bool {
    match &groups[idx] {
        TreeGroup::Leaf { mask, need } => (s & mask).count_ones() >= *need,
        TreeGroup::Inner { children, need } => {
            let mut have = 0u32;
            let mut left = children.len() as u32;
            for &c in children {
                if tree_satisfied(groups, c, s) {
                    have += 1;
                    if have >= *need {
                        return true;
                    }
                }
                left -= 1;
                if have + left < *need {
                    return false;
                }
            }
            false
        }
    }
}

/// The compiled evaluator body. Kept private: rules construct plans
/// through the typed [`QuorumPlan`] constructors.
#[derive(Clone, Debug)]
enum PlanBody {
    /// Empty view: nothing is a quorum.
    Never,
    /// Grid rule: one occupancy mask per column.
    Grid { columns: Vec<u128> },
    /// Unit-vote thresholds: popcount against per-kind sizes.
    Threshold { read_need: u32, write_need: u32 },
    /// Flattened tree hierarchy; read and write quorums coincide.
    Tree { groups: Vec<TreeGroup> },
    /// Read-one/write-all over the view mask.
    Rowa,
}

/// A quorum evaluator compiled for one specific view.
///
/// Obtained from [`CoterieRule::compile`]. Candidate sets are implicitly
/// intersected with the compiled view, exactly like the legacy predicate.
#[derive(Clone, Debug)]
pub struct QuorumPlan {
    view_set: NodeSet,
    body: PlanBody,
}

impl QuorumPlan {
    /// A plan under which no set is ever a quorum (the empty view).
    pub fn never(view: &View) -> Self {
        QuorumPlan {
            view_set: view.set(),
            body: PlanBody::Never,
        }
    }

    /// A compiled grid plan: `columns[j]` is the occupancy mask of grid
    /// column `j + 1`. A read quorum intersects every column; a write
    /// quorum additionally contains some whole column.
    pub fn grid(view: &View, columns: Vec<u128>) -> Self {
        QuorumPlan {
            view_set: view.set(),
            body: PlanBody::Grid { columns },
        }
    }

    /// A compiled unit-vote plan: a read (write) quorum is any
    /// `read_need` (`write_need`) view members.
    pub fn threshold(view: &View, read_need: usize, write_need: usize) -> Self {
        QuorumPlan {
            view_set: view.set(),
            body: PlanBody::Threshold {
                read_need: read_need as u32,
                write_need: write_need as u32,
            },
        }
    }

    /// A compiled tree plan over flattened [`TreeGroup`]s; the root group
    /// must be the last entry.
    pub fn tree(view: &View, groups: Vec<TreeGroup>) -> Self {
        assert!(!groups.is_empty(), "tree plan needs at least one group");
        QuorumPlan {
            view_set: view.set(),
            body: PlanBody::Tree { groups },
        }
    }

    /// A compiled read-one/write-all plan.
    pub fn rowa(view: &View) -> Self {
        QuorumPlan {
            view_set: view.set(),
            body: PlanBody::Rowa,
        }
    }

    /// The member set of the view this plan was compiled for. Useful as a
    /// cache key: a plan is valid exactly as long as the epoch list that
    /// produced it.
    #[inline]
    pub fn view_set(&self) -> NodeSet {
        self.view_set
    }

    /// Always true: every rule compiles. Kept only for the frozen
    /// benchmark's `quorum.compile_ns` probe, which calls it.
    pub fn is_compiled(&self) -> bool {
        true
    }

    /// The compiled `coterie-rule(V, S)`: equal to
    /// `rule.includes_quorum(view, s, kind)` for the rule and view it was
    /// compiled from.
    #[inline]
    pub fn includes_quorum(&self, s: NodeSet, kind: QuorumKind) -> bool {
        let s = s.0 & self.view_set.0;
        match &self.body {
            PlanBody::Never => false,
            PlanBody::Grid { columns } => {
                if columns.iter().any(|&c| s & c == 0) {
                    false
                } else {
                    match kind {
                        QuorumKind::Read => true,
                        QuorumKind::Write => columns.iter().any(|&c| c & !s == 0),
                    }
                }
            }
            PlanBody::Threshold {
                read_need,
                write_need,
            } => {
                let have = s.count_ones();
                match kind {
                    QuorumKind::Read => have >= *read_need,
                    QuorumKind::Write => have >= *write_need,
                }
            }
            PlanBody::Tree { groups } => tree_satisfied(groups, groups.len() - 1, s),
            PlanBody::Rowa => match kind {
                QuorumKind::Read => s != 0,
                QuorumKind::Write => s == self.view_set.0,
            },
        }
    }

    /// Convenience: the compiled predicate restricted to read quorums.
    #[inline]
    pub fn is_read_quorum(&self, s: NodeSet) -> bool {
        self.includes_quorum(s, QuorumKind::Read)
    }

    /// Convenience: the compiled predicate restricted to write quorums.
    #[inline]
    pub fn is_write_quorum(&self, s: NodeSet) -> bool {
        self.includes_quorum(s, QuorumKind::Write)
    }
}

/// A memoizing cache of compiled plans keyed by the view's member set.
///
/// Availability models and sweeps evaluate the quorum predicate against a
/// small, recurring set of views (one per epoch); this cache compiles each
/// view once and hands back the plan on every subsequent hit. The member
/// set is a complete key: every shipped rule derives its structure
/// deterministically from the ordered view, which is itself determined by
/// the member set.
/// (`BTreeMap` keeps cache traversal order-stable for the engine's
/// determinism contract; the cache is tiny — one entry per live epoch —
/// so the O(log n) lookup is irrelevant next to plan compilation.)
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    plans: std::collections::BTreeMap<NodeSet, QuorumPlan>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for `view`, compiling it on first use.
    pub fn plan_for(&mut self, rule: &dyn CoterieRule, view: &View) -> &QuorumPlan {
        self.plans
            .entry(view.set())
            .or_insert_with(|| rule.compile(view))
    }

    /// The plan for the view consisting of exactly the members of `set`.
    pub fn plan_for_set(&mut self, rule: &dyn CoterieRule, set: NodeSet) -> &QuorumPlan {
        self.plans
            .entry(set)
            .or_insert_with(|| rule.compile(&View::from_set(set)))
    }

    /// Number of compiled plans held.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True if no plan has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Drops every cached plan (e.g. when switching rules).
    pub fn clear(&mut self) {
        self.plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridCoterie;
    use crate::majority::MajorityCoterie;
    use crate::node::NodeId;
    use crate::rowa::RowaCoterie;
    use crate::tree::TreeCoterie;

    fn ids(v: &[u32]) -> NodeSet {
        NodeSet::from_iter(v.iter().map(|&x| NodeId(x)))
    }

    /// Exhaustively compares a compiled plan against the legacy predicate
    /// over every subset of the view (plus one stranger node).
    fn assert_equivalent(rule: &dyn CoterieRule, view: &View) {
        let plan = rule.compile(view);
        assert_eq!(plan.view_set(), view.set());
        let members = view.members();
        assert!(members.len() <= 16, "exhaustive check needs a small view");
        for mask in 0u32..(1 << members.len()) {
            let mut s = NodeSet::new();
            for (i, &node) in members.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(node);
                }
            }
            if mask % 3 == 0 {
                s.insert(NodeId(120)); // stranger: must never matter
            }
            for kind in [QuorumKind::Read, QuorumKind::Write] {
                assert_eq!(
                    plan.includes_quorum(s, kind),
                    rule.includes_quorum(view, s, kind),
                    "{} diverges: view={view:?} s={s:?} kind={kind:?}",
                    rule.name()
                );
            }
        }
    }

    #[test]
    fn grid_plan_matches_legacy() {
        for n in 1..=14 {
            assert_equivalent(&GridCoterie::new(), &View::first_n(n));
            assert_equivalent(&GridCoterie::tall(), &View::first_n(n));
        }
        // Non-contiguous names (epoch survivors).
        let view = View::new([NodeId(5), NodeId(9), NodeId(17), NodeId(40), NodeId(99)]);
        assert_equivalent(&GridCoterie::new(), &view);
        assert_equivalent(&GridCoterie::tall(), &view);
    }

    #[test]
    fn threshold_plan_matches_legacy() {
        for n in 1..=12 {
            assert_equivalent(&MajorityCoterie::new(), &View::first_n(n));
        }
    }

    #[test]
    fn tree_plan_matches_legacy() {
        for n in 1..=14 {
            assert_equivalent(&TreeCoterie::new(), &View::first_n(n));
        }
        let view = View::new([NodeId(2), NodeId(30), NodeId(31), NodeId(64), NodeId(90)]);
        assert_equivalent(&TreeCoterie::new(), &view);
    }

    #[test]
    fn rowa_plan_matches_legacy() {
        for n in 1..=8 {
            assert_equivalent(&RowaCoterie::new(), &View::first_n(n));
        }
    }

    #[test]
    fn empty_view_compiles_to_never() {
        let view = View::new([]);
        for rule in [
            Box::new(GridCoterie::new()) as Box<dyn CoterieRule>,
            Box::new(MajorityCoterie::new()),
            Box::new(TreeCoterie::new()),
            Box::new(RowaCoterie::new()),
        ] {
            let plan = rule.compile(&view);
            assert!(!plan.is_read_quorum(NodeSet::first_n(5)));
            assert!(!plan.is_write_quorum(NodeSet::first_n(5)));
        }
    }

    #[test]
    fn plan_cache_compiles_once_per_view() {
        let rule = GridCoterie::new();
        let mut cache = PlanCache::new();
        assert!(cache.is_empty());
        let v9 = View::first_n(9);
        let v4 = View::first_n(4);
        assert!(cache
            .plan_for(&rule, &v9)
            .is_write_quorum(ids(&[0, 3, 6, 1, 2])));
        assert_eq!(cache.len(), 1);
        cache.plan_for(&rule, &v9);
        assert_eq!(cache.len(), 1);
        cache.plan_for_set(&rule, v4.set());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.plan_for(&rule, &v4).view_set(), v4.set());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }
}
