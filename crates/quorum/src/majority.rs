//! Majority voting with unit votes (Gifford \[6\]): read and write
//! quorums are any `⌊N/2⌋ + 1` and `N + 1 - w` members of the view.

use crate::node::{NodeSet, View};
use crate::plan::QuorumPlan;
use crate::rule::{CoterieRule, QuorumKind};

/// A majority-voting coterie with one vote per node.
///
/// Write quorums are any `w = ⌊N/2⌋ + 1` nodes and read quorums any
/// `r = N + 1 - w` nodes, which guarantees both intersection properties.
/// This is the protocol the paper contrasts with structured coteries: "the
/// voting protocol \[6\], where the quorum size in the simplest case is
/// ⌊(N+1)/2⌋".
#[derive(Clone, Copy, Debug, Default)]
pub struct MajorityCoterie;

impl MajorityCoterie {
    /// The majority coterie.
    pub fn new() -> Self {
        MajorityCoterie
    }

    /// Write quorum size for a view of `n` nodes: `⌊N/2⌋ + 1`.
    pub fn write_quorum_size(&self, n: usize) -> usize {
        n / 2 + 1
    }

    /// Read quorum size for a view of `n` nodes: `N + 1 - w`.
    pub fn read_quorum_size(&self, n: usize) -> usize {
        n + 1 - self.write_quorum_size(n)
    }

    fn quorum_size(&self, n: usize, kind: QuorumKind) -> usize {
        match kind {
            QuorumKind::Read => self.read_quorum_size(n),
            QuorumKind::Write => self.write_quorum_size(n),
        }
    }
}

impl CoterieRule for MajorityCoterie {
    fn name(&self) -> &'static str {
        "majority"
    }

    fn includes_quorum(&self, view: &View, s: NodeSet, kind: QuorumKind) -> bool {
        if view.is_empty() {
            return false;
        }
        let present = s.intersection(view.set()).len();
        present >= self.quorum_size(view.len(), kind)
    }

    fn compile(&self, view: &View) -> QuorumPlan {
        if view.is_empty() {
            return QuorumPlan::never(view);
        }
        let n = view.len();
        QuorumPlan::threshold(view, self.read_quorum_size(n), self.write_quorum_size(n))
    }

    fn pick_quorum(
        &self,
        view: &View,
        prefer: NodeSet,
        seed: u64,
        kind: QuorumKind,
    ) -> Option<NodeSet> {
        if view.is_empty() {
            return None;
        }
        let need = self.quorum_size(view.len(), kind);
        let candidates = prefer.intersection(view.set()).to_vec();
        if candidates.len() < need {
            return None;
        }
        // Rotate the candidate ring by the seed for load sharing.
        let start = (seed as usize) % candidates.len();
        let mut quorum = NodeSet::new();
        for off in 0..need {
            quorum.insert(candidates[(start + off) % candidates.len()]);
        }
        debug_assert!(self.includes_quorum(view, quorum, kind));
        Some(quorum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn majority_sizes() {
        let m = MajorityCoterie::new();
        assert_eq!(m.write_quorum_size(5), 3);
        assert_eq!(m.read_quorum_size(5), 3);
        assert_eq!(m.write_quorum_size(6), 4);
        assert_eq!(m.read_quorum_size(6), 3);
        assert_eq!(m.write_quorum_size(1), 1);
    }

    #[test]
    fn quorum_predicate_counts_view_members_only() {
        let c = MajorityCoterie::new();
        let view = View::first_n(5);
        let mut s = NodeSet::from_iter([NodeId(0), NodeId(1)]);
        s.insert(NodeId(70)); // outside the view
        assert!(!c.is_write_quorum(&view, s));
        s.insert(NodeId(2));
        assert!(c.is_write_quorum(&view, s));
    }

    #[test]
    fn pick_quorum_is_valid_and_spreads() {
        let c = MajorityCoterie::new();
        let view = View::first_n(7);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..7 {
            let q = c
                .pick_quorum(&view, view.set(), seed, QuorumKind::Write)
                .unwrap();
            assert_eq!(q.len(), 4);
            assert!(c.is_write_quorum(&view, q));
            seen.insert(q);
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn pick_quorum_fails_without_enough_alive() {
        let c = MajorityCoterie::new();
        let view = View::first_n(5);
        let alive = NodeSet::from_iter([NodeId(0), NodeId(1)]);
        assert!(c.pick_quorum(&view, alive, 0, QuorumKind::Write).is_none());
        let alive3 = NodeSet::from_iter([NodeId(0), NodeId(1), NodeId(4)]);
        let q = c.pick_quorum(&view, alive3, 0, QuorumKind::Write).unwrap();
        assert!(q.is_subset_of(alive3));
    }
}
