//! Hierarchical quorum consensus (Kumar, cited as \[10\] in the paper):
//! nodes are organized into a recursive hierarchy of groups and a quorum
//! must satisfy a majority of subgroups at every level. Quorum sizes grow as
//! roughly `N^0.63`, between the grid's `O(√N)` and voting's `O(N)`.
//!
//! Like the grid, the hierarchy is derived deterministically from the
//! ordered view, so the rule plugs directly into the dynamic epoch protocol.

use crate::node::{NodeSet, View};
use crate::plan::{QuorumPlan, TreeGroup};
use crate::rule::{CoterieRule, QuorumKind};

/// Children per internal group of the hierarchy (Kumar's classic 3).
const BRANCHING: usize = 3;

/// Hierarchical (tree) quorum coterie with a branching factor of 3.
///
/// Read and write quorums coincide (majority-of-majorities at every level),
/// which satisfies both intersection properties: two quorums each satisfy
/// strict majorities of the same group's children and therefore share a
/// child, recursively down to a shared leaf.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeCoterie;

impl TreeCoterie {
    /// The tree coterie.
    pub fn new() -> Self {
        TreeCoterie
    }

    /// Recursively checks whether the members of `present` (given as
    /// positions `lo..hi` within the ordered view) satisfy the hierarchy.
    fn check(&self, view: &View, present: NodeSet, lo: usize, hi: usize) -> bool {
        let len = hi - lo;
        debug_assert!(len >= 1);
        if len == 1 {
            let node = view.members()[lo];
            return present.contains(node);
        }
        if len <= BRANCHING {
            // Leaf group: strict majority of its members.
            let have = (lo..hi)
                .filter(|&i| present.contains(view.members()[i]))
                .count();
            return have > len / 2;
        }
        // Internal group: split into `BRANCHING` nearly equal children and
        // require a strict majority of satisfied children.
        let children = self.split(lo, hi);
        let satisfied = children
            .iter()
            .filter(|&&(clo, chi)| self.check(view, present, clo, chi))
            .count();
        satisfied > children.len() / 2
    }

    /// Splits positions `lo..hi` into `BRANCHING` contiguous, nearly equal,
    /// non-empty ranges.
    fn split(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let len = hi - lo;
        let k = BRANCHING.min(len);
        let base = len / k;
        let extra = len % k;
        let mut out = Vec::with_capacity(k);
        let mut start = lo;
        for c in 0..k {
            let sz = base + usize::from(c < extra);
            out.push((start, start + sz));
            start += sz;
        }
        debug_assert_eq!(start, hi);
        out
    }

    /// Flattens the hierarchy for positions `lo..hi` into `out` (children
    /// before parents), returning the index of the group for this range.
    fn flatten(&self, view: &View, lo: usize, hi: usize, out: &mut Vec<TreeGroup>) -> usize {
        let len = hi - lo;
        debug_assert!(len >= 1);
        if len <= BRANCHING {
            let mut mask = 0u128;
            for i in lo..hi {
                mask |= 1u128 << view.members()[i].index();
            }
            out.push(TreeGroup::Leaf {
                mask,
                need: (len / 2 + 1) as u32,
            });
        } else {
            let children: Vec<usize> = self
                .split(lo, hi)
                .into_iter()
                .map(|(clo, chi)| self.flatten(view, clo, chi, out))
                .collect();
            let need = (children.len() / 2 + 1) as u32;
            out.push(TreeGroup::Inner { children, need });
        }
        out.len() - 1
    }

    /// Greedily assembles a quorum from preferred nodes for positions
    /// `lo..hi`, returning the chosen set or `None` if impossible.
    fn build(
        &self,
        view: &View,
        prefer: NodeSet,
        seed: u64,
        lo: usize,
        hi: usize,
    ) -> Option<NodeSet> {
        let len = hi - lo;
        if len == 1 {
            let node = view.members()[lo];
            return prefer.contains(node).then(|| NodeSet::singleton(node));
        }
        if len <= BRANCHING {
            let need = len / 2 + 1;
            let mut picked = NodeSet::new();
            let mut have = 0;
            for off in 0..len {
                let i = lo + (off + seed as usize) % len;
                let node = view.members()[i];
                if prefer.contains(node) {
                    picked.insert(node);
                    have += 1;
                    if have == need {
                        return Some(picked);
                    }
                }
            }
            return None;
        }
        let children = self.split(lo, hi);
        let need = children.len() / 2 + 1;
        let mut picked = NodeSet::new();
        let mut have = 0;
        for off in 0..children.len() {
            let (clo, chi) = children[(off + seed as usize) % children.len()];
            if let Some(sub) = self.build(view, prefer, seed.rotate_left(7), clo, chi) {
                picked = picked.union(sub);
                have += 1;
                if have == need {
                    return Some(picked);
                }
            }
        }
        None
    }
}

impl CoterieRule for TreeCoterie {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn includes_quorum(&self, view: &View, s: NodeSet, _kind: QuorumKind) -> bool {
        if view.is_empty() {
            return false;
        }
        self.check(view, s.intersection(view.set()), 0, view.len())
    }

    fn compile(&self, view: &View) -> QuorumPlan {
        if view.is_empty() {
            return QuorumPlan::never(view);
        }
        let mut groups = Vec::new();
        self.flatten(view, 0, view.len(), &mut groups);
        QuorumPlan::tree(view, groups)
    }

    fn pick_quorum(
        &self,
        view: &View,
        prefer: NodeSet,
        seed: u64,
        _kind: QuorumKind,
    ) -> Option<NodeSet> {
        if view.is_empty() {
            return None;
        }
        let q = self.build(view, prefer.intersection(view.set()), seed, 0, view.len())?;
        debug_assert!(self.includes_quorum(view, q, QuorumKind::Write));
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn ids(v: &[u32]) -> NodeSet {
        NodeSet::from_iter(v.iter().map(|&x| NodeId(x)))
    }

    #[test]
    fn singleton_view() {
        let t = TreeCoterie::new();
        let view = View::first_n(1);
        assert!(t.is_write_quorum(&view, ids(&[0])));
        assert!(!t.is_write_quorum(&view, NodeSet::EMPTY));
    }

    #[test]
    fn leaf_group_majority() {
        let t = TreeCoterie::new();
        let view = View::first_n(3);
        assert!(t.is_write_quorum(&view, ids(&[0, 1])));
        assert!(!t.is_write_quorum(&view, ids(&[2])));
    }

    #[test]
    fn nine_nodes_majority_of_majorities() {
        // 9 nodes split 3/3/3: need majorities in 2 of 3 groups.
        let t = TreeCoterie::new();
        let view = View::first_n(9);
        // Groups {0,1,2}, {3,4,5}, {6,7,8}.
        assert!(t.is_write_quorum(&view, ids(&[0, 1, 3, 4])));
        assert!(!t.is_write_quorum(&view, ids(&[0, 1, 3])));
        assert!(!t.is_write_quorum(&view, ids(&[0, 3, 6])));
        assert!(t.is_write_quorum(&view, ids(&[1, 2, 7, 8])));
    }

    #[test]
    fn any_two_quorums_intersect_exhaustively() {
        // Brute force the intersection property for small views.
        let t = TreeCoterie::new();
        for n in 1..=9usize {
            let view = View::first_n(n);
            let mut quorums = Vec::new();
            for mask in 0u32..(1 << n) {
                let s = NodeSet(mask as u128);
                if t.is_write_quorum(&view, s) {
                    quorums.push(s);
                }
            }
            for &a in &quorums {
                for &b in &quorums {
                    assert!(a.intersects(b), "disjoint quorums at n={n}: {a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn quorum_smaller_than_majority_for_large_n() {
        let t = TreeCoterie::new();
        let view = View::first_n(27);
        let q = t
            .pick_quorum(&view, view.set(), 0, QuorumKind::Write)
            .unwrap();
        // Hierarchical quorum over 27 nodes needs 2*2*2 = 8 < 14 nodes.
        assert!(
            q.len() <= 8,
            "expected compact tree quorum, got {}",
            q.len()
        );
        assert!(t.is_write_quorum(&view, q));
    }

    #[test]
    fn pick_quorum_avoids_down_nodes() {
        let t = TreeCoterie::new();
        let view = View::first_n(9);
        let mut alive = view.set();
        // Kill group {0,1,2} entirely: quorum must come from other groups.
        alive.remove(NodeId(0));
        alive.remove(NodeId(1));
        alive.remove(NodeId(2));
        let q = t.pick_quorum(&view, alive, 0, QuorumKind::Write).unwrap();
        assert!(q.is_subset_of(alive));
        // Kill majorities of two groups: no quorum.
        let mut dead2 = view.set();
        for id in [0, 1, 3, 4] {
            dead2.remove(NodeId(id));
        }
        assert!(t.pick_quorum(&view, dead2, 0, QuorumKind::Write).is_none());
    }
}
