//! Node identifiers, compact node sets, and ordered views.
//!
//! The paper assumes "each node is assigned a name and all names are linearly
//! ordered" (§1). We model names as small integers ([`NodeId`]) and node sets
//! as bitsets ([`NodeSet`]) over at most [`MAX_NODES`] nodes, which matches
//! the paper's footnote 1: "sets of nodes can be encoded very tightly as, for
//! instance, a binary vector".

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of distinct node names supported by [`NodeSet`].
///
/// The paper evaluates up to N = 30 replicas; 128 leaves ample headroom while
/// keeping sets `Copy` and set algebra branch-free.
pub const MAX_NODES: usize = 128;

/// A node name. Names are linearly ordered by their integer value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index of this node name in the global name space.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A set of node names, encoded as a 128-bit vector.
///
/// All operations are O(1) or O(popcount). The encoding mirrors the paper's
/// suggested "binary vector" representation of epoch lists.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct NodeSet(pub u128);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        NodeSet(0)
    }

    /// Creates a set containing exactly `node`.
    #[inline]
    pub fn singleton(node: NodeId) -> Self {
        debug_assert!(node.index() < MAX_NODES);
        NodeSet(1u128 << node.index())
    }

    /// Creates the set `{0, 1, ..., n-1}`.
    #[inline]
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_NODES, "NodeSet supports at most {MAX_NODES} nodes");
        if n == MAX_NODES {
            NodeSet(u128::MAX)
        } else {
            NodeSet((1u128 << n) - 1)
        }
    }

    /// Builds a set from node ids: reads better than the `FromIterator` impl
    /// below at call sites that already have a `NodeSet` in scope.
    #[expect(clippy::should_implement_trait, reason = "FromIterator is there too")]
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if `node` is a member.
    #[inline]
    pub fn contains(self, node: NodeId) -> bool {
        node.index() < MAX_NODES && self.0 & (1u128 << node.index()) != 0
    }

    /// Adds `node` to the set.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        debug_assert!(node.index() < MAX_NODES);
        self.0 |= 1u128 << node.index();
    }

    /// Removes `node` from the set.
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        self.0 &= !(1u128 << node.index());
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: NodeSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the sets share at least one member.
    #[inline]
    pub fn intersects(self, other: NodeSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over members in increasing name order.
    pub fn iter(self) -> NodeSetIter {
        NodeSetIter(self.0)
    }

    /// The smallest member, if any.
    #[inline]
    pub fn min(self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            Some(NodeId(self.0.trailing_zeros()))
        }
    }

    /// The largest member, if any.
    #[inline]
    pub fn max(self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            Some(NodeId(127 - self.0.leading_zeros()))
        }
    }

    /// Members as a sorted vector.
    pub fn to_vec(self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        NodeSet::from_iter(iter)
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`NodeSet`].
pub struct NodeSetIter(u128);

impl Iterator for NodeSetIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            let tz = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(NodeId(tz))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodeSetIter {}

/// An ordered set of node names over which a coterie is defined.
///
/// This is the paper's "ordered set of nodes V": an epoch list or the full
/// replica set. Members are kept sorted by name, which is the linear order
/// the coterie rule relies on ("the nodes from V are assigned positions in
/// the grid in the increasing order", §5).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct View {
    members: Vec<NodeId>,
    set: NodeSet,
}

impl View {
    /// Builds a view from the given members; duplicates are ignored and the
    /// members are sorted into name order.
    pub fn new<I: IntoIterator<Item = NodeId>>(members: I) -> Self {
        let set = NodeSet::from_iter(members);
        View {
            members: set.to_vec(),
            set,
        }
    }

    /// Builds the view `{0, 1, ..., n-1}`.
    pub fn first_n(n: usize) -> Self {
        View::new((0..n as u32).map(NodeId))
    }

    /// Builds a view directly from a node set.
    pub fn from_set(set: NodeSet) -> Self {
        View {
            members: set.to_vec(),
            set,
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the view has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members in increasing name order.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The members as a set.
    #[inline]
    pub fn set(&self) -> NodeSet {
        self.set
    }

    /// True if `node` is a member.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.set.contains(node)
    }

    /// The paper's `ordered-number(V, s)`: the 1-based position that node `s`
    /// occupies in the ordered set `V`, or `None` if `s ∉ V`.
    pub fn ordered_number(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok().map(|i| i + 1)
    }

    /// The member at 1-based position `k`.
    pub fn member_at(&self, k: usize) -> Option<NodeId> {
        self.members.get(k.checked_sub(1)?).copied()
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View{:?}", self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodeset_basic_ops() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        s.insert(NodeId(3));
        s.insert(NodeId(7));
        s.insert(NodeId(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(4)));
        s.remove(NodeId(3));
        assert!(!s.contains(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn nodeset_algebra() {
        let a = NodeSet::from_iter([NodeId(1), NodeId(2), NodeId(3)]);
        let b = NodeSet::from_iter([NodeId(3), NodeId(4)]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b).to_vec(), vec![NodeId(3)]);
        assert_eq!(a.difference(b).to_vec(), vec![NodeId(1), NodeId(2)]);
        assert!(a.intersects(b));
        assert!(!a.is_subset_of(b));
        assert!(NodeSet::singleton(NodeId(3)).is_subset_of(a));
    }

    #[test]
    fn nodeset_first_n_and_bounds() {
        let s = NodeSet::first_n(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.min(), Some(NodeId(0)));
        assert_eq!(s.max(), Some(NodeId(4)));
        let full = NodeSet::first_n(MAX_NODES);
        assert_eq!(full.len(), MAX_NODES);
        assert_eq!(NodeSet::EMPTY.min(), None);
        assert_eq!(NodeSet::EMPTY.max(), None);
    }

    #[test]
    fn nodeset_iter_sorted() {
        let s = NodeSet::from_iter([NodeId(9), NodeId(0), NodeId(100)]);
        assert_eq!(s.to_vec(), vec![NodeId(0), NodeId(9), NodeId(100)]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn view_ordered_numbers() {
        let v = View::new([NodeId(10), NodeId(2), NodeId(7)]);
        assert_eq!(v.members(), &[NodeId(2), NodeId(7), NodeId(10)]);
        assert_eq!(v.ordered_number(NodeId(2)), Some(1));
        assert_eq!(v.ordered_number(NodeId(7)), Some(2));
        assert_eq!(v.ordered_number(NodeId(10)), Some(3));
        assert_eq!(v.ordered_number(NodeId(3)), None);
        assert_eq!(v.member_at(2), Some(NodeId(7)));
        assert_eq!(v.member_at(0), None);
        assert_eq!(v.member_at(4), None);
    }

    #[test]
    fn view_dedups() {
        let v = View::new([NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(v.len(), 2);
    }
}
