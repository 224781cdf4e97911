//! The coterie rule abstraction (§4 of the paper).
//!
//! "We assume that all nodes agree on a *coterie rule* which defines a
//! coterie over an arbitrary ordered set of nodes. Given two sets of nodes V
//! and S, coterie-rule(V, S) is true if S includes a write (read) quorum over
//! V, and false otherwise. We also assume that there is a *quorum function*
//! that, given a set of nodes V and a node name, yields a list of nodes
//! representing some quorum over V."

use crate::node::{NodeId, NodeSet, View};
use crate::plan::QuorumPlan;

/// Which kind of quorum is being asked about.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum QuorumKind {
    /// A read quorum: must intersect every write quorum.
    Read,
    /// A write quorum: must intersect every read and every write quorum.
    Write,
}

/// A rule that unambiguously imposes a coterie on any ordered node set.
///
/// Implementations must satisfy, for every view `V`:
///
/// 1. **Write/write intersection**: any two sets for which
///    [`is_write_quorum`](CoterieRule::is_write_quorum) holds intersect.
/// 2. **Read/write intersection**: any set for which
///    [`is_read_quorum`](CoterieRule::is_read_quorum) holds intersects every
///    write quorum.
/// 3. **Monotonicity**: if `S ⊆ T` and `S` includes a quorum, so does `T`
///    (the predicate tests "includes a quorum", not "is a minimal quorum").
///
/// These are exactly the properties the paper's correctness proof (§4.4)
/// relies on; the property-based tests in this crate check them for every
/// shipped rule.
pub trait CoterieRule: Send + Sync + std::fmt::Debug {
    /// Human-readable rule name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// The paper's `coterie-rule(V, S)` for the given quorum kind. `S` is
    /// implicitly intersected with `V`: members of `S` outside the view never
    /// help form a quorum.
    fn includes_quorum(&self, view: &View, s: NodeSet, kind: QuorumKind) -> bool;

    /// The paper's *quorum function*: yields some quorum over `view` drawn
    /// from `prefer` (believed-up nodes; `None` if `prefer ∩ view` holds none,
    /// and `prefer = view.set()` gives an optimistic one), varying the choice
    /// with `seed` for load sharing ("different quorums for different node
    /// names"). It knows nothing of currency: coordinators ask the first
    /// quorum for `seed`, `seed + 1`, … that holds a replica they last saw
    /// current, so a rotation should reach every member within `|view|` seeds.
    fn pick_quorum(
        &self,
        view: &View,
        prefer: NodeSet,
        seed: u64,
        kind: QuorumKind,
    ) -> Option<NodeSet>;

    /// Compiles this rule against a fixed view into a [`QuorumPlan`]: a
    /// bitmask evaluator answering `coterie-rule(V, S)` for that view with
    /// a few word operations and no allocation. Callers that test many
    /// candidate sets against one view (response classification,
    /// availability models, quorum enumeration) should compile once per
    /// view and evaluate through the plan.
    ///
    /// Implementations must be *observationally equivalent*: for every
    /// `S` and kind, the plan's answer must equal
    /// `self.includes_quorum(view, s, kind)`, which the equivalence tests
    /// use as their oracle.
    fn compile(&self, view: &View) -> QuorumPlan;

    /// Convenience: `coterie-rule` restricted to read quorums.
    fn is_read_quorum(&self, view: &View, s: NodeSet) -> bool {
        self.includes_quorum(view, s, QuorumKind::Read)
    }

    /// Convenience: `coterie-rule` restricted to write quorums.
    fn is_write_quorum(&self, view: &View, s: NodeSet) -> bool {
        self.includes_quorum(view, s, QuorumKind::Write)
    }
}

/// Deterministically derives a per-coordinator seed for the quorum function
/// from a node name and an operation counter, so that different coordinators
/// spread load over different quorums while remaining reproducible.
pub fn quorum_seed(coordinator: NodeId, op_seq: u64) -> u64 {
    // SplitMix64 finalizer: cheap, well-mixed, dependency-free.
    let mut z = (coordinator.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(op_seq);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_seed_spreads() {
        let a = quorum_seed(NodeId(0), 0);
        let b = quorum_seed(NodeId(1), 0);
        let c = quorum_seed(NodeId(0), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Deterministic.
        assert_eq!(a, quorum_seed(NodeId(0), 0));
    }
}
