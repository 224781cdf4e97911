//! Per-replica locking.
//!
//! Each node that receives a permission request "obtains a lock for its
//! replica and responds with its state" (§4.1). The paper leaves deadlock
//! handling open ("For ways to handle deadlocks see for example \[2\]"); we
//! use *no-wait* locking: a request that cannot be granted immediately is
//! refused, and the coordinator aborts and retries with backoff. No-wait
//! systems cannot deadlock because no transaction ever holds one lock while
//! waiting for another.

use crate::msg::OpId;
use std::collections::BTreeSet;

/// The leased lock grants of one replica. While the replica's prepared
/// slot is held, the slot is the lock and this holds no grant (see
/// `ReplicaNode::exclusive_holder`).
#[derive(Clone, Debug, Default)]
pub struct ReplicaLock {
    exclusive: Option<OpId>,
    shared: BTreeSet<OpId>,
    /// Someone was refused here since the last fresh exclusive grant: the
    /// signal a chain of pipelined write rounds yields on (DESIGN.md §10).
    contended: bool,
    /// The last exclusive grant was a handoff: a chained round. A release
    /// keeps it, so it still describes the round whose YES vote moved that
    /// grant into the prepared slot.
    handed_off: bool,
}

impl ReplicaLock {
    /// Attempts to take the exclusive lock for `op`: true when granted (or
    /// already held by `op`), false when held by others. A fresh grant
    /// clears the contention bit and a refusal sets it.
    pub(crate) fn try_exclusive(&mut self, op: OpId) -> bool {
        if self.exclusive == Some(op) {
            return true;
        }
        let free = self.exclusive.is_none() && self.shared.is_empty();
        if free {
            self.exclusive = Some(op);
            self.handed_off = false;
        }
        self.contended = !free;
        free
    }

    /// Attempts to take a shared lock for `op`: true when granted (or
    /// already held by `op`). A refusal sets the contention bit.
    pub(crate) fn try_shared(&mut self, op: OpId) -> bool {
        let granted = self.exclusive.is_none() || self.shared.contains(&op);
        if granted {
            self.shared.insert(op);
        } else {
            self.contended = true;
        }
        granted
    }

    /// Releases whatever `op` holds. Unknown ops are a no-op (idempotent,
    /// so duplicate releases and releases after a lease expiry are safe).
    pub fn release(&mut self, op: OpId) {
        if self.exclusive == Some(op) {
            self.exclusive = None;
        }
        self.shared.remove(&op);
    }

    /// Refuses a request outright, as a held lock refuses it: sets the
    /// contention bit.
    pub(crate) fn refuse(&mut self) -> bool {
        self.contended = true;
        false
    }

    /// Grants the exclusive lock to the chained round `to` by a handoff
    /// (pipelined 2PC's decision-time chain, DESIGN.md §10), keeping the
    /// contention bit. Only a committing decision that emptied the prepared
    /// slot hands off, and nothing holds a grant while the slot is held.
    pub(crate) fn hand_off(&mut self, to: OpId) {
        self.exclusive = Some(to);
        self.handed_off = true;
    }

    /// Whether `op` holds the leased exclusive grant.
    pub(crate) fn held_exclusively_by(&self, op: OpId) -> bool {
        self.exclusive == Some(op)
    }

    /// Whether any leased grant is held.
    pub(crate) fn is_locked(&self) -> bool {
        self.exclusive.is_some() || !self.shared.is_empty()
    }

    /// The operations currently holding the lock shared (ascending order).
    pub fn shared_holders(&self) -> impl Iterator<Item = OpId> + '_ {
        self.shared.iter().copied()
    }

    /// The leased exclusive holder, if any.
    pub(crate) fn exclusive_holder(&self) -> Option<OpId> {
        self.exclusive
    }

    /// Whether someone was refused here since the last fresh exclusive grant.
    pub fn contended(&self) -> bool {
        self.contended
    }

    /// Whether the holder is a chained round, which got the lock by a
    /// handoff; an epoch prepare waiting behind it sets the contention bit.
    pub(crate) fn wait_behind_chain(&mut self) -> bool {
        self.contended |= self.handed_off;
        self.handed_off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_quorum::NodeId;

    fn op(n: u32, s: u64) -> OpId {
        OpId {
            node: NodeId(n),
            inc: 0,
            seq: s,
        }
    }

    #[test]
    fn exclusive_excludes_everything() {
        let mut l = ReplicaLock::default();
        assert!(l.try_exclusive(op(0, 1)));
        assert!(!l.try_exclusive(op(1, 1)));
        assert!(!l.try_shared(op(1, 1)));
        assert!(l.held_exclusively_by(op(0, 1)));
        assert!(l.is_locked());
    }

    #[test]
    fn shared_locks_coexist_but_block_writers() {
        let mut l = ReplicaLock::default();
        assert!(l.try_shared(op(0, 1)));
        assert!(l.try_shared(op(1, 1)));
        assert!(!l.try_exclusive(op(2, 1)));
        l.release(op(0, 1));
        assert!(!l.try_exclusive(op(2, 1)));
        l.release(op(1, 1));
        assert!(l.try_exclusive(op(2, 1)));
    }

    #[test]
    fn reacquisition_is_idempotent() {
        let mut l = ReplicaLock::default();
        assert!(l.try_exclusive(op(0, 1)));
        assert!(l.try_exclusive(op(0, 1)));
        assert!(!l.try_shared(op(1, 1)));
        l.release(op(0, 1));
        assert!(l.try_shared(op(1, 1)));
        assert!(l.try_shared(op(1, 1)));
        assert_eq!(l.shared_holders().collect::<Vec<_>>(), [op(1, 1)]);
    }

    #[test]
    fn release_is_idempotent_and_targeted() {
        let mut l = ReplicaLock::default();
        l.try_shared(op(0, 1));
        l.release(op(9, 9)); // unknown: no-op
        assert!(l.is_locked());
        l.release(op(0, 1));
        l.release(op(0, 1));
        assert!(!l.is_locked());
    }
}
