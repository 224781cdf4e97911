//! One-copy serializability checking.
//!
//! The paper's consistency criterion (§3): the concurrent execution must be
//! equivalent to a serial execution on non-replicated data; concretely,
//! (a) writes serialize, and (b) every read returns the most recent
//! version. The protocol's version numbers expose the serialization order
//! directly, so the checker verifies:
//!
//! 1. committed writes carry **distinct, contiguous** versions `1..=k`
//!    (two writes at the same version would be a lost update);
//! 2. rebuilding the object by replaying committed writes in version order
//!    reproduces **exactly the digest every read returned** for its
//!    version (no phantom or corrupted data);
//! 3. **recency**: a read issued after a write's success response must
//!    return at least that write's version (the external consistency the
//!    lock-based protocol provides).

// Harness-side bookkeeping: keyed lookups never feed engine effects, so
// hash maps are fine here.
#![allow(clippy::disallowed_types)]

use crate::workload::IssuedOp;
use coterie_core::{PagedObject, PartialWrite, ProtocolEvent};
use coterie_quorum::NodeId;
use coterie_simnet::SimTime;
use std::collections::HashMap;

/// A violation found by the checker.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two committed writes share a version.
    DuplicateWriteVersion {
        /// The colliding version.
        version: u64,
    },
    /// Committed versions have a hole.
    VersionGap {
        /// The missing version.
        missing: u64,
    },
    /// A read returned data that no prefix of committed writes produces.
    ReadDigestMismatch {
        /// Reading client id.
        id: u64,
        /// Version the read reported.
        version: u64,
    },
    /// A read returned an older version than a write that completed before
    /// the read was issued.
    StaleRead {
        /// Reading client id.
        id: u64,
        /// Version returned.
        got: u64,
        /// Minimum version required by real-time order.
        needed: u64,
    },
    /// A read reported a version no committed write produced.
    PhantomVersion {
        /// Reading client id.
        id: u64,
        /// The phantom version.
        version: u64,
    },
}

impl Violation {
    /// The variant's name: this violation's kind in a nemesis signature.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::DuplicateWriteVersion { .. } => "DuplicateWriteVersion",
            Violation::VersionGap { .. } => "VersionGap",
            Violation::ReadDigestMismatch { .. } => "ReadDigestMismatch",
            Violation::StaleRead { .. } => "StaleRead",
            Violation::PhantomVersion { .. } => "PhantomVersion",
        }
    }
}

/// The checker's verdict.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All violations found (empty = consistent).
    pub violations: Vec<Violation>,
    /// Committed writes observed.
    pub writes_committed: usize,
    /// Reads verified.
    pub reads_checked: usize,
}

impl CheckReport {
    /// True when no violations were found.
    pub fn consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks a run: `issued` comes from the workload generator, `events` are
/// the driver's (or runtime's) outputs, `n_pages` must match the protocol
/// configuration.
pub fn check_run(
    issued: &HashMap<u64, IssuedOp>,
    events: &[(SimTime, NodeId, ProtocolEvent)],
    n_pages: usize,
) -> CheckReport {
    let mut report = CheckReport::default();

    // Collect committed writes (version -> payload) and completion times.
    let mut write_by_version: HashMap<u64, &PartialWrite> = HashMap::new();
    let mut completed_writes: Vec<(SimTime, u64)> = Vec::new(); // (completion, version)
    for (t, _, e) in events {
        if let ProtocolEvent::WriteOk { id, version, .. } = e {
            let Some(op) = issued.get(id) else { continue };
            let Some(write) = &op.write else { continue };
            if write_by_version.insert(*version, write).is_some() {
                report
                    .violations
                    .push(Violation::DuplicateWriteVersion { version: *version });
            }
            completed_writes.push((*t, *version));
            report.writes_committed += 1;
        }
    }

    // Contiguity 1..=k.
    let max_version = write_by_version.keys().copied().max().unwrap_or(0);
    for v in 1..=max_version {
        if !write_by_version.contains_key(&v) {
            report.violations.push(Violation::VersionGap { missing: v });
        }
    }

    // Replay the serial history and record digests per version.
    let mut object = PagedObject::new(n_pages);
    let mut digest_at = HashMap::new();
    digest_at.insert(0u64, object.digest());
    for v in 1..=max_version {
        if let Some(write) = write_by_version.get(&v) {
            object.apply(write);
        }
        digest_at.insert(v, object.digest());
    }

    // Verify reads.
    for (_, _, e) in events {
        if let ProtocolEvent::ReadOk {
            id,
            version,
            digest,
            ..
        } = e
        {
            let Some(op) = issued.get(id) else { continue };
            report.reads_checked += 1;
            match digest_at.get(version) {
                None => report.violations.push(Violation::PhantomVersion {
                    id: *id,
                    version: *version,
                }),
                Some(expect) if expect != digest => {
                    report.violations.push(Violation::ReadDigestMismatch {
                        id: *id,
                        version: *version,
                    })
                }
                _ => {}
            }
            // Recency: any write acknowledged before this read was issued
            // must be visible.
            let needed = completed_writes
                .iter()
                .filter(|(done, _)| *done <= op.at)
                .map(|(_, v)| *v)
                .max()
                .unwrap_or(0);
            if *version < needed {
                report.violations.push(Violation::StaleRead {
                    id: *id,
                    got: *version,
                    needed,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use coterie_core::ClientRequest;

    fn issued_write(id: u64, at: u64, data: &str) -> (u64, IssuedOp) {
        let write = PartialWrite::new([(0, Bytes::copy_from_slice(data.as_bytes()))]);
        let request = ClientRequest::Write { id, write };
        (id, IssuedOp::new(SimTime(at), NodeId(0), &request))
    }

    fn issued_read(id: u64, at: u64) -> (u64, IssuedOp) {
        let request = ClientRequest::Read { id };
        (id, IssuedOp::new(SimTime(at), NodeId(0), &request))
    }

    fn write_ok(t: u64, id: u64, version: u64) -> (SimTime, NodeId, ProtocolEvent) {
        (
            SimTime(t),
            NodeId(0),
            ProtocolEvent::WriteOk {
                id,
                version,
                replicas_touched: 3,
                marked_stale: 0,
            },
        )
    }

    fn read_ok(t: u64, id: u64, version: u64, digest: u64) -> (SimTime, NodeId, ProtocolEvent) {
        (
            SimTime(t),
            NodeId(0),
            ProtocolEvent::ReadOk {
                id,
                version,
                digest,
                pages: Default::default(),
            },
        )
    }

    fn digest_after(writes: &[&str], n_pages: usize) -> u64 {
        let mut o = PagedObject::new(n_pages);
        for w in writes {
            o.apply(&PartialWrite::new([(
                0,
                Bytes::copy_from_slice(w.as_bytes()),
            )]));
        }
        o.digest()
    }

    #[test]
    fn clean_history_passes() {
        let issued: HashMap<_, _> = [
            issued_write(1, 0, "a"),
            issued_write(2, 100, "b"),
            issued_read(3, 300),
        ]
        .into_iter()
        .collect();
        let events = vec![
            write_ok(50, 1, 1),
            write_ok(200, 2, 2),
            read_ok(400, 3, 2, digest_after(&["a", "b"], 4)),
        ];
        let report = check_run(&issued, &events, 4);
        assert!(report.consistent(), "{:?}", report.violations);
        assert_eq!(report.writes_committed, 2);
        assert_eq!(report.reads_checked, 1);
    }

    #[test]
    fn duplicate_version_detected() {
        let issued: HashMap<_, _> = [issued_write(1, 0, "a"), issued_write(2, 10, "b")]
            .into_iter()
            .collect();
        let events = vec![write_ok(50, 1, 1), write_ok(60, 2, 1)];
        let report = check_run(&issued, &events, 4);
        assert!(matches!(
            report.violations[0],
            Violation::DuplicateWriteVersion { version: 1 }
        ));
    }

    #[test]
    fn version_gap_detected() {
        let issued: HashMap<_, _> = [issued_write(1, 0, "a")].into_iter().collect();
        let events = vec![write_ok(50, 1, 3)];
        let report = check_run(&issued, &events, 4);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::VersionGap { missing: 1 })));
    }

    #[test]
    fn stale_read_detected() {
        let issued: HashMap<_, _> = [issued_write(1, 0, "a"), issued_read(2, 500)]
            .into_iter()
            .collect();
        // Write acked at t=100, read issued at t=500 but returns v0.
        let events = vec![
            write_ok(100, 1, 1),
            read_ok(600, 2, 0, digest_after(&[], 4)),
        ];
        let report = check_run(&issued, &events, 4);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::StaleRead {
                got: 0,
                needed: 1,
                ..
            }
        )));
    }

    #[test]
    fn read_of_concurrent_write_is_not_stale() {
        let issued: HashMap<_, _> = [issued_write(1, 0, "a"), issued_read(2, 50)]
            .into_iter()
            .collect();
        // Read issued before the write completed: either version is legal.
        let events = vec![
            write_ok(100, 1, 1),
            read_ok(120, 2, 0, digest_after(&[], 4)),
        ];
        let report = check_run(&issued, &events, 4);
        assert!(report.consistent(), "{:?}", report.violations);
    }

    #[test]
    fn corrupt_read_detected() {
        let issued: HashMap<_, _> = [issued_write(1, 0, "a"), issued_read(2, 300)]
            .into_iter()
            .collect();
        let events = vec![write_ok(100, 1, 1), read_ok(400, 2, 1, 0xBAD)];
        let report = check_run(&issued, &events, 4);
        assert!(matches!(
            report.violations[0],
            Violation::ReadDigestMismatch { id: 2, version: 1 }
        ));
    }

    #[test]
    fn phantom_version_detected() {
        let issued: HashMap<_, _> = [issued_read(2, 300)].into_iter().collect();
        let events = vec![read_ok(400, 2, 7, 0)];
        let report = check_run(&issued, &events, 4);
        assert!(matches!(
            report.violations[0],
            Violation::PhantomVersion { id: 2, version: 7 }
        ));
    }
}
