//! Deterministic protocol tracing: structured [`TraceEvent`]s and the
//! bounded [`TraceRing`] flight recorder.
//!
//! Observation must never perturb the protocol, so the layer is built from
//! the same material as the engine itself:
//!
//! * Events are plain `Copy` data — no allocation happens on the emission
//!   path, and with no ring attached a step only ticks its counters.
//! * Every record carries three clocks: the host-provided [`SimTime`], a
//!   per-node monotonic **sequence number** (total order of one node's
//!   events), and a **Lamport counter** carried on the wire with every
//!   message (`Effect::Send` / `Input::Deliver`), so records from
//!   different nodes merge into a causally consistent history.
//! * The Lamport counter ticks on sends and merges on deliveries whether
//!   or not a ring is attached, so an enabled run and a disabled run are
//!   byte-identical in every protocol-visible artifact (journals, effects,
//!   digests) — the counter is engine state, the *records* are not.
//!
//! Rendering is std-only and hand-rolled (the engine crate carries no
//! serde): [`render_jsonl`] produces one deterministic JSON object per
//! line, and [`causal_merge`] orders records from many rings by
//! `(lamport, time, node, seq)` — a valid linear extension of the
//! happens-before relation the Lamport stamps encode.

use std::collections::VecDeque;
use std::fmt::Write as _;

use coterie_base::SimTime;
use coterie_quorum::NodeId;

use crate::msg::{MsgClass, OpId};

use super::failpoint::FaultKind;

/// How a checked journal replay classified the journal, as seen by the
/// flight recorder (the full verdict with payloads lives in
/// [`ReplayVerdict`](super::storage::ReplayVerdict); tracing only needs
/// the class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayClass {
    /// Framing intact, every record acknowledged.
    Clean,
    /// Unacknowledged torn tail dropped; bootable.
    TornTail,
    /// Damage inside the acknowledged prefix; boots into stale-rejoin.
    Quarantined,
}

/// One structured protocol transition.
///
/// Variants are deliberately small and `Copy`: the emission path allocates
/// nothing, so tracing can stay compiled into the engine with no ring
/// attached at zero marginal cost. Every variant is rendered by
/// [`TraceEvent::kind`]'s exhaustive match: coterie-core denies wildcard
/// arms over enums, so a new variant fails to compile until it is named.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message left this node for `to`.
    MsgSend {
        /// Destination replica.
        to: NodeId,
        /// Coarse class of the message.
        class: MsgClass,
    },
    /// A message from `from` was delivered to this node.
    MsgRecv {
        /// Sending replica.
        from: NodeId,
        /// Coarse class of the message.
        class: MsgClass,
    },
    /// A previously sent message definitively failed (`CallFailed`).
    MsgBounce {
        /// The unreachable callee.
        to: NodeId,
        /// Coarse class of the undeliverable message.
        class: MsgClass,
    },
    /// The replica lock was granted to `op`.
    LockAcquire {
        /// The acquiring operation.
        op: OpId,
        /// True for exclusive (write/epoch) grants, false for shared.
        exclusive: bool,
    },
    /// A pipelined lock handoff: `from_op`'s exclusive lock transferred
    /// directly to `to_op` without an intervening release.
    LockHandoff {
        /// The releasing operation.
        from_op: OpId,
        /// The operation inheriting the lock.
        to_op: OpId,
    },
    /// The replica lock held by `op` was released (or its lease expired).
    LockRelease {
        /// The releasing operation.
        op: OpId,
    },
    /// 2PC phase 1 opened: this coordinator multicast `Prepare` for `op`.
    PrepareIssued {
        /// The transaction.
        op: OpId,
    },
    /// 2PC phase 1 answered: this participant voted on `op`.
    VoteCast {
        /// The transaction.
        op: OpId,
        /// The vote.
        yes: bool,
    },
    /// 2PC phase 2: a decision for `op` was applied at this node.
    DecisionTaken {
        /// The transaction.
        op: OpId,
        /// Commit (true) or abort (false).
        commit: bool,
    },
    /// An epoch check opened at this coordinator.
    EpochCheckStart {
        /// The epoch-check operation.
        op: OpId,
        /// The epoch number current when the check started.
        enumber: u64,
    },
    /// A new epoch was installed at this node.
    EpochInstalled {
        /// The installed epoch number.
        enumber: u64,
    },
    /// The stale-rejoin handshake started at this node.
    RejoinStart {
        /// The rejoin poll operation.
        op: OpId,
    },
    /// The stale-rejoin handshake completed at this node.
    RejoinDone {
        /// The learned desired version.
        dversion: u64,
        /// The learned epoch number.
        enumber: u64,
    },
    /// The host committed one persisted delta to the journal.
    JournalAppend {
        /// Records in the append (always 1: every commit is one delta).
        records: u64,
    },
    /// The host replayed the journal during a recovery.
    JournalReplay {
        /// The replay classification.
        class: ReplayClass,
    },
    /// A storage failpoint fired at the journal boundary.
    FailpointTrip {
        /// The injected fault.
        kind: FaultKind,
    },
}

impl TraceEvent {
    /// Stable snake_case tag for this event, used as the `ev` field of the
    /// JSONL rendering. Exhaustive on purpose: a new variant is a compile
    /// error here until it has a tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MsgSend { .. } => "msg_send",
            TraceEvent::MsgRecv { .. } => "msg_recv",
            TraceEvent::MsgBounce { .. } => "msg_bounce",
            TraceEvent::LockAcquire { .. } => "lock_acquire",
            TraceEvent::LockHandoff { .. } => "lock_handoff",
            TraceEvent::LockRelease { .. } => "lock_release",
            TraceEvent::PrepareIssued { .. } => "prepare_issued",
            TraceEvent::VoteCast { .. } => "vote_cast",
            TraceEvent::DecisionTaken { .. } => "decision_taken",
            TraceEvent::EpochCheckStart { .. } => "epoch_check_start",
            TraceEvent::EpochInstalled { .. } => "epoch_installed",
            TraceEvent::RejoinStart { .. } => "rejoin_start",
            TraceEvent::RejoinDone { .. } => "rejoin_done",
            TraceEvent::JournalAppend { .. } => "journal_append",
            TraceEvent::JournalReplay { .. } => "journal_replay",
            TraceEvent::FailpointTrip { .. } => "failpoint_trip",
        }
    }

    /// Writes the event-specific JSON fields (no braces, leading comma
    /// included when non-empty) into `out`.
    fn render_fields(&self, out: &mut String) {
        match self {
            TraceEvent::MsgSend { to, class } => {
                let _ = write!(out, ",\"to\":{},\"class\":\"{}\"", to.0, class_name(*class));
            }
            TraceEvent::MsgRecv { from, class } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"class\":\"{}\"",
                    from.0,
                    class_name(*class)
                );
            }
            TraceEvent::MsgBounce { to, class } => {
                let _ = write!(out, ",\"to\":{},\"class\":\"{}\"", to.0, class_name(*class));
            }
            TraceEvent::LockAcquire { op, exclusive } => {
                let _ = write!(out, ",\"op\":\"{}\",\"exclusive\":{exclusive}", op_str(op));
            }
            TraceEvent::LockHandoff { from_op, to_op } => {
                let _ = write!(
                    out,
                    ",\"from_op\":\"{}\",\"to_op\":\"{}\"",
                    op_str(from_op),
                    op_str(to_op)
                );
            }
            TraceEvent::LockRelease { op } => {
                let _ = write!(out, ",\"op\":\"{}\"", op_str(op));
            }
            TraceEvent::PrepareIssued { op } => {
                let _ = write!(out, ",\"op\":\"{}\"", op_str(op));
            }
            TraceEvent::VoteCast { op, yes } => {
                let _ = write!(out, ",\"op\":\"{}\",\"yes\":{yes}", op_str(op));
            }
            TraceEvent::DecisionTaken { op, commit } => {
                let _ = write!(out, ",\"op\":\"{}\",\"commit\":{commit}", op_str(op));
            }
            TraceEvent::EpochCheckStart { op, enumber } => {
                let _ = write!(out, ",\"op\":\"{}\",\"enumber\":{enumber}", op_str(op));
            }
            TraceEvent::EpochInstalled { enumber } => {
                let _ = write!(out, ",\"enumber\":{enumber}");
            }
            TraceEvent::RejoinStart { op } => {
                let _ = write!(out, ",\"op\":\"{}\"", op_str(op));
            }
            TraceEvent::RejoinDone { dversion, enumber } => {
                let _ = write!(out, ",\"dversion\":{dversion},\"enumber\":{enumber}");
            }
            TraceEvent::JournalAppend { records } => {
                let _ = write!(out, ",\"records\":{records}");
            }
            TraceEvent::JournalReplay { class } => {
                let tag = match class {
                    ReplayClass::Clean => "clean",
                    ReplayClass::TornTail => "torn_tail",
                    ReplayClass::Quarantined => "quarantined",
                };
                let _ = write!(out, ",\"replay\":\"{tag}\"");
            }
            TraceEvent::FailpointTrip { kind } => {
                let tag = match kind {
                    FaultKind::AppendFail => "append_fail",
                    FaultKind::TornWrite => "torn_write",
                    FaultKind::BitFlip => "bit_flip",
                };
                let _ = write!(out, ",\"fault\":\"{tag}\"");
            }
        }
    }
}

/// Stable snake_case tag for a message class.
fn class_name(class: MsgClass) -> &'static str {
    match class {
        MsgClass::Permission => "permission",
        MsgClass::Commit => "commit",
        MsgClass::Fetch => "fetch",
        MsgClass::Propagation => "propagation",
        MsgClass::EpochCheck => "epoch_check",
    }
}

fn op_str(op: &OpId) -> String {
    let inc = (op.inc != 0).then(|| format!(".{:x}", op.inc));
    format!("n{}{}#{}", op.node.0, inc.unwrap_or_default(), op.seq)
}

/// One stamped trace record: the event plus its three clocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Host-provided time of the step that emitted the event.
    pub at: SimTime,
    /// The emitting node.
    pub node: NodeId,
    /// Per-node monotonic sequence number (total order of one node's
    /// events, across crashes).
    pub seq: u64,
    /// Lamport counter at emission: ticked on every send, merged
    /// (`max(local, remote) + 1`) on every delivery.
    pub lamport: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded per-node flight recorder: keeps the last `cap` records,
/// counting what it had to drop. `Clone` so forked drivers (the
/// interleaving explorer) carry their history with them.
#[derive(Clone, Debug)]
pub struct TraceRing {
    cap: usize,
    dropped: u64,
    events: VecDeque<TraceRecord>,
}

impl TraceRing {
    /// An empty ring keeping at most `cap` records (`cap` is clamped to at
    /// least 1).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            dropped: 0,
            events: VecDeque::new(),
        }
    }

    /// Records retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.events.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records evicted to stay within the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Keeps one stamped record, evicting the oldest at the bound.
    pub fn record(&mut self, rec: TraceRecord) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.events.push_back(rec);
    }
}

/// Merges per-node rings into one causally ordered history: sorted by
/// `(lamport, time, node, seq)`. Lamport order is consistent with
/// happens-before (a delivery's stamp strictly exceeds its send's), so the
/// result is a valid linear extension; the remaining keys make ties
/// deterministic.
pub fn causal_merge(rings: &[&TraceRing]) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = rings.iter().flat_map(|r| r.records().copied()).collect();
    all.sort_by_key(|r| (r.lamport, r.at, r.node.0, r.seq));
    all
}

/// Renders records as JSONL: one deterministic, hand-rolled JSON object
/// per line, e.g.
/// `{"at":120,"node":2,"seq":17,"lamport":41,"ev":"msg_send","to":0,"class":"commit"}`.
pub fn render_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(
            out,
            "{{\"at\":{},\"node\":{},\"seq\":{},\"lamport\":{},\"ev\":\"{}\"",
            r.at.0,
            r.node.0,
            r.seq,
            r.lamport,
            r.event.kind()
        );
        r.event.render_fields(&mut out);
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, seq: u64, lamport: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime(seq),
            node: NodeId(node),
            seq,
            lamport,
            event,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut ring = TraceRing::new(2);
        for i in 0..5 {
            ring.record(rec(0, i, i, TraceEvent::EpochInstalled { enumber: i }));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn merge_orders_by_lamport_then_ties() {
        let mut a = TraceRing::new(8);
        let mut b = TraceRing::new(8);
        a.record(rec(
            0,
            1,
            5,
            TraceEvent::MsgSend {
                to: NodeId(1),
                class: MsgClass::Commit,
            },
        ));
        b.record(rec(
            1,
            1,
            6,
            TraceEvent::MsgRecv {
                from: NodeId(0),
                class: MsgClass::Commit,
            },
        ));
        b.record(rec(1, 2, 2, TraceEvent::EpochInstalled { enumber: 1 }));
        let merged = causal_merge(&[&a, &b]);
        let lamports: Vec<u64> = merged.iter().map(|r| r.lamport).collect();
        assert_eq!(lamports, vec![2, 5, 6]);
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        let records = vec![
            rec(
                2,
                17,
                41,
                TraceEvent::MsgSend {
                    to: NodeId(0),
                    class: MsgClass::Commit,
                },
            ),
            rec(
                0,
                3,
                42,
                TraceEvent::VoteCast {
                    op: OpId {
                        node: NodeId(1),
                        inc: 0,
                        seq: 9,
                    },
                    yes: true,
                },
            ),
        ];
        let jsonl = render_jsonl(&records);
        assert_eq!(
            jsonl,
            "{\"at\":17,\"node\":2,\"seq\":17,\"lamport\":41,\"ev\":\"msg_send\",\
             \"to\":0,\"class\":\"commit\"}\n\
             {\"at\":3,\"node\":0,\"seq\":3,\"lamport\":42,\"ev\":\"vote_cast\",\
             \"op\":\"n1#9\",\"yes\":true}\n"
        );
    }
}
