//! Durability: per-step deltas and the framed journal they are written to.
//!
//! The engine never writes to disk; it *describes* what must become
//! durable. After every [`step`](crate::node::ReplicaNode::step) that
//! changes [`Durable`], the engine emits exactly one
//! [`Effect::Persist`](super::io::Effect::Persist) carrying a
//! [`DurableDelta`] — the precise set of fields that changed. Three
//! properties matter:
//!
//! * **Atomicity of epoch installation.** The paper requires the epoch
//!   tuple `(enumber, elist)` to change atomically; the delta carries the
//!   pair as one field, and a whole delta is one checksummed record of the
//!   [`FramedJournal`], so no torn epoch can be observed on replay.
//! * **Write-ahead ordering.** The `Persist` effect is always the *first*
//!   effect of a step: a host that journals before sending guarantees the
//!   2PC prepare record is stable before the vote that promises it.
//! * **Capture costs O(change), not O(history) or O(state).** The scalar
//!   fields and the pages are *compared* against a shadow copy of the last
//!   persisted state. The write log is not: a delta says what happened to it
//!   — the entries this step pushed, found by identity against the shadow
//!   (`WriteLog::delta_since`) — so a committed write journals its one
//!   entry, not the log. The one field that grows with uptime — the
//!   coordinator's append-only decision map — is never compared either:
//!   every decision enters it through `ReplicaNode::record_decision`, which
//!   also *records* the pair for the step to drain into its delta. The
//!   map-scanning `DurableDelta::diff`
//!   survives in debug builds only, as the oracle every capture is asserted
//!   equal to: a decision written past the entry point fails the first
//!   debug test that steps over it instead of going silently un-journaled.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::ops::Range;

use bytes::Bytes;
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::msg::{Action, OpId};
use crate::node::Durable;
use crate::store::{LogDelta, PageId};

/// The durable-state change produced by one engine step.
///
/// `None` / empty fields mean "unchanged". [`DurableDelta::apply`] replays
/// the change onto a [`Durable`]; `DurableDelta::capture` computes it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurableDelta {
    /// New replica version number.
    pub version: Option<u64>,
    /// New stale flag.
    pub stale: Option<bool>,
    /// New desired version.
    pub dversion: Option<u64>,
    /// New epoch `(enumber, elist)` — one field so the pair is atomic.
    pub epoch: Option<(u64, Vec<NodeId>)>,
    /// Rewritten pages of the object.
    pub pages: Vec<(PageId, Bytes)>,
    /// What happened to the write log: cleared, then these entries pushed.
    /// Never the log itself — trimming follows from the configured cap.
    pub log: LogDelta,
    /// New prepared-transaction slot (outer `Some` = changed; inner
    /// `Option` is the slot's new value).
    pub prepared: Option<Option<(OpId, Action)>>,
    /// Coordinator decisions recorded by this step. The decision map is
    /// append-only, so a delta only ever adds entries.
    pub decisions: Vec<(OpId, bool)>,
    /// New durable operation counter.
    pub op_counter: Option<u64>,
    /// New good list from the most recent write.
    pub last_good: Option<Vec<NodeId>>,
    /// New quarantine fence (see [`Durable::quarantine_fence`]).
    pub quarantine_fence: Option<u64>,
    /// New rejoin-pending flag (see [`Durable::rejoin_pending`]).
    pub rejoin_pending: Option<bool>,
}

impl DurableDelta {
    /// The delta carrying `old` to `new`, or `None` if nothing changed;
    /// `decided` holds the decisions recorded since `old`, in any order.
    ///
    /// [`step`](crate::node::ReplicaNode::step) runs this after every
    /// input, so it costs O(change): scalars compare as integers, pages per
    /// slot (by content, unless both are one shared buffer), the log walks
    /// back over the entries pushed since `old`, and the decision map is not
    /// read: `decided`, sorted by op id as the map and so the journal always
    /// ordered it, *is* the addition.
    pub(crate) fn capture(
        old: &Durable,
        new: &Durable,
        mut decided: Vec<(OpId, bool)>,
    ) -> Option<DurableDelta> {
        decided.sort_unstable_by_key(|&(op, _)| op);
        #[cfg(debug_assertions)]
        assert_eq!(decided, added_decisions(old, new), "unrecorded decision");
        let mut d = DurableDelta {
            version: changed(&old.version, &new.version),
            stale: changed(&old.stale, &new.stale),
            dversion: changed(&old.dversion, &new.dversion),
            log: new.log.delta_since(&old.log),
            prepared: changed(&old.prepared, &new.prepared),
            decisions: decided,
            op_counter: changed(&old.op_counter, &new.op_counter),
            last_good: changed(&old.last_good, &new.last_good),
            quarantine_fence: changed(&old.quarantine_fence, &new.quarantine_fence),
            rejoin_pending: changed(&old.rejoin_pending, &new.rejoin_pending),
            ..DurableDelta::default()
        };
        if new.enumber != old.enumber || new.elist != old.elist {
            d.epoch = Some((new.enumber, new.elist.clone()));
        }
        debug_assert_eq!(old.object.n_pages(), new.object.n_pages());
        // A page nobody rewrote is still the shadow's own refcounted buffer:
        // same pointer and length, so equal without reading a byte of it.
        let shared = |o: &Bytes, n: &Bytes| o.as_ptr() == n.as_ptr() && o.len() == n.len();
        let pages = (0..=PageId::MAX).map_while(|p| Some((p, new.object.page(p)?)));
        for (p, n) in pages {
            // A page `old` lacks compares unequal and is captured.
            let o = old.object.page(p);
            if !o.is_some_and(|o| shared(o, n)) && o != Some(n) {
                d.pages.push((p, n.clone()));
            }
        }
        (!d.is_empty()).then_some(d)
    }

    /// The delta carrying `old` to `new`, decisions found by scanning `new`'s
    /// whole map against `old`'s: O(decisions ever made). Debug and test
    /// builds only — it is the reference the engine's recorded capture is
    /// asserted against, and what tests holding two bare [`Durable`]s call.
    #[cfg(any(test, debug_assertions))]
    pub fn diff(old: &Durable, new: &Durable) -> Option<DurableDelta> {
        DurableDelta::capture(old, new, added_decisions(old, new))
    }

    /// True if no field is set.
    fn is_empty(&self) -> bool {
        *self == DurableDelta::default()
    }

    /// Applies this delta to `durable`.
    pub fn apply(&self, durable: &mut Durable) {
        set(&mut durable.version, &self.version);
        set(&mut durable.stale, &self.stale);
        set(&mut durable.dversion, &self.dversion);
        if let Some((enumber, elist)) = &self.epoch {
            durable.enumber = *enumber;
            durable.elist = elist.clone();
        }
        for (p, contents) in &self.pages {
            durable.object.write_page(*p, contents.clone());
        }
        durable.log.apply(&self.log);
        set(&mut durable.prepared, &self.prepared);
        for (op, commit) in &self.decisions {
            durable.decisions.insert(*op, *commit);
        }
        set(&mut durable.op_counter, &self.op_counter);
        set(&mut durable.last_good, &self.last_good);
        set(&mut durable.quarantine_fence, &self.quarantine_fence);
        set(&mut durable.rejoin_pending, &self.rejoin_pending);
    }
}

/// One `Option` field of a capture: `new`, if it differs from `old`.
fn changed<T: PartialEq + Clone>(old: &T, new: &T) -> Option<T> {
    (old != new).then(|| new.clone())
}

/// One `Option` field of an apply: overwrites `slot` if the delta has a value.
fn set<T: Clone>(slot: &mut T, value: &Option<T>) {
    if let Some(value) = value {
        slot.clone_from(value);
    }
}

/// The reference scan: entries of `new`'s decision map absent from `old`'s,
/// in op-id order (the map's own). Sound as "the additions" because the map
/// is append-only, which `ReplicaNode::record_decision` asserts.
#[cfg(any(test, debug_assertions))]
fn added_decisions(old: &Durable, new: &Durable) -> Vec<(OpId, bool)> {
    new.decisions
        .iter()
        .filter(|(op, _)| !old.decisions.contains_key(op))
        .map(|(op, commit)| (*op, *commit))
        .collect()
}

/// Journal format v2 magic bytes (`"CTJ2"`).
pub const JOURNAL_MAGIC: [u8; 4] = *b"CTJ2";

/// Byte length of the v2 header: magic, record count, count checksum.
pub const JOURNAL_HEADER_LEN: usize = 16;

/// Why a replay quarantined a journal instead of recovering from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The magic bytes are wrong: this is not a v2 journal.
    BadMagic,
    /// The record-count header fails its checksum — the commit pointer
    /// itself is corrupt, so *which* records were acknowledged is unknown.
    HeaderCorrupt,
    /// A committed record (index < header count) extends past the end of
    /// the journal.
    RecordTruncated {
        /// 0-based index of the bad record.
        index: u64,
    },
    /// A committed record's payload fails its CRC-32.
    ChecksumMismatch {
        /// 0-based index of the bad record.
        index: u64,
    },
    /// A committed record's payload checksums correctly but does not
    /// decode as a [`DurableDelta`] (format damage the CRC missed, or an
    /// internal inconsistency such as non-increasing log versions).
    Undecodable {
        /// 0-based index of the bad record.
        index: u64,
        /// What the decoder objected to.
        what: &'static str,
    },
}

/// The outcome of a checked replay of a framed journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Every committed record replayed and no extra bytes followed.
    Clean,
    /// All committed records replayed; trailing bytes past the last
    /// committed record were dropped. This is the signature of a torn
    /// final append — the record was never acknowledged (the count was
    /// not bumped), so dropping it is a correct crash recovery.
    TornTail {
        /// Unacknowledged bytes dropped from the tail.
        dropped_bytes: usize,
    },
    /// A record *inside* the committed prefix is damaged. Acknowledged
    /// durable state has been lost; the replica must not trust the
    /// replayed prefix as current and instead rejoins the cluster stale
    /// (see `handle_boot_quarantined`).
    Quarantined {
        /// What was damaged.
        reason: QuarantineReason,
    },
}

impl ReplayVerdict {
    /// True when the replayed state may boot normally (clean or torn
    /// tail); false when the replica must take the stale-rejoin path.
    pub fn is_bootable(&self) -> bool {
        !matches!(self, ReplayVerdict::Quarantined { .. })
    }
}

/// A checked replay: the reconstructed durable state (of the longest
/// intact committed prefix), how many records built it, and the verdict.
#[derive(Clone, Debug)]
pub struct FramedReplay {
    /// State rebuilt from the intact committed prefix.
    pub durable: Durable,
    /// Records applied to build it.
    pub records_applied: u64,
    /// What the replay concluded about the journal.
    pub verdict: ReplayVerdict,
}

/// Journal format v2: a byte buffer of length-prefixed, CRC-checksummed
/// [`DurableDelta`] records behind a checksummed record-count header.
///
/// Layout:
///
/// ```text
/// [magic "CTJ2" | count: u64 LE | crc32(count bytes): u32 LE]   header, 16 B
/// [len: u32 LE | crc32(payload): u32 LE | payload: len B]*      records
/// ```
///
/// An append writes the whole record *after* the current end, then bumps
/// the count header (the commit point, one atomic in-place sector write).
/// A crash between the two leaves a complete-but-uncommitted or torn
/// record after the committed prefix — replay drops it as
/// [`ReplayVerdict::TornTail`]. Damage *inside* the committed prefix
/// (checksum or decode failure, truncation, corrupt header) can only come
/// from media corruption and yields [`ReplayVerdict::Quarantined`]:
/// acknowledged state was lost, and recovering "as far as we got" would
/// silently forget 2PC votes and decisions the cluster already observed.
#[derive(Clone, Debug)]
pub struct FramedJournal {
    buf: Vec<u8>,
    /// Mirror of the committed record count (authoritative for appends;
    /// replay always re-reads it from the buffer).
    count: u64,
    appended_total: u64,
}

impl Default for FramedJournal {
    fn default() -> Self {
        FramedJournal::new()
    }
}

/// Little-endian `len` prefix for one record. Payloads are bounded far
/// below `u32::MAX` (encoded collections are `MAX_COUNT`-capped), so the
/// saturation is unreachable; if it ever fired, the record would fail its
/// own length check on replay rather than silently truncate.
fn len_prefix(payload: &[u8]) -> [u8; 4] {
    debug_assert!(u32::try_from(payload.len()).is_ok(), "oversized payload");
    u32::try_from(payload.len())
        .unwrap_or(u32::MAX)
        .to_le_bytes()
}

/// Lays `deltas` out as framed records (`len | crc32 | payload` each) at
/// the end of `out` — the one place the record framing is written.
///
/// Each record is built where it will live: reserve the 8-byte `len | crc`
/// slot, encode the payload straight behind it, then patch the slot from
/// the bytes just written — no temporary payload buffer, no second copy.
/// Every slot is patched before this returns, so a caller that then cuts
/// the batch short (a torn append) keeps a prefix of exactly these bytes.
fn frame_into(out: &mut Vec<u8>, deltas: &[DurableDelta]) {
    for delta in deltas {
        let slot = out.len();
        out.extend_from_slice(&[0; 8]);
        let body = out.len();
        super::codec::encode_delta_into(out, delta);
        let (frame, payload) = out.split_at_mut(body);
        let (len, crc) = (len_prefix(payload), super::codec::crc32(payload));
        if let Some(frame) = frame.get_mut(slot..) {
            let (len_slot, crc_slot) = frame.split_at_mut(4);
            len_slot.copy_from_slice(&len);
            crc_slot.copy_from_slice(&crc.to_le_bytes());
        }
    }
}

impl FramedJournal {
    /// A fresh journal holding only the header (count 0).
    pub fn new() -> Self {
        let mut j = FramedJournal {
            buf: Vec::with_capacity(256),
            count: 0,
            appended_total: 0,
        };
        j.buf.extend_from_slice(&JOURNAL_MAGIC);
        j.buf.extend_from_slice(&0u64.to_le_bytes());
        j.buf
            .extend_from_slice(&super::codec::crc32(&0u64.to_le_bytes()).to_le_bytes());
        j
    }

    /// Adopts raw bytes as a journal (mutation tests and host recovery).
    /// The count mirror is taken from the header if it is intact, else 0 —
    /// appending to a corrupt journal is not meaningful anyway.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        let count = read_committed_count(&buf).unwrap_or(0);
        FramedJournal {
            buf,
            count,
            appended_total: count,
        }
    }

    /// The raw journal bytes (determinism tests serialize these).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Committed records, per the append-side mirror.
    pub fn committed_records(&self) -> u64 {
        self.count
    }

    /// Total records appended over the journal's lifetime (resets and
    /// torn appends included).
    pub fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// Appends one record and commits it by bumping the count header: a
    /// batch of one.
    pub fn append_delta(&mut self, delta: &DurableDelta) {
        self.append_batch(std::slice::from_ref(delta));
    }

    /// Group commit (DESIGN.md §10): appends every record of `deltas` and
    /// commits them all with a *single* header rewrite — one frame-flush
    /// (one fsync on real storage) amortized over the whole batch. The
    /// resulting bytes are identical to appending the same deltas one at a
    /// time: records are laid out in order and the header ends at the same
    /// final count, so replay cannot tell group commit happened.
    pub fn append_batch(&mut self, deltas: &[DurableDelta]) {
        if deltas.is_empty() {
            return;
        }
        frame_into(&mut self.buf, deltas);
        self.count = self.count.saturating_add(deltas.len() as u64);
        self.appended_total = self.appended_total.saturating_add(deltas.len() as u64);
        self.rewrite_header();
    }

    /// A torn group-commit flush: only a prefix of the batch's records
    /// reaches the journal and the count is *not* bumped, so replay drops
    /// the whole batch as a torn tail. Correct because the single header
    /// rewrite is the batch's only commit point — a crash anywhere before
    /// it loses every delta of the batch, none of which was acknowledged
    /// (ack-before-flush). `cut` picks how many bytes survive from the
    /// batch's framed length, so a fault injector can draw the cut without
    /// knowing the framing; at least one byte is always dropped (a
    /// fully-written batch would be indistinguishable from a pre-commit
    /// crash, which is the same recovery anyway).
    pub(super) fn append_batch_torn_at(
        &mut self,
        deltas: &[DurableDelta],
        cut: impl FnOnce(usize) -> usize,
    ) {
        let start = self.buf.len();
        frame_into(&mut self.buf, deltas);
        let framed = self.buf.len().saturating_sub(start);
        let keep = cut(framed).min(framed.saturating_sub(1));
        self.buf.truncate(start.saturating_add(keep));
        self.appended_total = self.appended_total.saturating_add(deltas.len() as u64);
    }

    /// Flips one bit in place; returns false if `byte` is out of range.
    pub fn flip_bit(&mut self, byte: usize, bit: u8) -> bool {
        let flipped = self.buf.get_mut(byte).map(|b| *b ^= 1u8 << (bit % 8));
        flipped.is_some()
    }

    /// Drops unacknowledged bytes past the last committed record — the
    /// torn tail a crash mid-append leaves behind. Recovery must call this
    /// before appending again, or the next record would land after the
    /// garbage and corrupt the committed prefix. Returns the bytes
    /// dropped. A journal whose committed prefix does not parse (a
    /// quarantine case) is left untouched; [`reset_to`](Self::reset_to)
    /// owns that recovery.
    pub fn truncate_tail(&mut self) -> usize {
        let Ok(mut walk) = Walk::open(&self.buf) else {
            return 0;
        };
        walk.by_ref().for_each(drop);
        if walk.truncated() {
            return 0;
        }
        let (end, count) = (walk.pos, walk.count);
        let dropped = self.buf.len().saturating_sub(end);
        self.buf.truncate(end);
        self.count = count;
        dropped
    }

    /// The bytes of storage-fault unit `unit`: 0 is the header, `k` the
    /// `k`-th committed record, frame included. `None` if earlier damage
    /// keeps the walk from reaching it.
    pub(super) fn unit_span(&self, unit: u64) -> Option<Range<usize>> {
        match usize::try_from(unit).ok()?.checked_sub(1) {
            None => Some(0..JOURNAL_HEADER_LEN.min(self.buf.len())),
            Some(record) => Walk::open(&self.buf).ok()?.nth(record),
        }
    }

    /// Replaces the journal with a fresh one whose single record carries
    /// `durable` (as a delta from pristine, every decision included). This
    /// is the quarantine-recovery baseline: the damaged history is
    /// discarded and the journal restarts from the state the replica
    /// rejoined with.
    pub fn reset_to(&mut self, durable: &Durable, config: &ProtocolConfig) {
        let mut fresh = FramedJournal::new();
        let decided = durable.decisions.iter().map(|(op, c)| (*op, *c)).collect();
        if let Some(delta) = DurableDelta::capture(&Durable::pristine(config), durable, decided) {
            fresh.append_delta(&delta);
        }
        fresh.appended_total = self.appended_total.saturating_add(fresh.count);
        *self = fresh;
    }

    /// Replays the journal, verifying framing and checksums (see the type
    /// docs for the verdict semantics). Never panics, whatever the bytes.
    pub fn replay_checked(&self, config: &ProtocolConfig) -> FramedReplay {
        let mut durable = Durable::pristine(config);
        let buf = &self.buf;
        let mut walk = match Walk::open(buf) {
            Ok(walk) => walk,
            // Journal creation itself was torn; nothing was ever
            // committed, so pristine boot is correct.
            Err(None) => {
                let dropped_bytes = buf.len();
                let verdict = ReplayVerdict::TornTail { dropped_bytes };
                return FramedReplay {
                    durable,
                    records_applied: 0,
                    verdict,
                };
            }
            Err(Some(reason)) => return quarantined(durable, 0, reason),
        };
        while let Some(span) = walk.next() {
            let index = walk.index.saturating_sub(1);
            let record = buf.get(span).and_then(|r| r.split_at_checked(8));
            let (frame, payload) = record.unwrap_or_default();
            let crc = frame.last_chunk::<4>().map(|c| u32::from_le_bytes(*c));
            let reason = if crc != Some(super::codec::crc32(payload)) {
                QuarantineReason::ChecksumMismatch { index }
            } else {
                match super::codec::decode_delta(payload) {
                    Ok(delta) => {
                        delta.apply(&mut durable);
                        continue;
                    }
                    Err(e) => QuarantineReason::Undecodable {
                        index,
                        what: e.what,
                    },
                }
            };
            return quarantined(durable, index, reason);
        }
        if walk.truncated() {
            let index = walk.index;
            return quarantined(durable, index, QuarantineReason::RecordTruncated { index });
        }
        let verdict = match buf.len().saturating_sub(walk.pos) {
            0 => ReplayVerdict::Clean,
            dropped_bytes => ReplayVerdict::TornTail { dropped_bytes },
        };
        FramedReplay {
            durable,
            records_applied: walk.count,
            verdict,
        }
    }

    fn rewrite_header(&mut self) {
        let count = self.count.to_le_bytes();
        let crc = super::codec::crc32(&count).to_le_bytes();
        // Adopted bytes shorter than a header (torn creation) have nothing
        // to rewrite in place; replay treats them as an empty journal.
        if let Some(header) = self.buf.get_mut(4..JOURNAL_HEADER_LEN) {
            let (count_slot, crc_slot) = header.split_at_mut(count.len());
            count_slot.copy_from_slice(&count);
            crc_slot.copy_from_slice(&crc);
        }
    }
}

/// The one walk over a journal image: yields the byte span of each
/// committed record (frame and payload), lengths checked against the buffer;
/// checksums and payloads are the caller's business. It stops after the
/// header's count, or early at a record that runs past the end of the buffer
/// ([`truncated`](Walk::truncated)); `pos` ends behind the last record yielded.
struct Walk<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Records yielded so far: the index of the next one.
    index: u64,
    count: u64,
}

impl<'a> Walk<'a> {
    /// Checks the header. `Err(None)` is a buffer shorter than a header (a
    /// torn creation: nothing was ever committed).
    fn open(buf: &'a [u8]) -> Result<Self, Option<QuarantineReason>> {
        if buf.len() < JOURNAL_HEADER_LEN {
            return Err(None);
        }
        if !buf.starts_with(&JOURNAL_MAGIC) {
            return Err(Some(QuarantineReason::BadMagic));
        }
        let count = read_committed_count(buf).ok_or(Some(QuarantineReason::HeaderCorrupt))?;
        Ok(Walk {
            buf,
            pos: JOURNAL_HEADER_LEN,
            index: 0,
            count,
        })
    }

    /// True once the walk has stopped short of the header's count.
    fn truncated(&self) -> bool {
        self.index < self.count
    }
}

impl Iterator for Walk<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.index == self.count {
            return None;
        }
        // checked_add throughout: a corrupted length prefix near
        // `usize::MAX` must not wrap the position back inside the buffer
        // and mis-parse instead of quarantining.
        let body = self.pos.checked_add(8)?;
        let len = self.buf.get(self.pos..body)?.first_chunk::<4>()?;
        let end = body.checked_add(u32::from_le_bytes(*len) as usize)?;
        let span = self.pos..end;
        self.buf.get(span.clone())?;
        (self.pos, self.index) = (end, self.index.saturating_add(1));
        Some(span)
    }
}

/// Reads the committed count from a header, or `None` if the header is
/// missing or fails its checksum.
fn read_committed_count(buf: &[u8]) -> Option<u64> {
    let count = buf.get(4..12)?.first_chunk::<8>()?;
    let crc = buf.get(12..JOURNAL_HEADER_LEN)?.first_chunk::<4>()?;
    (super::codec::crc32(count) == u32::from_le_bytes(*crc)).then(|| u64::from_le_bytes(*count))
}

fn quarantined(durable: Durable, records_applied: u64, reason: QuarantineReason) -> FramedReplay {
    FramedReplay {
        durable,
        records_applied,
        verdict: ReplayVerdict::Quarantined { reason },
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::store::{LogEntry, PartialWrite};
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(Arc::new(GridCoterie::new()), 4)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn diff_of_identical_states_is_none() {
        let d = Durable::pristine(&cfg());
        let mut same = d.clone();
        same.log.clear(); // clearing an empty log is no change either
        assert!(DurableDelta::diff(&d, &same).is_none());
    }

    /// A pristine state and one that differs from it in every field (the
    /// codec tests encode the delta between them).
    pub(in crate::engine) fn rich_states() -> (Durable, Durable) {
        let old = Durable::pristine(&cfg());
        let mut new = old.clone();
        new.version = 7;
        new.stale = true;
        new.dversion = 9;
        new.enumber = 3;
        new.elist = vec![NodeId(0), NodeId(2), NodeId(3)];
        new.object
            .apply(&PartialWrite::new([(0, b("aa")), (2, b(""))]));
        new.log.push(LogEntry {
            version: 7,
            write: PartialWrite::new([(0, b("aa"))]),
        });
        let action = Action::NewEpoch {
            list: vec![NodeId(0), NodeId(1)],
            enumber: 4,
            good: vec![NodeId(0)],
            stale: vec![NodeId(1)],
            desired_version: 8,
        };
        new.prepared = Some((op(40), action));
        new.decisions.extend([(op(1), true), (op(2), false)]);
        new.op_counter = 12;
        new.last_good = vec![NodeId(0), NodeId(2)];
        new.quarantine_fence = 1_000_000;
        new.rejoin_pending = true;
        (old, new)
    }

    /// `apply(capture(old, new))(old) == new`, and the delta survives the
    /// codec; returns what it says about the log.
    fn round_trip(old: &Durable, new: &Durable) -> LogDelta {
        let delta = DurableDelta::diff(old, new).expect("changed");
        let mut rebuilt = old.clone();
        delta.apply(&mut rebuilt);
        assert_eq!(&rebuilt, new);
        let decoded = super::super::codec::decode_delta(&super::super::codec::encode_delta(&delta));
        assert_eq!(decoded.as_ref(), Ok(&delta));
        delta.log
    }

    #[test]
    fn diff_then_apply_round_trips() {
        let (old, new) = rich_states();
        assert_eq!(round_trip(&old, &new).pushed.len(), 1);
    }

    /// A coordinator holding 3 000 decisions (even seqs), restored the way
    /// recovery restores it.
    fn long_lived_coordinator() -> (crate::node::ReplicaNode, Durable) {
        let config = cfg();
        let mut held = Durable::pristine(&config);
        for seq in 1..=3_000u64 {
            held.decisions.insert(op(2 * seq), seq % 3 == 0);
        }
        let mut node = crate::node::ReplicaNode::new(NodeId(0), config);
        node.install_durable(held.clone());
        (node, held)
    }

    fn op(seq: u64) -> OpId {
        let node = NodeId(0);
        OpId { node, seq }
    }

    /// What one step persists (`Crash` touches no durable field itself, so
    /// the delta is exactly what was recorded before it).
    fn persisted_by_step(node: &mut crate::node::ReplicaNode) -> Option<DurableDelta> {
        use super::super::io::{Effect, Input};
        let effects = node.step(coterie_base::SimTime::ZERO, Input::Crash);
        effects.into_iter().find_map(|e| match e {
            Effect::Persist(delta) => Some(*delta),
            _ => None,
        })
    }

    #[test]
    fn recorded_decisions_come_out_in_op_order_and_match_the_scan() {
        let (mut node, held) = long_lived_coordinator();
        // Recorded out of op order; one sorts into the middle of the map.
        node.record_decision(op(6_001), true);
        node.record_decision(op(7), false);
        let scanned = DurableDelta::diff(&held, &node.durable).expect("changed");
        let delta = persisted_by_step(&mut node).expect("two decisions to persist");
        assert_eq!(delta.decisions, vec![(op(7), false), (op(6_001), true)]);
        assert_eq!(delta, scanned);
        assert_eq!(persisted_by_step(&mut node), None, "drained by the step");
        // Nor does a recorded decision outlive the state it was made in.
        node.record_decision(op(9), true);
        node.install_durable(held);
        assert_eq!(persisted_by_step(&mut node), None, "cleared by install");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-decided")]
    fn redeciding_an_op_differently_is_caught_at_the_entry_point() {
        let (mut node, _) = long_lived_coordinator();
        node.record_decision(op(2), true); // op(2): seq 1, 1 % 3 != 0 => held as abort
    }

    fn entry(version: u64) -> LogEntry {
        let write = PartialWrite::new([((version % 4) as PageId, b("pg"))]);
        LogEntry { version, write }
    }

    /// The deltas of `n` simple committed writes plus the final state.
    fn build_deltas(config: &ProtocolConfig, n: u64) -> (Vec<DurableDelta>, Durable) {
        let mut state = Durable::pristine(config);
        let mut deltas = Vec::new();
        for v in 1..=n {
            let mut next = state.clone();
            next.version = v;
            next.object.apply(&entry(v).write);
            next.log.push(entry(v));
            deltas.push(DurableDelta::diff(&state, &next).expect("changed"));
            state = next;
        }
        (deltas, state)
    }

    /// A journal those deltas were appended to one at a time.
    fn build_framed(config: &ProtocolConfig, n: u64) -> (FramedJournal, Durable) {
        let (deltas, state) = build_deltas(config, n);
        let mut journal = FramedJournal::new();
        deltas.iter().for_each(|d| journal.append_delta(d));
        (journal, state)
    }

    #[test]
    fn framed_clean_replay_reconstructs_state() {
        let config = cfg();
        let (journal, state) = build_framed(&config, 6);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::Clean);
        assert_eq!(replay.records_applied, 6);
        assert_eq!(replay.durable, state);
        assert_eq!(journal.committed_records(), 6);
    }

    #[test]
    fn framed_torn_append_recovers_committed_prefix_and_never_keeps_the_whole_record() {
        let config = cfg();
        let (journal, state) = build_framed(&config, 3);
        let delta = DurableDelta {
            version: Some(9),
            ..DurableDelta::default()
        };
        let whole = 8 + super::super::codec::encode_delta(&delta).len();
        // Even a cut past the end drops at least one byte.
        for (keep, kept) in [(5, 5), (usize::MAX, whole - 1)] {
            let mut journal = journal.clone();
            journal.append_batch_torn_at(std::slice::from_ref(&delta), |_| keep);
            let replay = journal.replay_checked(&config);
            let dropped_bytes = kept;
            assert_eq!(replay.verdict, ReplayVerdict::TornTail { dropped_bytes });
            assert_eq!(replay.durable, state, "torn record dropped, prefix kept");
            assert!(replay.verdict.is_bootable());
        }
    }

    #[test]
    fn framed_damage_inside_the_committed_prefix_quarantines() {
        let config = cfg();
        let (journal, _) = build_framed(&config, 5);
        let checksum = QuarantineReason::ChecksumMismatch { index: 0 };
        for (byte, bit, reason) in [
            // One payload bit of the first record, just past its frame.
            (JOURNAL_HEADER_LEN + 8 + 2, 3, checksum),
            // A count bit (header offset 4..12): without the header CRC this
            // would masquerade as a torn tail and silently drop
            // acknowledged records.
            (5, 0, QuarantineReason::HeaderCorrupt),
            (0, 7, QuarantineReason::BadMagic),
        ] {
            let mut corrupt = journal.clone();
            assert!(corrupt.flip_bit(byte, bit));
            let replay = corrupt.replay_checked(&config);
            assert_eq!(replay.verdict, ReplayVerdict::Quarantined { reason });
            assert!(!replay.verdict.is_bootable());
        }
    }

    #[test]
    fn framed_torn_creation_boots_pristine() {
        let config = cfg();
        let journal = FramedJournal::from_bytes(vec![b'C', b'T']);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::TornTail { dropped_bytes: 2 });
        assert_eq!(replay.durable, Durable::pristine(&config));
    }

    #[test]
    fn framed_reset_to_restarts_history() {
        let config = cfg();
        let (mut journal, state) = build_framed(&config, 4);
        let total_before = journal.appended_total();
        journal.reset_to(&state, &config);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::Clean);
        assert_eq!(replay.durable, state);
        assert_eq!(journal.committed_records(), 1);
        assert!(journal.appended_total() > total_before);
    }

    #[test]
    fn batch_append_is_byte_identical_to_sequential() {
        let config = cfg();
        let (one_by_one, state) = build_framed(&config, 5);
        assert_eq!(one_by_one.replay_checked(&config).durable, state);
        let mut batched = FramedJournal::new();
        batched.append_batch(&build_deltas(&config, 5).0);
        assert_eq!(batched.bytes(), one_by_one.bytes());
        assert_eq!(batched.committed_records(), 5);
    }

    #[test]
    fn in_place_framing_is_len_crc_payload_and_a_torn_batch_is_its_prefix() {
        // Three shapes: scalars and decisions, a page with a log push, nothing.
        let pushed = vec![Arc::new(LogEntry {
            version: 8,
            write: PartialWrite::new([(1, b("page one")), (3, b(""))]),
        })];
        let batch = [
            DurableDelta {
                version: Some(3),
                decisions: vec![(op(4), true), (op(6), false)],
                ..DurableDelta::default()
            },
            DurableDelta {
                pages: vec![(1, b("page one"))],
                log: LogDelta {
                    cleared: false,
                    pushed,
                },
                ..DurableDelta::default()
            },
            DurableDelta::default(),
        ];
        // The documented framing, spelled out record by record.
        let mut whole = Vec::new();
        for d in &batch {
            let payload = super::super::codec::encode_delta(d);
            whole.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            whole.extend_from_slice(&super::super::codec::crc32(&payload).to_le_bytes());
            whole.extend_from_slice(&payload);
        }
        let mut journal = FramedJournal::new();
        journal.append_batch(&batch);
        assert_eq!(journal.bytes()[JOURNAL_HEADER_LEN..], whole);
        assert_eq!(journal.replay_checked(&cfg()).verdict, ReplayVerdict::Clean);
        // Cuts inside the first slot, a payload, a later record, and past
        // the end (clamped so at least one byte is dropped).
        for keep in [0, 3, 8, 9, whole.len() / 2, whole.len() - 1, usize::MAX] {
            let mut torn = FramedJournal::new();
            torn.append_batch_torn_at(&batch, |framed| {
                assert_eq!(
                    framed,
                    whole.len(),
                    "the cut is drawn from the framed length"
                );
                keep
            });
            let kept = keep.min(whole.len() - 1);
            assert_eq!(torn.bytes()[JOURNAL_HEADER_LEN..], whole[..kept]);
            assert_eq!((torn.committed_records(), torn.appended_total()), (0, 3));
        }
    }

    #[test]
    fn torn_batch_flush_drops_whole_batch() {
        let config = cfg();
        let (mut journal, state) = build_framed(&config, 2);
        let batch = [3, 4].map(|v| DurableDelta {
            version: Some(v),
            ..DurableDelta::default()
        });
        journal.append_batch_torn_at(&batch, |_| usize::MAX);
        let replay = journal.replay_checked(&config);
        assert!(
            matches!(replay.verdict, ReplayVerdict::TornTail { .. }),
            "torn batch must classify as torn tail: {:?}",
            replay.verdict
        );
        assert_eq!(replay.durable, state, "no partial batch survives");
        // truncate_tail heals the journal for further appends.
        let mut healed = journal.clone();
        assert!(healed.truncate_tail() > 0);
        assert_eq!(healed.replay_checked(&config).verdict, ReplayVerdict::Clean);
    }

    #[test]
    fn log_delta_is_what_the_step_pushed_not_the_log() {
        let config = cfg().log_capacity(8);
        let pristine = Durable::pristine(&config);
        let mut old = pristine.clone();
        (1..=5).for_each(|v| old.log.push(entry(v)));
        // One push: exactly that entry, the very one the live log holds.
        let mut new = old.clone();
        new.log.push(entry(6));
        let log = round_trip(&old, &new);
        assert_eq!((log.cleared, log.pushed.len()), (false, 1));
        let newest = new.log.iter().last().expect("just pushed");
        assert!(std::ptr::eq(&*log.pushed[0], newest));
        // Several pushes in one step (propagation catch-up), running past
        // the cap: the pushes alone; replaying them re-trims.
        (7..=11).for_each(|v| new.log.push(entry(v)));
        let log = round_trip(&old, &new);
        assert_eq!((log.cleared, log.pushed.len()), (false, 6));
        assert_eq!(new.log.len(), 8);
        // More pushes than the cap holds: nothing of `old` is left to
        // continue from, so the delta is the whole (cap-sized) log — which
        // is also what `reset_to` writes, onto a pristine state.
        (12..=20).for_each(|v| new.log.push(entry(v)));
        let log = round_trip(&old, &new);
        assert_eq!((log.cleared, log.pushed.len()), (true, 8));
        assert_eq!(log.pushed, round_trip(&pristine, &new).pushed);
        let mut journal = FramedJournal::new();
        journal.reset_to(&new, &config);
        assert_eq!(journal.replay_checked(&config).durable, new);
        // A snapshot restore: cleared; cleared and then pushed.
        let mut restored = new.clone();
        restored.log.clear();
        assert_eq!(round_trip(&new, &restored).pushed.len(), 0);
        restored.log.push(entry(31));
        let log = round_trip(&new, &restored);
        assert_eq!((log.cleared, log.pushed.len()), (true, 1));
    }

    #[test]
    fn apply_is_total_over_records_of_other_histories() {
        // The benchmark's journal probe replays several nodes' record
        // suffixes onto one pristine state: a pushed entry need not extend
        // the log it lands on. It is appended as is, in every profile.
        let push = |v| DurableDelta {
            log: LogDelta {
                cleared: false,
                pushed: vec![Arc::new(entry(v))],
            },
            ..DurableDelta::default()
        };
        let mut journal = FramedJournal::new();
        journal.append_batch(&[push(9), push(3), push(3)]);
        let replay = journal.replay_checked(&cfg());
        assert_eq!(replay.verdict, ReplayVerdict::Clean);
        let versions: Vec<u64> = replay.durable.log.iter().map(|e| e.version).collect();
        assert_eq!(versions, [9, 3, 3]);
    }

    #[test]
    fn storage_fault_units_are_the_header_and_each_committed_record() {
        let (mut journal, _) = build_framed(&cfg(), 3);
        assert_eq!(journal.unit_span(0), Some(0..JOURNAL_HEADER_LEN));
        let spans: Vec<_> = (1..=3).filter_map(|u| journal.unit_span(u)).collect();
        assert_eq!(spans[0].start, JOURNAL_HEADER_LEN);
        assert_eq!(
            (spans[1].start, spans[2].start),
            (spans[0].end, spans[1].end)
        );
        assert_eq!(spans[2].end, journal.bytes().len());
        assert_eq!(journal.unit_span(4), None);
        // A record cut short is no unit, though the ones before it are.
        journal.buf.truncate(spans[2].end - 1);
        assert_eq!(journal.unit_span(2), Some(spans[1].clone()));
        assert_eq!(journal.unit_span(3), None);
    }

    #[test]
    fn epoch_changes_atomically() {
        let config = cfg();
        let old = Durable::pristine(&config);
        let mut new = old.clone();
        new.enumber = 4;
        new.elist = vec![NodeId(1), NodeId(3)];
        let delta = DurableDelta::diff(&old, &new).unwrap();
        assert_eq!(delta.epoch, Some((4, vec![NodeId(1), NodeId(3)])));
        // The rest of the delta is empty: nothing else is touched.
        assert_eq!(
            DurableDelta {
                epoch: None,
                ..delta
            },
            DurableDelta::default()
        );
    }
}
