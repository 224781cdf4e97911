//! The framed journal that durable-state deltas are written to.
//!
//! The engine never writes to disk. A [`step`](crate::node::ReplicaNode::step)
//! that changes [`Durable`] emits one
//! [`Effect::Persist`](super::io::Effect::Persist) carrying the
//! [`DurableDelta`] its named transitions recorded (see
//! [`crate::durable`]); this module appends such deltas and replays them.
//! Three properties matter:
//!
//! * **Atomicity of epoch installation.** The paper requires the epoch
//!   tuple `(enumber, elist)` to change atomically; the delta carries the
//!   pair as one field, and a whole delta is one checksummed record of the
//!   [`FramedJournal`], so no torn epoch can be observed on replay.
//! * **Write-ahead ordering.** The `Persist` effect is always the *first*
//!   effect of a step: a host that journals before sending guarantees the
//!   2PC prepare record is stable before the vote that promises it.
//! * **Replay is the oracle.** A transition that changed a field without
//!   recording it shows as a replay that differs from the live state, which
//!   `crash_replay` checks at every persist boundary.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::ops::Range;

use crate::config::ProtocolConfig;
use crate::durable::{Durable, DurableDelta};

/// Journal format v3 magic bytes (`"CTJ3"`).
pub const JOURNAL_MAGIC: [u8; 4] = *b"CTJ3";

/// Byte length of the v3 header: magic, record count, count checksum.
pub const JOURNAL_HEADER_LEN: usize = 16;

/// Why a replay quarantined a journal instead of recovering from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The magic bytes are wrong: this is not a v3 journal.
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
    /// (see [`crate::rejoin`]).
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

/// Journal format v3: a byte buffer of length-prefixed, CRC-checksummed
/// [`DurableDelta`] records behind a checksummed record-count header.
///
/// Layout:
///
/// ```text
/// [magic "CTJ3" | count: u64 LE | crc32(count bytes): u32 LE]   header, 16 B
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

    /// Appends every record of `deltas` and commits them all with one
    /// header rewrite. The bytes are identical to appending the same deltas
    /// one at a time: records are laid out in order and the header ends at
    /// the same final count. Production commits one delta per step (the
    /// interpreter passes a slice of one); longer slices serve only the
    /// benchmark's `storage.append_batch16` probe and `write_path.rs`'s
    /// byte-identity property.
    pub fn append_batch(&mut self, deltas: &[DurableDelta]) {
        if deltas.is_empty() {
            return;
        }
        frame_into(&mut self.buf, deltas);
        self.count = self.count.saturating_add(deltas.len() as u64);
        self.appended_total = self.appended_total.saturating_add(deltas.len() as u64);
        self.rewrite_header();
    }

    /// A torn append: only a prefix of the records' bytes reaches the
    /// journal and the count is *not* bumped, so replay drops them as a
    /// torn tail. Correct because the header rewrite is the only commit
    /// point, and nothing is acknowledged before it (ack-before-flush). The
    /// interpreter tears one delta at a time. `cut` picks how many bytes
    /// survive from the framed length, so a fault injector can draw the cut
    /// without knowing the framing; at least one byte is always dropped (a
    /// fully-written record would be indistinguishable from a pre-commit
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
        if let Some(delta) = DurableDelta::image(durable, config) {
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
mod tests {
    use super::*;
    use crate::durable::DurableCell;
    use crate::msg::OpId;
    use crate::store::{LogDelta, LogEntry, PageId, PartialWrite};
    use bytes::Bytes;
    use coterie_quorum::{GridCoterie, NodeId};
    use std::sync::Arc;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(Arc::new(GridCoterie::new()), 4)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn op(seq: u64) -> OpId {
        let node = NodeId(0);
        OpId { node, inc: 0, seq }
    }

    fn entry(version: u64) -> LogEntry {
        let write = PartialWrite::new([((version % 4) as PageId, b("pg"))]);
        LogEntry { version, write }
    }

    /// The deltas of `n` simple committed writes plus the final state.
    fn build_deltas(config: &ProtocolConfig, n: u64) -> (Vec<DurableDelta>, Durable) {
        let mut state = DurableCell::new(Durable::pristine(config));
        let deltas = (1..=n).map(|v| {
            state.apply_update(&[entry(v).write], v, None, &[]);
            state.take_delta().expect("changed")
        });
        (deltas.collect(), (*state).clone())
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
}
