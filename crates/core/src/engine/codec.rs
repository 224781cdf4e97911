//! Deterministic byte codec for [`DurableDelta`] — the payload format of
//! the framed journal (format v3, see DESIGN.md §9).
//!
//! Every field is little-endian and self-delimiting: scalars are fixed
//! width, `Option`s carry a one-byte tag, and variable-length data is
//! length-prefixed with a `u32` count. Encoding is a pure function of the
//! delta — two engines that produce equal deltas produce byte-identical
//! records, which is what lets the determinism suite compare journals
//! across processes. Decoding never panics: every malformed input maps to
//! a [`DecodeError`] carrying the byte offset and a description, which the
//! framed replay turns into a quarantine verdict.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use bytes::Bytes;
use coterie_quorum::NodeId;

use crate::msg::{Action, OpId};
use std::sync::Arc;

use crate::store::{LogDelta, LogEntry, PageId, Pages, PartialWrite};

use crate::durable::DurableDelta;

/// A malformed journal payload: where decoding stopped and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset within the payload at which the error was detected.
    pub offset: usize,
    /// What the decoder expected there.
    pub what: &'static str,
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the checksum the
/// framed journal stores per record. Hand-rolled so the engine stays free
/// of external dependencies.
///
/// Slice-by-8: the loop folds eight input bytes per round through eight
/// 256-entry tables, where table `k` maps a byte to its CRC contribution
/// once `k` further bytes have followed it; the tail of fewer than eight
/// bytes goes through table 0 one byte at a time. The values are those of
/// the one-table bytewise loop, which stays in this file's tests as the
/// reference the sliced loop is compared against.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let (rounds, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in rounds {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = entry(&t[7], lo)
            ^ entry(&t[6], lo >> 8)
            ^ entry(&t[5], lo >> 16)
            ^ entry(&t[4], lo >> 24)
            ^ entry(&t[3], hi)
            ^ entry(&t[2], hi >> 8)
            ^ entry(&t[1], hi >> 16)
            ^ entry(&t[0], hi >> 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ entry(&t[0], crc ^ u32::from(b));
    }
    !crc
}

/// The entry of `table` selected by the low byte of `v` — the one place a
/// CRC table is indexed.
#[inline(always)]
#[expect(clippy::indexing_slicing, reason = "the index is masked to 0..=255")]
fn entry(table: &[u32; 256], v: u32) -> u32 {
    table[(v & 0xFF) as usize]
}

/// `CRC32_TABLES[k][b]`: the CRC register after byte `b` and then `k` zero
/// bytes have been shifted through it. Table 0 is the classic bytewise table.
static CRC32_TABLES: [[u32; 256]; 8] = [
    crc32_table(0),
    crc32_table(1),
    crc32_table(2),
    crc32_table(3),
    crc32_table(4),
    crc32_table(5),
    crc32_table(6),
    crc32_table(7),
];

#[expect(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    reason = "compile-time table builder: i < 256 and bit < 64 by the loop conditions"
)]
const fn crc32_table(zero_bytes: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 * (1 + zero_bytes) {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i as usize] = crc;
        i += 1;
    }
    table
}

/// Encodes a delta into the journal payload format.
pub fn encode_delta(delta: &DurableDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_delta_into(&mut out, delta);
    out
}

/// Appends the journal payload encoding of `delta` to `out` — the same
/// bytes [`encode_delta`] returns, written where the caller wants them (the
/// journal frames records in place).
pub fn encode_delta_into(out: &mut Vec<u8>, delta: &DurableDelta) {
    put_opt(out, delta.version, put_u64);
    put_opt(out, delta.stale, put_bool);
    put_opt(out, delta.dversion, put_u64);
    put_opt(out, delta.epoch.as_ref(), |out, (enumber, elist)| {
        put_u64(out, *enumber);
        put_nodes(out, elist);
    });
    put_len(out, delta.pages.len());
    for (page, contents) in &delta.pages {
        put_u16(out, *page);
        put_bytes(out, contents);
    }
    put_log(out, &delta.log);
    put_opt(out, delta.prepared.as_ref(), |out, slot| {
        put_opt(out, slot.as_ref(), |out, (op, action)| {
            put_op(out, *op);
            put_action(out, action);
        })
    });
    put_len(out, delta.decisions.len());
    for (op, commit) in &delta.decisions {
        put_op(out, *op);
        put_bool(out, *commit);
    }
    put_opt(out, delta.op_counter, put_u64);
    put_opt(out, delta.last_good.as_deref(), put_nodes);
    put_opt(out, delta.incarnation, put_u64);
    put_opt(out, delta.rejoin_pending, put_bool);
}

/// Decodes a journal payload back into a delta. Fails (never panics) on
/// any truncation, bad tag, or internal inconsistency — including
/// non-increasing versions among the log entries one record pushes, which
/// a bit flip can produce and which would otherwise corrupt propagation.
pub fn decode_delta(payload: &[u8]) -> Result<DurableDelta, DecodeError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let mut delta = DurableDelta {
        version: r.opt_u64()?,
        stale: r.opt_bool()?,
        dversion: r.opt_u64()?,
        epoch: r.opt("epoch option tag", |r| {
            Ok((r.u64("epoch number")?, r.nodes()?))
        })?,
        ..DurableDelta::default()
    };
    let n_pages = r.count("page count")?;
    for _ in 0..n_pages {
        let page: PageId = r.u16("page id")?;
        let contents = r.bytes("page contents")?;
        delta.pages.push((page, contents));
    }
    delta.log = r.log()?;
    delta.prepared = r.opt("prepared option tag", |r| {
        r.opt("prepared slot tag", |r| Ok((r.op()?, r.action()?)))
    })?;
    let n_decisions = r.count("decision count")?;
    for _ in 0..n_decisions {
        let op = r.op()?;
        let commit = r.bool("decision flag")?;
        delta.decisions.push((op, commit));
    }
    delta.op_counter = r.opt_u64()?;
    delta.last_good = r.opt("last-good option tag", Reader::nodes)?;
    delta.incarnation = r.opt_u64()?;
    delta.rejoin_pending = r.opt_bool()?;
    if r.pos != r.buf.len() {
        return Err(DecodeError {
            offset: r.pos,
            what: "trailing bytes after delta",
        });
    }
    Ok(delta)
}

// ---- encoding primitives ------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a collection length as a `u32` count prefix. Well-formed deltas
/// never approach `MAX_COUNT`, let alone `u32::MAX`; if an impossible
/// length ever arrived here, saturating makes the *decoder* reject the
/// record (the count exceeds `MAX_COUNT`) instead of silently truncating
/// the count and mis-framing everything after it.
fn put_len(out: &mut Vec<u8>, n: usize) {
    debug_assert!(n <= MAX_COUNT as usize, "collection exceeds MAX_COUNT");
    put_u32(out, u32::try_from(n).unwrap_or(u32::MAX));
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// An `Option`: a one-byte tag, then the value if there is one.
fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put(out, v);
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &Bytes) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn put_nodes(out: &mut Vec<u8>, nodes: &[NodeId]) {
    put_len(out, nodes.len());
    for n in nodes {
        put_u32(out, n.0);
    }
}

fn put_op(out: &mut Vec<u8>, op: OpId) {
    put_u32(out, op.node.0);
    put_u64(out, op.inc);
    put_u64(out, op.seq);
}

fn put_write(out: &mut Vec<u8>, write: &PartialWrite) {
    put_len(out, write.pages.len());
    for (page, contents) in &write.pages {
        put_u16(out, *page);
        put_bytes(out, contents);
    }
}

/// One tag byte — 0 unchanged, 1 entries pushed, 2 cleared and then entries
/// pushed (possibly none) — and, unless 0, the counted entries.
fn put_log(out: &mut Vec<u8>, log: &LogDelta) {
    if log.is_empty() {
        return out.push(0);
    }
    out.push(if log.cleared { 2 } else { 1 });
    put_len(out, log.pushed.len());
    for entry in &log.pushed {
        put_u64(out, entry.version);
        put_write(out, &entry.write);
    }
}

fn put_action(out: &mut Vec<u8>, action: &Action) {
    match action {
        Action::DoUpdate {
            writes,
            new_version,
            stale,
            good,
            base,
        } => {
            out.push(0);
            put_len(out, writes.len());
            for write in writes {
                put_write(out, write);
            }
            put_u64(out, *new_version);
            put_nodes(out, stale);
            put_nodes(out, good);
            put_opt(out, base.as_ref(), |out, (pages, version)| {
                put_len(out, pages.len());
                for p in pages.iter() {
                    put_bytes(out, p);
                }
                put_u64(out, *version);
            });
        }
        Action::MarkStale { desired_version } => {
            out.push(1);
            put_u64(out, *desired_version);
        }
        Action::NewEpoch {
            list,
            enumber,
            good,
            stale,
            desired_version,
        } => {
            out.push(2);
            put_nodes(out, list);
            put_u64(out, *enumber);
            put_nodes(out, good);
            put_nodes(out, stale);
            put_u64(out, *desired_version);
        }
    }
}

// ---- decoding primitives ------------------------------------------------

/// Caps decoded collection counts: a corrupted length prefix must produce
/// a [`DecodeError`], not an attempted multi-gigabyte allocation. The cap
/// is generous (every real delta is orders of magnitude smaller) and only
/// bounds the *initial reservation*; actual element reads still hit
/// end-of-input first if the count lies.
const MAX_COUNT: u32 = 1 << 20;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, what: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            what,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(self.err(what))?;
        let slice = self.buf.get(self.pos..end).ok_or(self.err(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let err = self.err(what);
        self.take(N, what)?.first_chunk().copied().ok_or(err)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        self.array(what).map(|[b]| b)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        let err = self.err(what);
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(err),
        }
    }

    /// An `Option`: a one-byte tag, then the value if the tag says so.
    fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        self.bool(what)?.then(|| read(self)).transpose()
    }

    fn count(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let err = self.err(what);
        let n = self.u32(what)?;
        if n > MAX_COUNT {
            return Err(err);
        }
        Ok(n)
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        self.opt("u64 option tag", |r| r.u64("u64 value"))
    }

    fn opt_bool(&mut self) -> Result<Option<bool>, DecodeError> {
        self.opt("bool option tag", |r| r.bool("bool value"))
    }

    fn bytes(&mut self, what: &'static str) -> Result<Bytes, DecodeError> {
        let len = self.count(what)? as usize;
        let slice = self.take(len, what)?;
        Ok(Bytes::copy_from_slice(slice))
    }

    fn nodes(&mut self) -> Result<Vec<NodeId>, DecodeError> {
        let n = self.count("node count")?;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(NodeId(self.u32("node id")?));
        }
        Ok(out)
    }

    fn op(&mut self) -> Result<OpId, DecodeError> {
        let node = NodeId(self.u32("op node")?);
        let inc = self.u64("op incarnation")?;
        let seq = self.u64("op seq")?;
        Ok(OpId { node, inc, seq })
    }

    fn write(&mut self) -> Result<PartialWrite, DecodeError> {
        let n = self.count("write page count")?;
        let mut pages = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let page: PageId = self.u16("write page id")?;
            let contents = self.bytes("write page contents")?;
            pages.push((page, contents));
        }
        // Direct construction (not `PartialWrite::new`) preserves the
        // encoded order byte-for-byte; the encoder only ever sees
        // already-deduplicated writes.
        Ok(PartialWrite { pages })
    }

    fn log(&mut self) -> Result<LogDelta, DecodeError> {
        let err = self.err("log tag");
        let cleared = match self.u8("log tag")? {
            0 => return Ok(LogDelta::default()),
            1 => false,
            2 => true,
            _ => return Err(err),
        };
        let n = self.count("log entry count")?;
        if n == 0 && !cleared {
            // Tag 0 is the one encoding of "unchanged".
            return Err(self.err("empty log push"));
        }
        let mut pushed = Vec::with_capacity(n as usize);
        let mut last_version = 0u64;
        for i in 0..n {
            let version = self.u64("log entry version")?;
            if i > 0 && version <= last_version {
                return Err(self.err("log versions must increase"));
            }
            last_version = version;
            let write = self.write()?;
            pushed.push(Arc::new(LogEntry { version, write }));
        }
        Ok(LogDelta { cleared, pushed })
    }

    fn action(&mut self) -> Result<Action, DecodeError> {
        let err = self.err("action tag");
        match self.u8("action tag")? {
            0 => {
                let n = self.count("do-update write count")?;
                let mut writes = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    writes.push(self.write()?);
                }
                let new_version = self.u64("action new_version")?;
                let stale = self.nodes()?;
                let good = self.nodes()?;
                let base = self.opt("base option tag", |r| {
                    let n = r.count("base page count")?;
                    let pages = (0..n).map(|_| r.bytes("base page"));
                    Ok((pages.collect::<Result<Pages, _>>()?, r.u64("base version")?))
                })?;
                Ok(Action::DoUpdate {
                    writes,
                    new_version,
                    stale,
                    good,
                    base,
                })
            }
            1 => {
                let desired_version = self.u64("mark-stale desired version")?;
                Ok(Action::MarkStale { desired_version })
            }
            2 => {
                let list = self.nodes()?;
                let enumber = self.u64("new-epoch number")?;
                let good = self.nodes()?;
                let stale = self.nodes()?;
                let desired_version = self.u64("new-epoch desired version")?;
                Ok(Action::NewEpoch {
                    list,
                    enumber,
                    good,
                    stale,
                    desired_version,
                })
            }
            _ => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// A delta with every field set.
    fn rich_delta() -> DurableDelta {
        let op = |seq| OpId {
            node: NodeId(0),
            inc: 0,
            seq,
        };
        let inc = 0xC0DE_0000_0000_0001;
        let write = PartialWrite::new([(0, b("aa"))]);
        let action = Action::MarkStale { desired_version: 8 };
        DurableDelta {
            version: Some(7),
            stale: Some(true),
            dversion: Some(9),
            epoch: Some((3, vec![NodeId(0), NodeId(2), NodeId(3)])),
            pages: vec![(0, b("aa"))],
            log: LogDelta {
                cleared: false,
                pushed: vec![Arc::new(LogEntry { version: 7, write })],
            },
            prepared: Some(Some((op(40), action))),
            decisions: vec![(op(1), true), (op(2), false), (OpId { inc, ..op(3) }, true)],
            op_counter: Some(12),
            last_good: Some(vec![NodeId(0), NodeId(2)]),
            incarnation: Some(inc),
            rejoin_pending: Some(true),
        }
    }

    #[test]
    fn round_trips_rich_delta() {
        let delta = rich_delta();
        let encoded = encode_delta(&delta);
        let decoded = decode_delta(&encoded).expect("decodes");
        assert_eq!(decoded, delta);
    }

    #[test]
    fn round_trips_empty_delta() {
        let delta = DurableDelta::default();
        let decoded = decode_delta(&encode_delta(&delta)).expect("decodes");
        assert_eq!(decoded, delta);
    }

    #[test]
    fn round_trips_each_action() {
        for action in [
            Action::DoUpdate {
                writes: vec![
                    PartialWrite::new([(1, b("x"))]),
                    PartialWrite::new([(0, b("y")), (2, b("z"))]),
                ],
                new_version: 3,
                stale: vec![NodeId(3)],
                good: vec![NodeId(0), NodeId(1)],
                base: Some((vec![b("p0"), b("p1")].into(), 1)),
            },
            Action::MarkStale { desired_version: 5 },
            Action::NewEpoch {
                list: vec![NodeId(0)],
                enumber: 1,
                good: vec![],
                stale: vec![],
                desired_version: 0,
            },
        ] {
            let delta = DurableDelta {
                prepared: Some(Some((
                    OpId {
                        node: NodeId(1),
                        inc: 0,
                        seq: 3,
                    },
                    action.clone(),
                ))),
                ..DurableDelta::default()
            };
            let decoded = decode_delta(&encode_delta(&delta)).expect("decodes");
            assert_eq!(decoded, delta);
        }
    }

    #[test]
    fn every_log_shape_is_one_encoding_and_versions_within_a_record_increase() {
        let entry = |version| {
            let write = PartialWrite::new([(1, b("x")), (3, b(""))]);
            Arc::new(LogEntry { version, write })
        };
        let encode = |cleared, pushed| {
            let log = LogDelta { cleared, pushed };
            let delta = DurableDelta {
                log,
                ..DurableDelta::default()
            };
            (encode_delta(&delta), delta)
        };
        let encoded = |cleared, pushed| {
            let (bytes, delta) = encode(cleared, pushed);
            let decoded = decode_delta(&bytes).expect("decodes");
            assert_eq!((&decoded, encode_delta(&decoded)), (&delta, bytes.clone()));
            bytes
        };
        let unchanged = encoded(false, vec![]);
        let one = encoded(false, vec![entry(5)]);
        encoded(false, vec![entry(5), entry(6), entry(9)]);
        let mut cleared = encoded(true, vec![]);
        encoded(true, vec![entry(2)]);
        // A committed write's record carries its one entry — count, version,
        // the write — and nothing that grows with the log.
        assert_eq!(one.len(), unchanged.len() + 4 + 8 + 17);
        // The log tag sits behind the three scalar tags, the epoch tag and
        // the (empty) page count. "Pushed, but nothing" is not a second
        // spelling of "unchanged".
        let tag_at = 1 + 1 + 1 + 1 + 4;
        assert_eq!((unchanged[tag_at], one[tag_at], cleared[tag_at]), (0, 1, 2));
        for (tag, what) in [(1, "empty log push"), (3, "log tag")] {
            cleared[tag_at] = tag;
            assert_eq!(decode_delta(&cleared).unwrap_err().what, what);
        }
        // Equal or falling versions inside one record are damage.
        for second in [5, 4] {
            let (bytes, _) = encode(false, vec![entry(5), entry(second)]);
            let err = decode_delta(&bytes).expect_err("non-increasing");
            assert_eq!(err.what, "log versions must increase");
        }
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let encoded = encode_delta(&rich_delta());
        for cut in 0..encoded.len() {
            let err = decode_delta(&encoded[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut encoded = encode_delta(&DurableDelta::default());
        encoded.push(0);
        let err = decode_delta(&encoded).expect_err("trailing byte");
        assert_eq!(err.what, "trailing bytes after delta");
    }

    #[test]
    fn bad_tags_error_with_offset() {
        // Version option tag must be 0 or 1.
        let err = decode_delta(&[9]).expect_err("bad tag");
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn huge_count_is_rejected_without_allocation() {
        // stale=None, version=None, dversion=None, epoch=None, then a
        // page count of u32::MAX.
        let mut buf = vec![0, 0, 0, 0];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_delta(&buf).expect_err("count too large");
        assert_eq!(err.what, "page count");
    }

    /// The classic one-table loop, one byte per round: the reference the
    /// slice-by-8 `crc32` must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |crc: u32, &b| {
            (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    #[test]
    fn crc32_matches_known_vectors_and_the_bytewise_reference() {
        // Standard IEEE CRC-32 check values.
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b"hello"), 0x3610_A686);
        }
        // Every way the 8-byte rounds and the tail can split an input: each
        // length 0..=64 at each start offset 0..8, then a 4 KiB record.
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 37 + (i >> 5)) as u8).collect();
        for (start, len) in (0..8).flat_map(|s| (0..=64).map(move |l| (s, l))) {
            let input = &bytes[start..start + len];
            assert_eq!(crc32(input), crc32_bytewise(input), "{start}+{len}");
        }
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    #[test]
    fn encoding_is_deterministic() {
        let delta = rich_delta();
        assert_eq!(encode_delta(&delta), encode_delta(&delta));
    }
}
