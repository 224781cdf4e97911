//! Per-layer probes of the traced pass: wall times around public calls
//! into `quorum`, the journal codec, journal storage and the trace
//! renderer, fed with records harvested from the run that just ended.

use std::hint::black_box;
use std::time::Instant;

use coterie_core::engine::storage::JOURNAL_HEADER_LEN;
use coterie_core::engine::{decode_delta, encode_delta};
use coterie_core::{
    causal_merge, render_jsonl, DurableDelta, FramedJournal, ProtocolConfig, TraceRing,
};
use coterie_quorum::{GridCoterie, NodeSet, PlanCache, QuorumKind};

use crate::stats::{median_f64, Values};
use crate::workloads::N_NODES;

/// At most this many harvested records feed the codec and storage probes.
const MAX_RECORDS: usize = 4_000;
/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, which returns nanoseconds per unit.
fn median_of_reps(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median_f64(&samples)
}

/// `quorum.eval_ns` (compiled plan, all 512 subsets of the 3×3 grid, both
/// kinds) and `quorum.compile_ns` (cold `PlanCache::plan_for_set`).
pub fn quorum_probe(values: &mut Values) {
    let rule = GridCoterie::new();
    let full = NodeSet::first_n(N_NODES);
    let compile_ns = median_of_reps(|| {
        let rounds = 200;
        let started = Instant::now();
        for _ in 0..rounds {
            let mut cache = PlanCache::new();
            black_box(cache.plan_for_set(&rule, black_box(full)).is_compiled());
        }
        started.elapsed().as_nanos() as f64 / f64::from(rounds)
    });
    let mut cache = PlanCache::new();
    let plan = cache.plan_for_set(&rule, full);
    let eval_ns = median_of_reps(|| {
        let rounds = 200u32;
        let mut yes = 0u32;
        let started = Instant::now();
        for _ in 0..rounds {
            for subset in 0..(1u128 << N_NODES) {
                let s = NodeSet(black_box(subset));
                yes += u32::from(plan.includes_quorum(s, QuorumKind::Read));
                yes += u32::from(plan.includes_quorum(s, QuorumKind::Write));
            }
        }
        black_box(yes);
        started.elapsed().as_nanos() as f64 / (f64::from(rounds) * 2.0 * (1u64 << N_NODES) as f64)
    });
    values.insert("quorum.compile_ns".into(), compile_ns);
    values.insert("quorum.eval_ns".into(), eval_ns);
}

/// Splits a journal image into its committed record payloads, following
/// the framing `FramedJournal` documents: a 16-byte header, then
/// `[len: u32 LE | crc32: u32 LE | payload]` per record.
fn record_payloads(journal: &FramedJournal) -> Vec<&[u8]> {
    let bytes = journal.bytes();
    let mut payloads = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN;
    for _ in 0..journal.committed_records() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        payloads.push(payload);
        pos += 8 + len;
    }
    payloads
}

/// Codec and storage probes over records harvested from `journals`.
/// Returns an error when a harvested record does not survive
/// `encode(decode(p)) == p` — that is a correctness failure of the run.
pub fn journal_probe(
    journals: &[&FramedJournal],
    config: &ProtocolConfig,
    values: &mut Values,
) -> Result<(), String> {
    let per_journal = MAX_RECORDS / journals.len().max(1);
    let mut payloads: Vec<&[u8]> = Vec::new();
    for journal in journals {
        let records = record_payloads(journal);
        // The newest records: the steady state, not the boot deltas.
        let skip = records.len().saturating_sub(per_journal);
        payloads.extend(&records[skip..]);
    }
    if payloads.is_empty() {
        return Err("no journal records to probe".into());
    }
    let total_bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let mut deltas: Vec<DurableDelta> = Vec::with_capacity(payloads.len());
    for (i, payload) in payloads.iter().enumerate() {
        let delta = decode_delta(payload).map_err(|e| format!("record {i}: decode: {e:?}"))?;
        if encode_delta(&delta) != *payload {
            return Err(format!("record {i}: encode(decode(p)) != p"));
        }
        deltas.push(delta);
    }
    let n = deltas.len() as f64;

    let decode_ns = median_of_reps(|| {
        let started = Instant::now();
        for payload in &payloads {
            black_box(decode_delta(black_box(payload)).is_ok());
        }
        started.elapsed().as_nanos() as f64
    });
    let encode_ns = median_of_reps(|| {
        let started = Instant::now();
        for delta in &deltas {
            black_box(encode_delta(black_box(delta)).len());
        }
        started.elapsed().as_nanos() as f64
    });
    let append_ns = median_of_reps(|| {
        let mut journal = FramedJournal::new();
        let started = Instant::now();
        for delta in &deltas {
            journal.append_delta(delta);
        }
        black_box(journal.bytes().len());
        started.elapsed().as_nanos() as f64
    });
    let batch_ns = median_of_reps(|| {
        let mut journal = FramedJournal::new();
        let started = Instant::now();
        for batch in deltas.chunks(16) {
            journal.append_batch(batch);
        }
        black_box(journal.bytes().len());
        started.elapsed().as_nanos() as f64
    });
    let mut journal = FramedJournal::new();
    journal.append_batch(&deltas);
    let replay_ns = median_of_reps(|| {
        let started = Instant::now();
        black_box(journal.replay_checked(config).records_applied);
        started.elapsed().as_nanos() as f64
    });

    values.insert("codec.bytes_per_record".into(), total_bytes as f64 / n);
    values.insert(
        "codec.decode_ns_per_byte".into(),
        decode_ns / total_bytes as f64,
    );
    values.insert(
        "codec.encode_ns_per_byte".into(),
        encode_ns / total_bytes as f64,
    );
    values.insert("storage.append_ns_per_record".into(), append_ns / n);
    values.insert("storage.append_batch16_ns_per_record".into(), batch_ns / n);
    values.insert("storage.replay_ns_per_record".into(), replay_ns / n);
    Ok(())
}

/// Trace-layer probes on the program's flight recorders: records seen
/// per operation, and the cost of merging and rendering the retained ones.
pub fn trace_probe(rings: &[&TraceRing], ops: u64, values: &mut Values) {
    let seen: u64 = rings
        .iter()
        .map(|ring| ring.len() as u64 + ring.dropped())
        .sum();
    let started = Instant::now();
    let merged = causal_merge(rings);
    let merge_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    let rendered = render_jsonl(&merged);
    let render_ns = started.elapsed().as_nanos() as f64;
    black_box(rendered.len());
    let kept = merged.len().max(1) as f64;
    values.insert(
        "trace.records_per_op".into(),
        seen as f64 / ops.max(1) as f64,
    );
    values.insert("trace.merge_ns_per_record".into(), merge_ns / kept);
    values.insert("trace.render_ns_per_record".into(), render_ns / kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, run_virtual_seed};

    #[test]
    fn probes_produce_positive_numbers_from_a_real_run() {
        let spec = find("write_leader").expect("workload exists");
        let (run, host) = run_virtual_seed(spec, 0, 5, 0.001, true);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let driver = host.driver();
        let journals: Vec<&FramedJournal> = (0..N_NODES as u32)
            .map(|i| driver.journal(coterie_quorum::NodeId(i)))
            .collect();
        let mut values = Values::new();
        quorum_probe(&mut values);
        journal_probe(&journals, &crate::workloads::default_config(5), &mut values)
            .expect("records round-trip");
        let rings: Vec<&TraceRing> = (0..N_NODES as u32)
            .filter_map(|i| driver.trace_ring(coterie_quorum::NodeId(i)))
            .collect();
        trace_probe(&rings, run.committed, &mut values);
        for (name, value) in &values {
            assert!(*value > 0.0, "{name} = {value}");
        }
        assert_eq!(values.len(), 11);
    }
}
