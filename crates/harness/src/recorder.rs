//! Flight-recorder forensics: turns a [`StepDriver`]'s per-node trace
//! rings into a causally merged JSONL dump plus a human-readable timeline.
//!
//! The engine's trace rings ([`coterie_core::TraceRing`]) are bounded
//! (last-N per node), so a capture is cheap no matter how long the
//! schedule ran; what it loses to the bound it reports honestly via
//! [`TraceDump::dropped`]. The nemesis
//! harness captures a dump at the *first* invariant violation of a run —
//! the rings then hold the events leading up to the violation, which is
//! exactly the window a post-mortem needs.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use coterie_core::{render_jsonl, StepDriver, TraceEvent, TraceRecord};
use coterie_quorum::NodeId;

/// One captured flight-recorder dump.
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// Causally merged records, one deterministic JSON object per line.
    pub jsonl: String,
    /// The same records rendered as a human-readable timeline.
    pub timeline: String,
    /// Records in the dump.
    pub records: usize,
    /// Records the bounded rings had evicted before the capture (summed
    /// over nodes). Non-zero means the dump is a suffix of the history.
    pub dropped: u64,
}

/// Captures the driver's flight recorder, or `None` when tracing was
/// never enabled on this driver.
pub fn capture(driver: &StepDriver) -> Option<TraceDump> {
    if !driver.tracing_enabled() {
        return None;
    }
    let dropped = (0..driver.cluster_size() as u32)
        .filter_map(|i| driver.trace_ring(NodeId(i)))
        .map(|r| r.dropped())
        .sum();
    let merged = driver.merged_trace();
    Some(TraceDump {
        jsonl: render_jsonl(&merged),
        timeline: render_timeline(&merged, dropped),
        records: merged.len(),
        dropped,
    })
}

/// Writes a dump next to `prefix`: `{prefix}.jsonl` (machine-readable)
/// and `{prefix}.txt` (the timeline). Returns the two paths.
pub fn write_dump(dump: &TraceDump, prefix: &Path) -> io::Result<(PathBuf, PathBuf)> {
    let mut jsonl_path = prefix.as_os_str().to_owned();
    jsonl_path.push(".jsonl");
    let jsonl_path = PathBuf::from(jsonl_path);
    let mut txt_path = prefix.as_os_str().to_owned();
    txt_path.push(".txt");
    let txt_path = PathBuf::from(txt_path);
    if let Some(dir) = jsonl_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&jsonl_path, &dump.jsonl)?;
    std::fs::write(&txt_path, &dump.timeline)?;
    Ok((jsonl_path, txt_path))
}

/// Renders merged records as a timeline: one line per record, ordered by
/// the causal merge, with all three clocks visible.
pub fn render_timeline(records: &[TraceRecord], dropped: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: {} records ({} older records evicted by the ring bound)",
        records.len(),
        dropped
    );
    for r in records {
        let _ = writeln!(
            out,
            "lam={:<6} t={:<10} n{} seq={:<6} {}",
            r.lamport,
            r.at.0,
            r.node.0,
            r.seq,
            describe(&r.event)
        );
    }
    out
}

/// One human-readable sentence per event. Exhaustive on purpose so a new
/// [`TraceEvent`] variant fails to compile here rather than rendering as
/// a mystery line in a post-mortem.
fn describe(event: &TraceEvent) -> String {
    match event {
        TraceEvent::MsgSend { to, class } => format!("send {class:?} -> n{}", to.0),
        TraceEvent::MsgRecv { from, class } => format!("recv {class:?} <- n{}", from.0),
        TraceEvent::MsgBounce { to, class } => {
            format!("bounce {class:?} (n{} unreachable)", to.0)
        }
        TraceEvent::LockAcquire { op, exclusive } => format!(
            "lock acquired by n{}#{} ({})",
            op.node.0,
            op.seq,
            if *exclusive { "exclusive" } else { "shared" }
        ),
        TraceEvent::LockHandoff { from_op, to_op } => format!(
            "lock handoff n{}#{} -> n{}#{}",
            from_op.node.0, from_op.seq, to_op.node.0, to_op.seq
        ),
        TraceEvent::LockRelease { op } => {
            format!("lock released by n{}#{}", op.node.0, op.seq)
        }
        TraceEvent::PrepareIssued { op } => {
            format!("2PC prepare issued for n{}#{}", op.node.0, op.seq)
        }
        TraceEvent::VoteCast { op, yes } => format!(
            "2PC vote {} on n{}#{}",
            if *yes { "YES" } else { "NO" },
            op.node.0,
            op.seq
        ),
        TraceEvent::DecisionTaken { op, commit } => format!(
            "2PC {} applied for n{}#{}",
            if *commit { "COMMIT" } else { "ABORT" },
            op.node.0,
            op.seq
        ),
        TraceEvent::EpochCheckStart { op, enumber } => format!(
            "epoch check n{}#{} started from epoch {enumber}",
            op.node.0, op.seq
        ),
        TraceEvent::EpochInstalled { enumber } => format!("epoch {enumber} installed"),
        TraceEvent::RejoinStart { op } => {
            format!("stale rejoin n{}#{} started", op.node.0, op.seq)
        }
        TraceEvent::RejoinDone { dversion, enumber } => {
            format!("stale rejoin done (dversion={dversion}, epoch={enumber})")
        }
        TraceEvent::JournalAppend { records } => {
            format!("journal append ({records} record(s))")
        }
        TraceEvent::JournalReplay { class } => format!("journal replay: {class:?}"),
        TraceEvent::FailpointTrip { kind } => format!("storage fault fired: {kind:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_core::{ClientRequest, PartialWrite, ProtocolConfig};
    use coterie_quorum::GridCoterie;
    use coterie_simnet::SimDuration;
    use std::sync::Arc;

    fn traced_driver() -> StepDriver {
        let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4);
        let mut driver = StepDriver::new(4, config);
        driver.enable_tracing(256);
        driver.inject(
            NodeId(0),
            ClientRequest::Write {
                id: 1,
                write: PartialWrite::new([(0, bytes::Bytes::from_static(b"x"))]),
            },
        );
        driver.run_for(SimDuration::from_secs(1));
        driver
    }

    #[test]
    fn capture_requires_tracing() {
        let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4);
        let driver = StepDriver::new(4, config);
        assert!(capture(&driver).is_none());
    }

    #[test]
    fn capture_yields_causally_ordered_jsonl_and_timeline() {
        let dump = capture(&traced_driver()).expect("tracing enabled");
        assert!(dump.records > 0);
        assert_eq!(dump.jsonl.lines().count(), dump.records);
        // Every JSONL line is a self-contained object naming its clocks.
        for line in dump.jsonl.lines() {
            assert!(line.starts_with("{\"at\":"), "line: {line}");
            assert!(line.contains("\"lamport\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }
        // The merge key is non-decreasing in lamport.
        let lamports: Vec<u64> = dump
            .jsonl
            .lines()
            .map(|l| {
                let tail = l.split("\"lamport\":").nth(1).unwrap();
                tail.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(lamports.windows(2).all(|w| w[0] <= w[1]));
        // Timeline: header plus one line per record.
        assert_eq!(dump.timeline.lines().count(), dump.records + 1);
        assert!(dump.timeline.contains("2PC"));
    }

    #[test]
    fn same_seed_captures_are_byte_identical() {
        let a = capture(&traced_driver()).unwrap();
        let b = capture(&traced_driver()).unwrap();
        assert_eq!(a.jsonl, b.jsonl);
        assert_eq!(a.timeline, b.timeline);
    }
}
