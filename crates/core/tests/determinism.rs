//! Byte-identical journal regression test — the engine's determinism
//! contract checked across *process boundaries*.
//!
//! `std::collections::HashMap` seeds its hash function randomly **per
//! process** (HashDoS protection), so any map iteration that leaks into
//! `Effect` ordering, `DurableDelta` contents, or digests can agree
//! between two runs in the *same* process — both runs see the same seed —
//! while silently diverging between processes. That is exactly the bug
//! class the `BTreeMap`/`BTreeSet` migration in `coterie-core` eliminates
//! (and the `disallowed-types` entries of `crates/core/clippy.toml` now
//! forbid reintroducing): ordered collections iterate in key order, which
//! depends only on the data.
//!
//! The in-process test (two fresh drivers, same seed) would pass even with
//! hash maps; the cross-process test (this binary re-executed twice, via
//! `COTERIE_DETERMINISM_EMIT`) is the one that catches per-process seed
//! leaks, so both are asserted.

mod common;

const EMIT_ENV: &str = "COTERIE_DETERMINISM_EMIT";
const MARKER: &str = "JOURNAL-FNV1A=";

/// Runs the pinned workload (writes, a read, crashes, recoveries) and
/// serializes every node's journal + final state + merged trace into one
/// canonical string. Tracing is enabled with an unbounded-in-practice ring
/// so the trace JSONL is part of the cross-process determinism contract:
/// Lamport stamps, per-node sequence numbers, and merge order must all
/// reproduce byte-for-byte.
fn run_and_serialize() -> String {
    let driver = common::pinned_run(true);
    let mut out = common::render_protocol(&driver);
    out.push_str(&coterie_core::render_jsonl(&driver.merged_trace()));
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Two fresh drivers in the same process must serialize identically.
/// (Necessary but not sufficient: a per-process hash seed would still
/// agree here — see the cross-process test below.)
#[test]
fn same_seed_same_journal_in_process() {
    let a = run_and_serialize();
    let b = run_and_serialize();
    assert!(!a.is_empty());
    assert_eq!(a, b, "two in-process runs of the same seed diverged");
}

/// Child mode: when re-executed with `COTERIE_DETERMINISM_EMIT` set, this
/// "test" prints the journal digest for the parent to compare. Without the
/// env var it is a no-op so normal `cargo test` runs stay quiet.
#[test]
fn child_emit_journal_digest() {
    if std::env::var_os(EMIT_ENV).is_none() {
        return;
    }
    let bytes = run_and_serialize();
    println!(
        "{MARKER}{:016x};len={}",
        fnv1a(bytes.as_bytes()),
        bytes.len()
    );
}

/// The real regression test: two *independent processes* running the same
/// seed must produce byte-identical journals. Each child gets a fresh
/// HashMap hash seed, so any hash-order leak into effects or deltas shows
/// up as differing digests here even when the in-process test passes.
#[test]
fn same_seed_same_journal_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let run_child = || {
        #[expect(
            clippy::disallowed_types,
            reason = "the test re-executes itself: a fresh process is a fresh hash seed"
        )]
        let output = std::process::Command::new(&exe)
            .args(["--exact", "child_emit_journal_digest", "--nocapture"])
            .env(EMIT_ENV, "1")
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "child run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        // The libtest harness may print "test <name> ... " on the same
        // line before the marker, so search rather than prefix-match.
        stdout
            .lines()
            .find_map(|l| l.find(MARKER).map(|at| l[at + MARKER.len()..].to_string()))
            .unwrap_or_else(|| panic!("no {MARKER} line in child output:\n{stdout}"))
    };

    let first = run_child();
    let second = run_child();
    assert_eq!(
        first, second,
        "two independent processes produced different journal bytes \
         for the same seed — a per-process source (hash-map order, wall \
         clock, ambient RNG) is leaking into the engine"
    );

    // The parent's own in-process run must match the children too.
    let mine = run_and_serialize();
    let mine_line = format!("{:016x};len={}", fnv1a(mine.as_bytes()), mine.len());
    assert_eq!(mine_line, first, "parent and child runs diverged");
}
