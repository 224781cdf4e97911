//! Tracing must be *observationally free*: attaching a ring may not change
//! a single protocol-visible byte. The Lamport counter ticks on sends and
//! the per-node trace sequence ticks on every `ctx.trace()` call whether
//! or not a ring is attached — both are excluded from journals and
//! digests — so a traced run and an untraced run of the same seed must
//! produce byte-identical journals, replay verdicts, state digests, and
//! output streams. If this test fails, tracing has leaked into protocol
//! state and every "debug with the flight recorder" session becomes a
//! heisenbug hunt.

mod common;

/// The pinned workload of `determinism.rs`, with or without a trace ring.
/// Returns the canonical *protocol* rendering only — journal bytes, replay
/// verdicts, digest, outputs — deliberately excluding the trace itself
/// (that side is covered by `determinism.rs`).
fn run_protocol_canonical(traced: bool) -> String {
    let driver = common::pinned_run(traced);
    if traced {
        // Sanity that the traced arm actually recorded something — a
        // pass where tracing silently failed to attach would prove
        // nothing about ring-freedom.
        let merged = driver.merged_trace();
        assert!(
            !merged.is_empty(),
            "traced run produced no trace records; the comparison is vacuous"
        );
        let jsonl = coterie_core::render_jsonl(&merged);
        assert_eq!(jsonl.lines().count(), merged.len());
    }
    common::render_protocol(&driver)
}

#[test]
fn enabled_and_disabled_sinks_produce_identical_journals() {
    let untraced = run_protocol_canonical(false);
    let traced = run_protocol_canonical(true);
    assert!(!untraced.is_empty());
    assert_eq!(
        untraced, traced,
        "attaching a trace ring changed protocol-visible bytes — tracing \
         is supposed to be observationally free (journals, digests, and \
         outputs must not depend on whether a ring is attached)"
    );
}
