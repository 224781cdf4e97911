//! Pinned reproductions of known-latent nemesis violations.
//!
//! ROADMAP open item 1: an extended-seed sweep finds dirty runs that were
//! already present at the seed commit — nodes diverge on the epoch *member
//! list* while agreeing on the epoch number, after a node recovers
//! mid-epoch-check (the PR-4 rejoin guards don't cover the
//! recovery/epoch-install interaction). This test pins the lowest plain
//! seed that hits it
//! (`cargo run -p coterie-harness --bin nemesis -- 1 1000 3000 majority`)
//! so the bug has an executable spec, and captures its flight-recorder
//! dump as a checked-in artifact (`tests/data/nemesis_seed1000_trace.jsonl`)
//! — the causally ordered last-N trace records per node leading up to the
//! first violation. DESIGN.md §14.4 walks the causal chain, reconstructed
//! at majority seed 62 of older schedules (that seed now runs clean: the
//! bug is no longer *hit* there, not fixed). Plain seeds 0–399 no longer
//! hit it at all, so the pin is the lowest above them.
//!
//! The run asserts the *presence* of the bug: it fails the moment the
//! violation is fixed — or the moment a change moves the seeded schedules
//! again, in which case re-pin it the same way (sweep the plain config,
//! take the lowest seed whose violations contain `epoch safety`). Whoever
//! fixes ROADMAP item 1 should watch it fail, invert the assertions into a
//! permanent clean-run regression test, and delete the artifact. Until
//! then, the checked-in dump also pins trace determinism end-to-end: the
//! same seed must reproduce the same causal history byte-for-byte
//! (regenerate with `NEMESIS_TRACE_REGEN=1`).

use std::path::Path;
use std::sync::Arc;

use coterie_harness::nemesis::{run_nemesis, NemesisConfig};
use coterie_quorum::MajorityCoterie;

#[test]
fn epoch_list_divergence_majority_seed_1000_still_reproduces() {
    let cfg = NemesisConfig {
        n_nodes: 5,
        steps: 3_000,
        ..NemesisConfig::default()
    };
    let run = run_nemesis(Arc::new(MajorityCoterie::new()), 1000, &cfg);
    assert!(
        !run.clean(),
        "majority seed 1000 ran clean: ROADMAP item 1 is fixed (invert this \
         test into a clean-run gate, delete tests/data/nemesis_seed1000_trace.jsonl) \
         or the seeded schedules moved (re-pin: see the module docs)"
    );
    assert!(
        run.violations.iter().any(|v| v.contains("epoch safety")),
        "seed 1000 violated something other than epoch safety: {:?}",
        run.violations
    );

    // The flight recorder captured the window leading up to the first
    // violation: a causally merged, non-empty dump naming real nodes,
    // epochs, and message sequence.
    let dump = run
        .trace
        .as_ref()
        .expect("dirty run must carry a flight-recorder dump");
    assert!(dump.records > 0, "flight recorder captured nothing");
    assert!(
        dump.jsonl.contains("\"ev\":\"epoch_installed\""),
        "dump never shows an epoch install — wrong window?"
    );
    assert_eq!(dump.jsonl.lines().count(), dump.records);
    assert_eq!(dump.timeline.lines().count(), dump.records + 1);

    // The dump is a deterministic artifact: same seed, same bytes.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/nemesis_seed1000_trace.jsonl");
    if std::env::var_os("NEMESIS_TRACE_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &dump.jsonl).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing trace artifact {} ({e}); regenerate with \
             NEMESIS_TRACE_REGEN=1 cargo test -p coterie-harness --test nemesis_regressions",
            path.display()
        )
    });
    assert!(
        expected == dump.jsonl,
        "seed-1000 flight-recorder dump drifted from the checked-in artifact.\n\
         If the schedule or trace taxonomy changed intentionally, regenerate \
         with NEMESIS_TRACE_REGEN=1; otherwise determinism broke."
    );
}
