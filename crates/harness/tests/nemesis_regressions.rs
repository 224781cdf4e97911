//! Pinned nemesis seeds: fixed bugs that must stay fixed, and one known
//! bug that must stay visible until it is fixed (ROADMAP item 1).
//!
//! *Absence tests.* Default-majority seeds 178 and 797 split the epoch
//! list (two nodes in one epoch with different members), and client-heavy
//! seed 310 of the 9-node grid lost a committed write (a later read found
//! the version before it). All three came from a participant re-voting YES
//! on a prepared slot for an op id reused after a quarantine, so a COMMIT
//! applied the old slot's action (ROADMAP 1(a)(i)). A held slot now
//! refuses every other Prepare, and each seed runs clean.
//!
//! *Presence test.* Default-majority seed 1009 still splits the epoch list
//! (`cargo run -p coterie-harness --bin nemesis -- 1 1009 3000 majority`):
//! a COMMIT for a reused op id applies whatever slot the participant holds
//! (ROADMAP 1(a)(ii); DESIGN.md §14.4 walks the chain). The id is reused
//! after a second, deeper quarantine: n0 issues `n0#1000003`, is
//! quarantined again from a prefix whose op counter is 0, rejoins as
//! `n0#1000001` and issues `n0#1000003` a second time. The other route, a
//! torn boot step, is closed, and this seed never took it.
//! The test asserts that the bug is hit and that its trace, complete up
//! to the first violation, holds that chain: both prepares of
//! `n0#1000003`, both quarantines of n0, and its rejoin ids going
//! backwards. It fails the moment the bug is fixed, or the moment a change
//! moves the seeded schedules. If it was fixed, turn it into an absence
//! test. If the schedules moved, re-pin it: run `nemesis 1200 0 3000
//! majority`, take the lowest seed whose header names `epoch-safety`,
//! and move the absence seeds to whatever the new schedules make
//! of them. Same-seed byte stability of the trace itself is covered by
//! coterie-core's `tests/determinism.rs` and `tests/trace_determinism.rs`.

use std::sync::Arc;

use coterie_harness::nemesis::{run_nemesis, NemesisConfig, NemesisRun};
use coterie_quorum::{CoterieRule, GridCoterie, MajorityCoterie};

/// One seeded 3 000-step schedule of `client_ops` client operations.
fn run(rule: Arc<dyn CoterieRule>, n_nodes: usize, client_ops: usize, seed: u64) -> NemesisRun {
    let cfg = NemesisConfig {
        n_nodes,
        steps: 3_000,
        client_ops,
    };
    run_nemesis(rule, seed, &cfg)
}

#[test]
fn epoch_lists_agree_on_default_majority_seeds_178_and_797() {
    for seed in [178, 797] {
        let run = run(Arc::new(MajorityCoterie::new()), 5, 30, seed);
        assert!(
            run.clean(),
            "majority seed {seed} is dirty again: {:?}",
            run.violations
        );
    }
}

#[test]
fn a_committed_write_survives_on_client_heavy_grid9_seed_310() {
    let run = run(Arc::new(GridCoterie::new()), 9, 300, 310);
    assert!(
        run.clean(),
        "client-heavy grid9 seed 310 is dirty again: {:?}",
        run.violations
    );
}

#[test]
fn epoch_list_divergence_majority_seed_1009_still_reproduces() {
    let run = run(Arc::new(MajorityCoterie::new()), 5, 30, 1009);
    assert!(
        !run.clean(),
        "majority seed 1009 ran clean: ROADMAP 1(a)(ii) is fixed (invert this \
         test into a clean-run gate) or the seeded schedules moved (re-pin: \
         see the module docs)"
    );
    assert!(
        run.violations
            .iter()
            .any(|(kind, _)| *kind == "epoch-safety"),
        "seed 1009 violated something other than epoch safety: {:?}",
        run.violations
    );

    // The dump is the complete trace up to the first violation, so it
    // holds the whole chain: n0 prepares `n0#1000003`, is quarantined,
    // rejoins as `n0#1000002`, is quarantined again from a deeper prefix,
    // rejoins as `n0#1000001` (the fence went backwards) and prepares
    // `n0#1000003` a second time.
    let trace = run.trace.as_ref().expect("dirty run must carry its trace");
    let node0: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"node\":0,"))
        .collect();
    let count = |needle: &str| node0.iter().filter(|l| l.contains(needle)).count();
    assert_eq!(
        count("\"ev\":\"prepare_issued\",\"op\":\"n0#1000003\""),
        2,
        "n0 should prepare the reused id twice"
    );
    assert_eq!(
        count("\"replay\":\"quarantined\""),
        2,
        "n0 should be quarantined twice"
    );
    let rejoins: Vec<&str> = node0
        .iter()
        .filter(|l| l.contains("\"ev\":\"rejoin_start\""))
        .filter_map(|l| l.split("\"op\":\"").nth(1)?.split('"').next())
        .collect();
    assert_eq!(rejoins, ["n0#1000002", "n0#1000001"], "n0's rejoin ids");
    // The causal merge never lets a Lamport stamp go backwards.
    let lamports: Vec<u64> = trace
        .lines()
        .map(|l| {
            let tail = l
                .split("\"lamport\":")
                .nth(1)
                .expect("every record has a stamp");
            tail.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
                .expect("a numeric stamp")
        })
        .collect();
    assert!(lamports.windows(2).all(|w| w[0] <= w[1]));
}
