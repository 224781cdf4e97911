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
//! *Presence test.* Default-majority seed 571 still splits the epoch list
//! (`cargo run -p coterie-harness --bin nemesis -- 1 571 3000 majority`):
//! a COMMIT for a reused op id applies whatever slot the participant holds
//! (ROADMAP 1(a)(ii); DESIGN.md §14.4 walks the chain). The id is reused
//! after a deeper quarantine: n4 is quarantined and rejoins as
//! `n4#1000002`, is quarantined again from a prefix whose op counter is 0,
//! rejoins as `n4#1000001` (twice, a third quarantine between) and issues
//! `n4#1000002` twice; epoch safety breaks at step 782, after a fourth
//! quarantine. The other route, a torn boot step, is closed, and this seed
//! never took it.
//! The test asserts that the bug is hit and that its trace, complete up
//! to the first violation, holds that chain: both prepares of
//! `n4#1000002`, the four quarantines of n4, and its rejoin ids going
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
fn epoch_list_divergence_majority_seed_571_still_reproduces() {
    let run = run(Arc::new(MajorityCoterie::new()), 5, 30, 571);
    assert!(
        !run.clean(),
        "majority seed 571 ran clean: ROADMAP 1(a)(ii) is fixed (invert this \
         test into a clean-run gate) or the seeded schedules moved (re-pin: \
         see the module docs)"
    );
    assert!(
        run.violations
            .iter()
            .all(|(kind, _)| *kind == "epoch-safety"),
        "seed 571 violated something other than epoch safety: {:?}",
        run.violations
    );

    // The dump is the complete trace up to the first violation, so it
    // holds the whole chain: n4 is quarantined and rejoins as
    // `n4#1000002`, is quarantined from a deeper prefix and rejoins as
    // `n4#1000001` (the fence went backwards), prepares `n4#1000002`, is
    // quarantined to the same fence, rejoins as `n4#1000001` again and
    // prepares `n4#1000002` a second time.
    let trace = run.trace.as_ref().expect("dirty run must carry its trace");
    let node4: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"node\":4,"))
        .collect();
    let count = |needle: &str| node4.iter().filter(|l| l.contains(needle)).count();
    assert_eq!(
        count("\"ev\":\"prepare_issued\",\"op\":\"n4#1000002\""),
        2,
        "n4 should prepare the reused id twice"
    );
    assert_eq!(
        count("\"replay\":\"quarantined\""),
        4,
        "n4 should be quarantined four times"
    );
    let rejoins: Vec<&str> = node4
        .iter()
        .filter(|l| l.contains("\"ev\":\"rejoin_start\""))
        .filter_map(|l| l.split("\"op\":\"").nth(1)?.split('"').next())
        .collect();
    assert_eq!(
        rejoins,
        ["n4#1000002", "n4#1000001", "n4#1000001", "n4#2000003"],
        "n4's rejoin ids"
    );
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
