//! Pinned nemesis seeds: fixed bugs that must stay fixed (ROADMAP item 1).
//!
//! Default-majority seeds 178 and 797 split the epoch list (two nodes in
//! one epoch with different members), and client-heavy seed 310 of the
//! 9-node grid lost a committed write (a later read found the version
//! before it). All three came from a participant re-voting YES on a
//! prepared slot for an op id reused after a quarantine, so a COMMIT
//! applied the old slot's action (ROADMAP 1(a)(i)). A held slot now
//! refuses every other Prepare, and each seed runs clean.
//!
//! Default-majority seed 571
//! (`cargo run -p coterie-harness --bin nemesis -- 1 571 3000 majority`)
//! split the epoch list because an op id itself was reused (ROADMAP
//! 1(a)(ii); DESIGN.md §14.4 walks the chain). n4 was quarantined, then
//! quarantined again from a shallower prefix; the quarantine fence
//! re-based its op counter backwards, so it issued `n4#1000002` twice, and
//! a participant holding a slot for the first applied the second's COMMIT.
//! Every op id now carries its coordinator's incarnation, fresh at every
//! quarantine, so no id is issued twice, and the seed runs clean through
//! its quarantines.
//!
//! A change that moves the seeded schedules can turn any of these seeds
//! clean for an unrelated reason; the sweep's ratchet
//! (`scripts/nemesis_ratchet.sh`) is what watches for new dirty seeds.
//! Same-seed byte stability of the trace itself is covered by
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
fn no_op_id_is_reissued_on_default_majority_seed_571() {
    let run = run(Arc::new(MajorityCoterie::new()), 5, 30, 571);
    assert!(
        run.clean(),
        "majority seed 571 is dirty again: {:?}",
        run.violations
    );
    assert!(
        run.quarantines >= 2,
        "seed 571 no longer quarantines twice ({}): re-pin it",
        run.quarantines
    );
}
