//! Journal-replay durability property: at **every** persist boundary of a
//! randomized schedule, the durable state reconstructed from the journal
//! alone is identical to the engine's live durable state — so a crash at
//! any point loses nothing the protocol promised to keep.
//!
//! The driver commits each [`Effect::Persist`] delta to a per-node
//! [`FramedJournal`] as it applies effects; replaying that journal from the
//! pristine state must reproduce `durable` exactly. The property also
//! crashes and recovers nodes mid-schedule (recovery re-installs the
//! replayed state), so the equality is checked across real fail-stop
//! cycles, not just quiet runs.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use coterie_base::SimDuration;
use coterie_core::{ClientRequest, PartialWrite, ProtocolConfig, Rng64, StepDriver};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use proptest::prelude::*;

const N: usize = 4;

fn driver_with_workload(rule_majority: bool, seed: u64) -> StepDriver {
    let rule: Arc<dyn coterie_quorum::CoterieRule> = if rule_majority {
        Arc::new(MajorityCoterie::new())
    } else {
        Arc::new(GridCoterie::new())
    };
    let config = ProtocolConfig::new(rule, N).pages(4).rng_seed(seed);
    let mut driver = StepDriver::new(N, config);
    for (id, node, page) in [(1u64, 0u32, 0u16), (2, 1, 1), (3, 2, 0)] {
        driver.inject(
            NodeId(node),
            ClientRequest::Write {
                id,
                write: PartialWrite::new([(page, Bytes::copy_from_slice(b"payload"))]),
            },
        );
    }
    driver.inject(NodeId(3), ClientRequest::Read { id: 4 });
    driver
}

/// Every node's journal must replay to exactly its live durable state.
fn assert_replay_matches(driver: &StepDriver, step: usize) {
    for id in 0..N as u32 {
        let node = NodeId(id);
        let live = &driver.node(node).durable;
        let replayed = driver.replay_journal(node);
        assert_eq!(
            &replayed, live,
            "journal replay diverged from live durable state at node {id}, step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drives a random interleaving of deliveries, timer firings, crashes,
    /// and recoveries; after every event, replay must equal live state on
    /// every node (crashing anywhere between two events would recover
    /// correctly).
    #[test]
    fn journal_replay_equals_durable_at_every_boundary(
        majority in any::<bool>(),
        seed in 0u64..1 << 48,
        schedule_seed in any::<u64>(),
        steps in 40usize..160,
    ) {
        let mut driver = driver_with_workload(majority, seed);
        let mut schedule = Rng64::new(schedule_seed);
        assert_replay_matches(&driver, 0);

        for step in 0..steps {
            common::weighted_step(&mut driver, &mut schedule);
            assert_replay_matches(&driver, step + 1);
        }

        // Drain to quiescence (recover anyone still down first) and check
        // the final states too.
        for id in 0..N as u32 {
            if driver.is_down(NodeId(id)) {
                driver.recover(NodeId(id));
            }
        }
        driver.run_for(SimDuration::from_secs(30));
        assert_replay_matches(&driver, usize::MAX);

        // The journals saw real traffic: at least one node persisted
        // something beyond its pristine state.
        let persisted: u64 = (0..N as u32)
            .map(|id| driver.journal(NodeId(id)).appended_total())
            .sum();
        prop_assert!(persisted > 0, "schedule persisted nothing");
    }
}
