//! Write-path durability properties (DESIGN.md §7, §10).
//!
//! 1. *Byte identity*: a journal built by batched appends
//!    (`FramedJournal::append_batch`) is byte-for-byte the journal built by
//!    sequential appends of the same delta sequence — batching changes
//!    **when** the commit pointer advances, never **what** the journal
//!    says. Replay therefore cannot distinguish the two.
//! 2. *Crash containment*: with write batching, pipelined 2PC and torn
//!    writes in play, a crash loses nothing the journal committed and
//!    resurrects nothing it did not. The recovered replica equals the
//!    committed journal prefix as it stood before the crash.
//! 3. *Write-all-current reconciliation*: when the current replicas alone
//!    do not form a write quorum, the write ships the object a current
//!    replica granted with to obsolete members, and sends no fetch. Writes
//!    queued at one coordinator share that round, and the reconciled
//!    members apply the whole batch on the shipped base.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use common::drain_messages;
use coterie_core::config::LOCK_LEASE;
use coterie_core::{
    keys, ClientRequest, Durable, DurableDelta, FaultKind, FramedJournal, LogEntry, MsgClass, OpId,
    PagedObject, PartialWrite, ProtocolConfig, ProtocolEvent, Rng64, StepDriver, Timer, WriteMode,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use coterie_simnet::SimDuration;
use proptest::prelude::*;

const N_PAGES: usize = 4;

fn config() -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).pages(N_PAGES)
}

/// One random change — drawn from the kinds the protocol actually makes —
/// as the delta a step journals for it; `state` tracks where it leads.
fn mutate(state: &mut Durable, rng: &mut Rng64) -> DurableDelta {
    let old = state.clone();
    let mut delta = DurableDelta::default();
    match rng.below(6) {
        0 | 1 => {
            // A committed write: pages, version, and log move together.
            let page = rng.below(N_PAGES as u64) as u16;
            let bytes = Bytes::from(rng.next_u64().to_le_bytes().to_vec());
            let version = old.version + 1;
            delta.version = Some(version);
            delta.pages = vec![(page, bytes.clone())];
            let write = PartialWrite::new([(page, bytes)]);
            delta.log.pushed = vec![Arc::new(LogEntry { version, write })];
        }
        2 => {
            // Stale-marking flip.
            delta.stale = Some(!old.stale);
            delta.dversion = Some(old.version + rng.below(3)).filter(|&v| v != old.dversion);
        }
        3 => {
            // Atomic epoch installation: number and list change together.
            let elist: Vec<NodeId> = (0..4).map(NodeId).filter(|_| rng.below(4) > 0).collect();
            delta.last_good = Some(elist.clone()).filter(|l| *l != old.last_good);
            delta.epoch = Some((old.enumber + 1, elist));
        }
        4 => {
            // A coordinator decision record (append-only map).
            let seq = old.op_counter + 1;
            let node = NodeId(rng.below(4) as u32);
            delta.op_counter = Some(seq);
            let inc = old.incarnation;
            delta.decisions = vec![(OpId { node, inc, seq }, rng.below(2) == 0)];
        }
        _ => {
            // Quarantine bookkeeping.
            delta.incarnation = Some(rng.next_u64()).filter(|&i| i != old.incarnation);
            delta.rejoin_pending = Some(!old.rejoin_pending);
        }
    }
    delta.apply(state);
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched appends produce the byte-identical journal image, and
    /// replaying either image reconstructs the tracked state.
    #[test]
    fn batched_journal_is_byte_identical(seed in any::<u64>(), n in 1usize..48) {
        let config = config();
        let mut rng = Rng64::new(seed);
        let mut state = Durable::pristine(&config);
        let deltas: Vec<_> = (0..n).map(|_| mutate(&mut state, &mut rng)).collect();

        let mut sequential = FramedJournal::new();
        for d in &deltas {
            sequential.append_delta(d);
        }
        let mut batched = FramedJournal::new();
        let mut i = 0;
        while i < deltas.len() {
            let end = (i + 1 + rng.below(6) as usize).min(deltas.len());
            batched.append_batch(&deltas[i..end]);
            i = end;
        }

        prop_assert_eq!(sequential.bytes(), batched.bytes());
        prop_assert_eq!(
            sequential.committed_records(),
            batched.committed_records()
        );
        let replay = batched.replay_checked(&config);
        prop_assert!(
            matches!(replay.verdict, coterie_core::ReplayVerdict::Clean),
            "verdict: {:?}",
            replay.verdict
        );
        prop_assert_eq!(replay.durable, state);
    }
}

/// Drives a random schedule on a fully-featured cluster. Returns the ids
/// of acknowledged writes.
fn random_schedule(driver: &mut StepDriver, rng: &mut Rng64, steps: usize) -> Vec<u64> {
    let n = driver.cluster_size() as u64;
    let mut next_id = 0u64;
    for _ in 0..steps {
        match rng.below(100) {
            // A crash mid-whatever, then the crash-containment check on the
            // recovered replica below.
            0..=3 => {
                let node = NodeId(rng.below(n) as u32);
                if !driver.is_down(node) {
                    // The committed prefix as the disk holds it now.
                    let disk_before = driver.replay_journal(node);
                    driver.crash(node);
                    driver.recover(node);
                    let recovered = &driver.node(node).durable;
                    assert_eq!(
                        recovered, &disk_before,
                        "recovery must equal the pre-crash committed prefix: \
                         nothing committed lost, nothing torn resurrected"
                    );
                }
            }
            4..=6 => {
                // A failpoint at the journal boundary: the next commit
                // tears, fail-stopping the node with a torn tail.
                driver.arm_storage_fault(NodeId(rng.below(n) as u32), FaultKind::TornWrite);
            }
            7..=14 => {
                let node = NodeId(rng.below(n) as u32);
                if !driver.is_down(node) {
                    next_id += 1;
                    let page = rng.below(N_PAGES as u64) as u16;
                    let write = PartialWrite::new([(
                        page,
                        Bytes::from(rng.next_u64().to_le_bytes().to_vec()),
                    )]);
                    driver.inject(node, ClientRequest::Write { id: next_id, write });
                }
            }
            _ => {
                let msgs = driver.pending_messages().len();
                if msgs > 0 && rng.below(4) > 0 {
                    driver.deliver(rng.below(msgs as u64) as usize);
                } else {
                    let timers = driver.pending_timers().len();
                    if timers > 0 {
                        driver.fire(rng.below(timers as u64) as usize);
                    } else {
                        driver.advance(SimDuration::from_millis(1));
                    }
                }
            }
        }
        // A torn commit fail-stops its node; bring it back through the
        // checked replay so the schedule keeps making progress.
        for i in 0..n {
            let node = NodeId(i as u32);
            if driver.is_down(node) && rng.below(3) == 0 {
                driver.recover(node);
            }
        }
    }
    // Armed one-shot faults can still fire during the drain and fail-stop
    // a node; keep recovering until the cluster quiesces with everyone up.
    loop {
        for i in 0..n {
            let node = NodeId(i as u32);
            if driver.is_down(node) {
                driver.recover(node);
            }
        }
        driver.run_for(SimDuration::from_secs(60));
        if (0..n).all(|i| !driver.is_down(NodeId(i as u32))) {
            break;
        }
    }
    driver
        .outputs()
        .iter()
        .filter_map(|(_, _, e)| match e {
            ProtocolEvent::WriteOk { id, .. } => Some(*id),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A crash never loses an acknowledged delta and never resurrects an
    /// unacknowledged one: after every crash/recover pair
    /// the replica equals its pre-crash committed prefix (asserted inside
    /// the schedule), and every acknowledged write survives to the final
    /// quiesced state.
    #[test]
    fn crash_preserves_exactly_the_committed_prefix(seed in any::<u64>()) {
        let config = config().rng_seed(seed);
        let mut driver = StepDriver::new(4, config);
        let mut rng = Rng64::new(seed ^ 0xD1CE_CAFE);
        let acked = random_schedule(&mut driver, &mut rng, 400);

        // Every acknowledged write is durable cluster-wide: the quiesced
        // maximum version covers all acks, and each node's journal replay
        // equals its live durable state.
        let max_version = (0..4u32)
            .map(|i| driver.node(NodeId(i)).durable.version)
            .max()
            .unwrap_or(0);
        prop_assert!(
            max_version >= acked.len() as u64,
            "{} acked writes but max version {}",
            acked.len(),
            max_version
        );
        for i in 0..4u32 {
            let node = NodeId(i);
            prop_assert_eq!(
                &driver.replay_journal(node),
                &driver.node(node).durable,
                "node {} journal/live divergence",
                i
            );
        }
    }
}

/// Deterministic smoke for the batching + pipelining stats: a burst of
/// writes at one coordinator commits them all, shares rounds, and chains
/// at least one pipelined handoff. Lock discipline rides along: once the
/// burst drains, and before any lock lease could have expired, no replica
/// holds a lock or a lease, so every grant and every handoff was released.
#[test]
fn write_burst_batches_and_chains_rounds() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .pages(N_PAGES)
        .rng_seed(7);
    let mut driver = StepDriver::new(3, config);
    for id in 1..=8u64 {
        let write =
            PartialWrite::new([((id % N_PAGES as u64) as u16, Bytes::from(vec![id as u8]))]);
        driver.inject(NodeId(0), ClientRequest::Write { id, write });
    }
    let drained = LOCK_LEASE / 2;
    driver.run_for(drained);
    for i in 0..3 {
        let node = driver.node(NodeId(i));
        assert!(!node.is_locked(), "n{i} is still locked");
        let leases = &node.vol.lock_leases;
        assert!(leases.is_empty(), "n{i} holds a lease: {leases:?}");
    }
    driver.run_for(SimDuration::from_secs(5) - drained);

    let oks = driver
        .outputs()
        .iter()
        .filter(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { .. }))
        .count();
    assert_eq!(oks, 8, "all writes must commit");
    let stats = &driver.node(NodeId(0)).stats;
    assert!(
        stats.counter(keys::BATCHED_WRITES) >= 2,
        "expected shared rounds, got batched_writes = {}",
        stats.counter(keys::BATCHED_WRITES)
    );
    assert!(
        stats.counter(keys::CHAINED_ROUNDS) >= 1,
        "expected a pipelined handoff, got chained_rounds = {}",
        stats.counter(keys::CHAINED_ROUNDS)
    );
}

/// The write-all-current cluster of the tests below: the 9-node grid
/// (row-major: columns {0,3,6}, {1,4,7}, {2,5,8}; a write quorum is a full
/// column plus one node of every column), static epochs. Write 1 commits at
/// {0,1,2,3,6} while {4,5,7,8} are down. They recover and 0 and 3 crash,
/// so the live current replicas {1,2,6} hold no full column: a write must
/// reconcile obsolete members. Returns the driver at that point.
fn obsolete_quorum_grid() -> StepDriver {
    let config = ProtocolConfig {
        write_mode: WriteMode::WriteAllCurrent,
        ..ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
            .static_mode()
            .pages(N_PAGES)
    };
    let mut driver = StepDriver::new(9, config);
    for n in [4, 5, 7, 8] {
        driver.crash(NodeId(n));
    }
    driver.inject(NodeId(0), wac_write(1, b"first"));
    drain_messages(&mut driver);
    for n in [4, 5, 7, 8] {
        driver.recover(NodeId(n));
    }
    for n in [0, 3] {
        driver.crash(NodeId(n));
    }
    drain_messages(&mut driver);
    let obsolete: Vec<u32> = (0..9)
        .filter(|&n| !driver.is_down(NodeId(n)) && driver.node(NodeId(n)).durable.version == 0)
        .collect();
    assert_eq!(obsolete, OBSOLETE);
    driver
}

/// The live replicas [`obsolete_quorum_grid`] leaves at version 0.
const OBSOLETE: [u32; 4] = [4, 5, 7, 8];

/// Client write `id` of the write-all-current tests: `text` on page `id`.
fn wac_write(id: u64, text: &'static [u8]) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(id as u16, Bytes::from_static(text))]),
    }
}

/// How many replicas the coordinator reconciled, from its
/// `SyncReconciliation` event.
fn reconciled(driver: &StepDriver, coordinator: NodeId) -> usize {
    let outputs = driver.outputs();
    let reconciled = outputs.iter().find_map(|(_, node, e)| match e {
        ProtocolEvent::SyncReconciliation { targets } if *node == coordinator => Some(*targets),
        _ => None,
    });
    reconciled.expect("the write reconciled no obsolete member")
}

/// Write 2, coordinated at the obsolete replica 4 of
/// [`obsolete_quorum_grid`], takes its base from a current replica's
/// grant, with no fetch round.
#[test]
fn write_all_current_reconciles_from_the_grant_without_a_fetch() {
    let mut driver = obsolete_quorum_grid();
    let coordinator = NodeId(4);
    driver.inject(coordinator, wac_write(2, b"second"));
    drain_messages(&mut driver);
    let outputs = driver.outputs();
    let ok = |e: &ProtocolEvent| {
        matches!(
            e,
            ProtocolEvent::WriteOk {
                id: 2,
                version: 2,
                ..
            }
        )
    };
    assert!(outputs.iter().any(|(_, _, e)| ok(e)), "{outputs:?}");
    let targets = reconciled(&driver, coordinator);
    // Every reconciled member is at the new version, holding the
    // coordinator's object: the first write's page under the second's.
    let digest = driver.node(coordinator).durable.object.digest();
    let caught_up = OBSOLETE
        .iter()
        .map(|&n| &driver.node(NodeId(n)).durable)
        .filter(|d| d.version == 2)
        .inspect(|d| assert_eq!(d.object.digest(), digest))
        .count();
    assert!(
        targets > 0 && caught_up == targets,
        "{targets} targets, {caught_up} caught up"
    );
    for n in [1, 2, 6] {
        assert_eq!(driver.node(NodeId(n)).durable.object.digest(), digest);
    }
    for n in 0..9 {
        let node = driver.node(NodeId(n));
        assert!(node.vol.ops.is_empty(), "n{n} has an op in flight");
        let fetches = node.stats.counter(keys::msgs_in(MsgClass::Fetch));
        assert_eq!(fetches, 0, "n{n} received a fetch");
    }
}

/// Write-all-current batches like stale marking. Writes 2 and 3 reach the
/// obsolete replica 4 of [`obsolete_quorum_grid`] in the same instant,
/// while a read at node 1 polls one replica of every column. Write 2's
/// round opens alone and write 3 queues behind it. The read and the round
/// refuse each other, so the round requeues whole and both back off. The
/// queue's backoff fires (the read's retry stays parked), and writes 2
/// and 3 share one round at consecutive versions. Every
/// reconciled member applies both writes on the base the round shipped.
#[test]
fn write_all_current_batches_queued_writes_into_one_reconciling_round() {
    let mut driver = obsolete_quorum_grid();
    let coordinator = NodeId(4);
    driver.inject(NodeId(1), ClientRequest::Read { id: 10 });
    driver.inject(coordinator, wac_write(2, b"second"));
    driver.inject(coordinator, wac_write(3, b"third"));
    drain_messages(&mut driver);
    let kick = driver
        .pending_timers()
        .iter()
        .position(|t| t.node == coordinator && matches!(t.timer, Timer::WriteQueueKick))
        .expect("the refused write did not requeue");
    driver.fire(kick);
    drain_messages(&mut driver);

    let acks: Vec<(u64, u64)> = driver
        .outputs()
        .iter()
        .filter_map(|(_, node, e)| match e {
            ProtocolEvent::WriteOk { id, version, .. } if *node == coordinator => {
                Some((*id, *version))
            }
            _ => None,
        })
        .collect();
    assert_eq!(acks, [(2, 2), (3, 3)]);
    let stats = &driver.node(coordinator).stats;
    assert_eq!(
        stats.counter(keys::BATCHED_WRITES),
        2,
        "the writes shared no round"
    );

    let mut expected = PagedObject::new(N_PAGES);
    for (page, text) in [(1, "first"), (2, "second"), (3, "third")] {
        expected.apply(&PartialWrite::new([(
            page,
            Bytes::from_static(text.as_bytes()),
        )]));
    }
    let targets = reconciled(&driver, coordinator);
    let caught_up = OBSOLETE
        .iter()
        .map(|&n| &driver.node(NodeId(n)).durable)
        .filter(|d| d.version == 3)
        .inspect(|d| assert_eq!(d.object.digest(), expected.digest()))
        .count();
    assert!(
        targets > 0 && caught_up == targets,
        "{targets} targets, {caught_up} caught up"
    );
}
