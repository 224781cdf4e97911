//! Protocol configuration.

use coterie_base::SimDuration;
use coterie_quorum::CoterieRule;
use std::sync::Arc;

/// How long a coordinator waits for permission-phase responses before
/// treating silent nodes as failed.
pub const COLLECT_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// How long a coordinator waits for 2PC votes.
pub const VOTE_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// How long a participant holds an unprepared lock before unilaterally
/// releasing it (guards against crashed coordinators).
pub const LOCK_LEASE: SimDuration = SimDuration::from_millis(500);
/// Base backoff before a contention retry; jittered and scaled by the
/// attempt number.
pub const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(10);
/// Retries after contention-induced failures before giving up.
pub const MAX_RETRIES: u32 = 6;
/// Failed propagation attempts per target before the source gives up on it
/// (the epoch-checking protocol owns long-term repair).
pub const MAX_PROP_ATTEMPTS: u32 = 10;
/// Write-log retention (entries) for incremental propagation: a replica
/// further behind than this is brought current by a snapshot.
pub const LOG_CAP: usize = 64;
/// Re-offer coalescing window (DESIGN.md §10): after a peer is brought
/// current, a re-offer to it (the peer was re-marked stale by newer writes)
/// waits out this window so one offer — carrying every delta committed
/// meanwhile — replaces the one-offer-per-delta chatter a write burst would
/// otherwise produce.
pub const PROPAGATION_COALESCE: SimDuration = SimDuration::from_millis(5);
/// How long a recovered participant waits between decision queries for an
/// in-doubt transaction.
pub const DECISION_RETRY: SimDuration = SimDuration::from_millis(100);
/// Maximum random delay a good replica waits before starting to propagate
/// (staggers the duplicate offers the paper's design allows).
pub const PROPAGATION_JITTER: SimDuration = SimDuration::from_millis(20);
/// Base delay between propagation attempts to an unreachable or busy
/// target; actual retries back off exponentially in the per-target
/// failed-attempt count (capped at 2⁶×) plus jitter.
pub const PROPAGATION_RETRY: SimDuration = SimDuration::from_millis(200);
/// The most client writes one lock/2PC round carries (DESIGN.md §10).
/// Every write queues at its coordinator; writes arriving while a round is
/// in flight share the next round, with one permission phase, one vote and
/// one `DurableDelta` per batch. Under stale marking, a round that commits
/// with writes queued chains the next one on its decision, with no
/// permission phase, until a voter reports that someone else wants its
/// replica.
pub const MAX_WRITE_BATCH: usize = 4;

/// Whether epochs adjust dynamically (the paper's contribution) or stay
/// fixed at the full replica set (the conventional static protocols).
#[derive(Clone, Debug)]
pub enum Mode {
    /// Dynamic epochs: the epoch-check protocol runs periodically and
    /// re-forms the epoch around detected failures and repairs.
    Dynamic {
        /// Target interval between epoch checks at the initiating node.
        check_period: SimDuration,
    },
    /// Static protocol: the epoch is the full replica set forever and epoch
    /// checking never runs. This is the conventional structured coterie
    /// protocol the paper improves on.
    Static,
}

/// How the coordinator handles replicas it cannot bring up to date inline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteMode {
    /// The paper's approach: apply the write to the current replicas of the
    /// quorum and mark the others stale (asynchronous propagation catches
    /// them up later).
    StaleMarking,
    /// The conventional approach the paper contrasts in §1: a write needs a
    /// write quorum of *current* replicas, so the coordinator must
    /// synchronously reconcile obsolete replicas whenever the current ones
    /// alone do not form a quorum.
    WriteAllCurrent,
}

/// All tunables of a replica node.
#[derive(Clone)]
pub struct ProtocolConfig {
    /// The coterie rule shared by all nodes.
    pub rule: Arc<dyn CoterieRule>,
    /// Total number of replicas (node names are `0..n_replicas`).
    pub n_replicas: usize,
    /// Pages per data item.
    pub n_pages: usize,
    /// Dynamic or static epoch handling.
    pub mode: Mode,
    /// Stale-marking (paper) or write-all-current (baseline).
    pub write_mode: WriteMode,
    /// §4.1's safety threshold: when a committing write has fewer good
    /// (current) participants than this, the coordinator best-effort
    /// includes additional current replicas from the previous write's
    /// recorded good list — "no permission from these additional replicas
    /// is needed, so there are no additional rounds of message exchange".
    /// This provides "unconditional resilience to any number of
    /// simultaneous node failures less than the safety threshold". Zero
    /// disables the mechanism.
    pub safety_threshold: usize,
    /// Seed for the engine-owned deterministic RNG. Each node derives its
    /// stream as `seed ^ node_id`, so a cluster built from one config is
    /// fully determined by `(seed, input schedule)`.
    pub seed: u64,
}

impl std::fmt::Debug for ProtocolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolConfig")
            .field("rule", &self.rule.name())
            .field("n_replicas", &self.n_replicas)
            .field("n_pages", &self.n_pages)
            .field("mode", &self.mode)
            .field("write_mode", &self.write_mode)
            .finish_non_exhaustive()
    }
}

impl ProtocolConfig {
    /// A sensible default configuration for `n_replicas` nodes under the
    /// given coterie rule, with dynamic epochs checked every 10 s of
    /// simulated time.
    pub fn new(rule: Arc<dyn CoterieRule>, n_replicas: usize) -> Self {
        ProtocolConfig {
            rule,
            n_replicas,
            n_pages: 16,
            mode: Mode::Dynamic {
                check_period: SimDuration::from_secs(10),
            },
            write_mode: WriteMode::StaleMarking,
            safety_threshold: 2,
            seed: 0,
        }
    }

    /// Sets the engine RNG seed.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to the static (conventional) protocol.
    pub fn static_mode(mut self) -> Self {
        self.mode = Mode::Static;
        self
    }

    /// Sets the epoch-check period (implies dynamic mode).
    pub fn check_period(mut self, period: SimDuration) -> Self {
        self.mode = Mode::Dynamic {
            check_period: period,
        };
        self
    }

    /// Sets the number of pages per object.
    pub fn pages(mut self, n: usize) -> Self {
        self.n_pages = n;
        self
    }

    /// Sets the §4.1 safety threshold (0 disables).
    pub fn safety(mut self, threshold: usize) -> Self {
        self.safety_threshold = threshold;
        self
    }
}
