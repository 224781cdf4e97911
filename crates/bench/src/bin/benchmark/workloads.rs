//! The five workloads, the request generator, and the virtual-host run
//! loop with its correctness gate.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use coterie_core::{ClientRequest, MetricsRegistry, PartialWrite, ProtocolConfig, ProtocolEvent};
use coterie_harness::checker::check_run;
use coterie_harness::explore::cluster_invariant_violations;
use coterie_harness::workload::IssuedOp;
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::SimTime;

use crate::spans::RequestSpan;
use crate::stats::{sub_seed, CpuClock, SplitMix};
use crate::vhost::VirtualHost;

/// Replicas in every workload (a 3×3 grid).
pub const N_NODES: usize = 9;
/// Pages per object — `ProtocolConfig::new`'s default, which the checker
/// must be told.
pub const N_PAGES: usize = 16;
/// Bytes per single-page partial write.
pub const PAYLOAD_BYTES: usize = 32;
/// A gap between consecutive successful completions longer than this
/// counts as time without service.
pub const GAP_US: u64 = 50_000;
/// The latency limit: a write meets it when it commits within this long
/// (`write_slo_share`); operations over it count into `core.slow_share`.
pub const SLO_US: u64 = 10_000;
/// The `--seconds` value the per-workload sizes below were chosen for.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// Which host runs a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostKind {
    /// Event-driven scheduler over `StepDriver` (virtual clock).
    Virtual,
    /// `ThreadedRuntime<JournaledNode>` (wall clock).
    Live,
}

/// Shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Host.
    pub host: HostKind,
    /// Concurrent clients (closed loop) — client `c` is pinned to home
    /// node `c % homes`.
    pub clients: usize,
    /// Distinct coordinator nodes the clients are pinned to.
    pub homes: usize,
    /// Reads per mille.
    pub read_permille: u64,
    /// Independent clusters per run, each with its own sub-seed.
    pub seeds: u64,
    /// Closed loop: operations per seed at [`REFERENCE_SECONDS`].
    /// Open loop: crash/recover cycles per seed.
    pub size: u64,
    /// Open loop (one arrival per `period_us`, faults injected) instead
    /// of a closed loop.
    pub open_period_us: Option<u64>,
}

/// Every workload, in `BENCHMARK.json` order. Sizes are what fits the
/// driver's time cap on two cores; EXPERIMENTS-scale runs just pass a
/// larger `--seconds`.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "read_mostly",
        host: HostKind::Virtual,
        clients: 8,
        homes: 8,
        read_permille: 950,
        seeds: 8,
        size: 45_000,
        open_period_us: None,
    },
    Spec {
        name: "write_contended",
        host: HostKind::Virtual,
        clients: 8,
        homes: 8,
        read_permille: 0,
        seeds: 16,
        size: 3_000,
        open_period_us: None,
    },
    Spec {
        name: "write_leader",
        host: HostKind::Virtual,
        clients: 8,
        homes: 1,
        read_permille: 0,
        seeds: 5,
        size: 6_000,
        open_period_us: None,
    },
    Spec {
        name: "failover",
        host: HostKind::Virtual,
        clients: 0,
        homes: N_NODES,
        read_permille: 500,
        seeds: 6,
        size: 4,
        open_period_us: Some(10_000),
    },
    Spec {
        name: "live_serial",
        host: HostKind::Live,
        clients: 1,
        homes: 1,
        read_permille: 500,
        seeds: 16,
        size: 1_500,
        open_period_us: None,
    },
];

/// The sub-seeds of one run of `spec`: one per cluster (or repetition).
///
/// The first is the same for every `--seed`. Memory is measured on that
/// first cluster, and the journals' footprint is bimodal across seeds
/// (28 or 43 MB for the same 6 000 writes), so a seed-derived first
/// cluster moved `peak_rss_mb` by ±40 % between runs of the same code.
/// All others derive from `seed`.
pub fn seeds_for(spec: &Spec, seed: u64) -> Vec<u64> {
    (0..spec.seeds)
        .map(|j| sub_seed(if j == 0 { 0 } else { seed }, spec.name, j))
        .collect()
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds between successive crashes in `failover`.
const CYCLE_US: u64 = 30_000_000;
/// Offset of the crash inside a cycle. The odd 2.5 ms puts it between two
/// arrivals, so no request is in flight at the victim when it stops.
const CRASH_AT_US: u64 = 5_002_500;
/// Offset of the recovery inside a cycle.
const RECOVER_AT_US: u64 = 20_002_500;
/// `failover` keeps running this long after the last recovery, then
/// counts the replicas still not repaired.
const SETTLE_US: u64 = 20_000_000;

/// The default configuration — the only way the benchmark ever builds
/// one, so it measures what users get and keeps compiling as knobs go.
pub fn default_config(seed: u64) -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(GridCoterie::new()), N_NODES).rng_seed(seed)
}

/// Deterministic request stream for one seed.
pub struct Generator {
    rng: SplitMix,
    read_permille: u64,
    next_id: u64,
}

impl Generator {
    /// A stream for `seed`.
    pub fn new(seed: u64, read_permille: u64) -> Self {
        Generator {
            rng: SplitMix(seed),
            read_permille,
            next_id: 1,
        }
    }

    /// The next request: its id, the request, and (for writes) the
    /// payload the checker replays.
    pub fn next(&mut self) -> (u64, ClientRequest, Option<PartialWrite>) {
        let id = self.next_id;
        self.next_id += 1;
        if self.rng.below(1000) < self.read_permille {
            return (id, ClientRequest::Read { id }, None);
        }
        let page = self.rng.below(N_PAGES as u64) as u16;
        let mut payload = [0u8; PAYLOAD_BYTES];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        for chunk in payload[8..].chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.rng.next().to_le_bytes());
        }
        let write = PartialWrite::new([(page, bytes::Bytes::copy_from_slice(&payload))]);
        let request = ClientRequest::Write {
            id,
            write: write.clone(),
        };
        (id, request, Some(write))
    }
}

/// Everything remembered about one issued operation.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Closed-loop client (open loop: 0).
    pub client: u32,
    /// Coordinator.
    pub node: u32,
    /// Write or read.
    pub write: bool,
    /// Issued after warm-up, so it counts into the latency samples.
    pub measured: bool,
    /// Host clock at issue (open loop: the due time), µs.
    pub issued_us: u64,
    /// A completion or a `Failed` arrived.
    pub done: bool,
    /// Wall clock at issue, ns (traced pass).
    pub wall_start_ns: u64,
}

/// What one seed's run measured. Everything except `cpu_secs`,
/// `setup_secs` and `check_secs` is a function of the seed alone on the
/// virtual host.
#[derive(Clone, Debug, Default)]
pub struct SeedRun {
    /// Latencies of measured, committed reads, µs.
    pub read_lat: Vec<u64>,
    /// Latencies of measured, committed writes, µs.
    pub write_lat: Vec<u64>,
    /// Client operations attempted. The closed loops re-submit an
    /// operation the protocol gave up on, so there one operation can take
    /// several requests; in the open loop every request is an operation.
    pub attempted: u64,
    /// Requests submitted to the program (warm-up included).
    pub issued: u64,
    /// Completed successfully.
    pub committed: u64,
    /// The protocol answered `Failed`.
    pub failed: u64,
    /// Still open when the run ended.
    pub open: u64,
    /// Committed operations inside the throughput window and its length.
    pub window_ops: u64,
    /// See `window_ops`.
    pub window_us: u64,
    /// Length of the measured interval and the part of it spent in gaps
    /// longer than [`GAP_US`].
    pub measured_us: u64,
    /// See `measured_us`.
    pub unavail_us: u64,
    /// Committed measured operations slower than [`SLO_US`].
    pub slow: u64,
    /// Measured writes that never committed: failed (open loop, where a
    /// failed request stays failed) or still open when the run ended.
    pub write_lost: u64,
    /// Committed operations per closed-loop client.
    pub per_client: Vec<u64>,
    /// CPU seconds of the measured part.
    pub cpu_secs: f64,
    /// Wall seconds of cluster construction plus warm-up.
    pub setup_secs: f64,
    /// Wall seconds the 1SR checker took.
    pub check_secs: f64,
    /// The cluster's merged counters.
    pub registry: MetricsRegistry,
    /// Committed journal records and bytes, summed over nodes.
    pub journal_records: u64,
    /// See `journal_records`.
    pub journal_bytes: u64,
    /// Commit rounds that produced the committed writes (writes answered
    /// by one step of one coordinator share a round).
    pub write_rounds: u64,
    /// Calls into the driver during the measured part, and pool
    /// high-water marks.
    pub events: u64,
    /// See `events`.
    pub pending_msgs_max: usize,
    /// See `events`.
    pub pending_timers_max: usize,
    /// Current replicas (up, not stale, at the newest version) sampled at
    /// each arrival: sum, samples, minimum.
    pub current_sum: u64,
    /// See `current_sum`.
    pub current_samples: u64,
    /// See `current_sum`.
    pub current_min: u64,
    /// Crash → first `EpochInstalled` without the victim, µs.
    pub shrink_us: Vec<u64>,
    /// Recovery → first `EpochInstalled` with the victim again, µs.
    pub regrow_us: Vec<u64>,
    /// Recovery → the victim is a current replica again, µs.
    pub catchup_us: Vec<u64>,
    /// Replicas stale or behind the newest version when the run ended.
    pub unrepaired: u64,
    /// Order-sensitive hash of every completion (id, time, outcome) and
    /// every journal length: equal fingerprints mean equal runs.
    pub fingerprint: u64,
    /// Gate failures (empty = correct).
    pub violations: Vec<String>,
}

impl SeedRun {
    /// Multiplies every measured time by `k` (the live host's hand-off
    /// calibration). Counts, and the checks made on raw times, stay.
    pub fn rescale_time(&mut self, k: f64) {
        let scale = |us: &mut u64| *us = (*us as f64 * k).round() as u64;
        self.read_lat.iter_mut().for_each(scale);
        self.write_lat.iter_mut().for_each(scale);
        for us in [
            &mut self.window_us,
            &mut self.measured_us,
            &mut self.unavail_us,
        ] {
            scale(us);
        }
        self.cpu_secs *= k;
        self.setup_secs *= k;
    }
}

/// A fault the open-loop workload injects.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Crash(NodeId),
    Recover(NodeId),
}

/// A victim whose repair is being timed.
struct Repair {
    node: NodeId,
    crashed_us: u64,
    recovered_us: Option<u64>,
    shrunk: bool,
    regrown: bool,
    caught_up: bool,
}

/// What the run loop learnt from one program output.
enum Seen {
    Done(u64, u64, bool),
    Epoch(u64, Vec<NodeId>),
    Other,
}

/// What [`Run::step`] did.
#[derive(PartialEq, Eq)]
enum Stepped {
    /// Ran an internal event (or flushed and must pick again).
    Internal,
    /// Virtual time reached the caller's external event.
    ExternalDue,
    /// Nothing is pending anywhere.
    Idle,
}

struct Run<'a> {
    spec: &'a Spec,
    host: VirtualHost,
    gen: Generator,
    issued: HashMap<u64, IssuedOp>,
    ops: Vec<OpRecord>,
    open: u64,
    scanned: usize,
    /// Clients whose request just finished; `Some(t)` when the protocol
    /// gave up and the operation first issued at `t` must be re-submitted.
    finished: Vec<(usize, Option<u64>)>,
    /// `(time, coordinator)` of the last `WriteOk`, to count rounds.
    last_write_ok: (u64, u32),
    /// Driver calls made before the measured part began.
    events_before: u64,
    /// Completion times of committed operations, in completion order.
    commit_times: Vec<u64>,
    repairs: Vec<Repair>,
    out: SeedRun,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Run<'_> {
    fn issue(&mut self, client: usize, node: NodeId, due_us: u64, measured: bool) {
        let (id, request, write) = self.gen.next();
        self.issued.insert(
            id,
            IssuedOp {
                id,
                at: SimTime(due_us),
                coordinator: node,
                write: write.clone(),
            },
        );
        debug_assert_eq!(id as usize, self.ops.len() + 1, "ids are dense");
        self.ops.push(OpRecord {
            client: client as u32,
            node: node.0,
            write: write.is_some(),
            measured,
            issued_us: due_us,
            done: false,
            wall_start_ns: self.host.tracer.as_ref().map_or(0, |t| t.wall_ns()),
        });
        self.open += 1;
        self.out.issued += 1;
        self.host.inject(node, id, request);
    }

    /// Matches new outputs against open operations; the clients whose
    /// operation just finished are left in `self.finished` (the closed
    /// loop re-issues for them).
    fn drain_outputs(&mut self) {
        self.finished.clear();
        loop {
            let seen = match self.host.driver().outputs().get(self.scanned) {
                None => return,
                Some((at, _, event)) => match event {
                    ProtocolEvent::ReadOk { id, .. } | ProtocolEvent::WriteOk { id, .. } => {
                        Seen::Done(at.0, *id, true)
                    }
                    ProtocolEvent::Failed { id, .. } => Seen::Done(at.0, *id, false),
                    ProtocolEvent::EpochInstalled { members, .. } => {
                        Seen::Epoch(at.0, members.clone())
                    }
                    _ => Seen::Other,
                },
            };
            self.scanned += 1;
            match seen {
                Seen::Done(at, id, ok) => self.complete(at, id, ok),
                Seen::Epoch(at, members) => self.epoch_installed(at, &members),
                Seen::Other => {}
            }
        }
    }

    fn epoch_installed(&mut self, at: u64, members: &[NodeId]) {
        for r in &mut self.repairs {
            let has = members.contains(&r.node);
            match r.recovered_us {
                None if !has && !r.shrunk => {
                    r.shrunk = true;
                    self.out.shrink_us.push(at - r.crashed_us);
                }
                Some(t) if has && !r.regrown => {
                    r.regrown = true;
                    self.out.regrow_us.push(at - t);
                }
                _ => {}
            }
        }
    }

    fn complete(&mut self, at: u64, id: u64, ok: bool) {
        let Some(op) = self.ops.get_mut(id as usize - 1).filter(|op| !op.done) else {
            return;
        };
        op.done = true;
        let op = *op;
        self.open -= 1;
        fnv(&mut self.out.fingerprint, id);
        fnv(&mut self.out.fingerprint, at);
        fnv(&mut self.out.fingerprint, u64::from(ok));
        if ok {
            self.out.committed += 1;
            if op.write && self.last_write_ok != (at, op.node) {
                self.last_write_ok = (at, op.node);
                self.out.write_rounds += 1;
            }
            self.commit_times.push(at);
            if let Some(slot) = self.out.per_client.get_mut(op.client as usize) {
                *slot += 1;
            }
            if op.measured {
                let lat = at - op.issued_us;
                self.out.slow += u64::from(lat > SLO_US);
                if op.write {
                    self.out.write_lat.push(lat);
                } else {
                    self.out.read_lat.push(lat);
                }
            }
        } else {
            self.out.failed += 1;
            let stays_failed = self.spec.open_period_us.is_some();
            self.out.write_lost += u64::from(stays_failed && op.write && op.measured);
        }
        if let Some(tracer) = self.host.tracer.as_mut() {
            let wall_end_ns = tracer.wall_ns();
            tracer.requests.push(RequestSpan {
                id,
                write: op.write,
                ok,
                node: op.node,
                start_us: op.issued_us,
                end_us: at,
                wall_start_ns: op.wall_start_ns,
                wall_end_ns,
            });
        }
        self.finished
            .push((op.client as usize, (!ok).then_some(op.issued_us)));
    }

    /// One step of the event loop shared by both loop shapes: runs the
    /// earliest internal event unless `external_at` comes first (an
    /// internal event wins a tie).
    fn step(&mut self, external_at: Option<u64>) -> Stepped {
        let internal = self.host.next_internal();
        let (t, event) = match (external_at, internal) {
            (Some(e), Some((t, _))) if e < t => (e, None),
            (_, Some((t, ev))) => (t, Some(ev)),
            (Some(e), None) => (e, None),
            (None, None) => return Stepped::Idle,
        };
        if !self.host.advance_to(t) {
            return Stepped::Internal;
        }
        match event {
            Some(ev) => {
                self.host.perform(ev);
                Stepped::Internal
            }
            None => Stepped::ExternalDue,
        }
    }

    /// Samples replica currency: how many up replicas are not stale and
    /// hold the newest version; also closes catch-up timers.
    fn sample_replicas(&mut self) {
        let driver = self.host.driver();
        let now = driver.now().0;
        let newest = (0..N_NODES as u32)
            .filter(|i| !driver.is_down(NodeId(*i)))
            .map(|i| driver.node(NodeId(i)).durable.version)
            .max()
            .unwrap_or(0);
        let is_current = |i: u32| {
            let d = &driver.node(NodeId(i)).durable;
            !driver.is_down(NodeId(i)) && !d.stale && d.version == newest
        };
        let current = (0..N_NODES as u32).filter(|i| is_current(*i)).count() as u64;
        self.out.current_sum += current;
        self.out.current_samples += 1;
        self.out.current_min = self.out.current_min.min(current);
        for r in &mut self.repairs {
            if let Some(t) = r.recovered_us {
                if !r.caught_up && is_current(r.node.0) {
                    r.caught_up = true;
                    self.out.catchup_us.push(now - t);
                }
            }
        }
    }

    /// Closed loop: every client keeps one operation outstanding and
    /// issues the next at the virtual instant it sees the completion. An
    /// operation the protocol gives up on (`Failed`) is re-submitted at
    /// once and stays timed from its first issue — the protocol's own
    /// retry back-off paces the re-submissions.
    fn closed_loop(&mut self, total: u64, warmup: u64, setup_started: Instant) {
        let spec = self.spec;
        self.out.per_client = vec![0; spec.clients];
        let home = |c: usize| NodeId((c % spec.homes) as u32);
        let mut cpu = None;
        let mut measure_from_us = 0;
        for c in 0..spec.clients {
            self.out.attempted += 1;
            self.issue(c, home(c), 0, false);
        }
        let mut last_progress_us = 0;
        while self.open > 0 && self.step(None) != Stepped::Idle {
            self.drain_outputs();
            for (c, resubmit) in std::mem::take(&mut self.finished) {
                last_progress_us = self.host.now_us();
                if cpu.is_none() && self.out.committed >= warmup {
                    self.out.setup_secs = setup_started.elapsed().as_secs_f64();
                    measure_from_us = self.host.now_us();
                    self.events_before = self.host.events;
                    cpu = Some(CpuClock::this_thread());
                }
                let measured = cpu.is_some();
                if let Some(first_issued_us) = resubmit {
                    self.issue(c, home(c), first_issued_us, measured);
                } else if self.out.attempted < total {
                    self.out.attempted += 1;
                    self.issue(c, home(c), self.host.now_us(), measured);
                }
            }
            // Periodic timers keep the event pool non-empty for ever, so a
            // wedged cluster shows as virtual time running away instead.
            if self.host.now_us() > last_progress_us + 120_000_000 {
                break;
            }
        }
        self.out.cpu_secs = cpu.map_or(0.0, |c| c.elapsed_secs());
        self.finish_timeline(measure_from_us, self.host.now_us(), true);
        self.snapshot_counters();
    }

    /// Copies the program's counters when the measured part ends.
    fn snapshot_counters(&mut self) {
        let driver = self.host.driver();
        self.out.registry = driver.metrics();
        for i in 0..N_NODES as u32 {
            let journal = driver.journal(NodeId(i));
            self.out.journal_records += journal.committed_records();
            self.out.journal_bytes += journal.bytes().len() as u64;
        }
        self.out.events = self.host.events - self.events_before;
        self.out.pending_msgs_max = self.host.pending_msgs_max;
        self.out.pending_timers_max = self.host.pending_timers_max;
    }

    /// Open loop: one arrival every `period_us` whatever the cluster does,
    /// to the next node that is up; faults injected on schedule. A request
    /// the protocol fails stays failed.
    fn open_loop(&mut self, period_us: u64, faults: &[(u64, Fault)], setup_started: Instant) {
        let warmup_us = 1_000_000;
        let last_fault = faults.last().map_or(0, |f| f.0);
        let end_us = last_fault + SETTLE_US;
        let mut cpu = None;
        let mut next_fault = 0;
        let mut next_arrival_us = 0;
        let mut round_robin = 0u32;
        self.out.current_min = u64::MAX;
        loop {
            let fault_at = faults.get(next_fault).map(|f| f.0);
            let arrival_at = (next_arrival_us < end_us).then_some(next_arrival_us);
            // After the last arrival the run only drains what is open.
            let external_at = match (fault_at, arrival_at) {
                (Some(f), Some(a)) => Some(f.min(a)),
                (f, a) => f.or(a),
            };
            if external_at.is_none() && (self.open == 0 || self.host.now_us() > end_us + 5_000_000)
            {
                break;
            }
            let stepped = self.step(external_at);
            if stepped == Stepped::Idle {
                break;
            }
            if stepped == Stepped::ExternalDue {
                if fault_at == external_at {
                    let now = self.host.now_us();
                    match faults[next_fault].1 {
                        Fault::Crash(node) => {
                            self.host.crash(node);
                            self.repairs.push(Repair {
                                node,
                                crashed_us: now,
                                recovered_us: None,
                                shrunk: false,
                                regrown: false,
                                caught_up: false,
                            });
                        }
                        Fault::Recover(node) => {
                            self.host.recover(node);
                            if let Some(r) = self.repairs.iter_mut().rfind(|r| r.node == node) {
                                r.recovered_us = Some(now);
                            }
                        }
                    }
                    next_fault += 1;
                } else {
                    if cpu.is_none() && next_arrival_us >= warmup_us {
                        self.out.setup_secs = setup_started.elapsed().as_secs_f64();
                        self.events_before = self.host.events;
                        cpu = Some(CpuClock::this_thread());
                    }
                    self.sample_replicas();
                    // Round-robin over the nodes that are up: a client
                    // whose node is down goes to the next one.
                    let node = (0..N_NODES as u32)
                        .map(|k| NodeId((round_robin + k) % N_NODES as u32))
                        .find(|n| !self.host.driver().is_down(*n))
                        .expect("at most one node is down at a time");
                    round_robin = node.0 + 1;
                    // Timed from the due time: in virtual time the
                    // generator is never late, so the two coincide.
                    self.out.attempted += 1;
                    self.issue(0, node, next_arrival_us, cpu.is_some());
                    next_arrival_us += period_us;
                }
            }
            self.drain_outputs();
        }
        self.out.cpu_secs = cpu.map_or(0.0, |c| c.elapsed_secs());
        self.sample_replicas();
        let driver = self.host.driver();
        let newest = (0..N_NODES as u32)
            .map(|i| driver.node(NodeId(i)).durable.version)
            .max()
            .unwrap_or(0);
        self.out.unrepaired = (0..N_NODES as u32)
            .filter(|i| {
                let d = &driver.node(NodeId(*i)).durable;
                d.stale || d.version < newest
            })
            .count() as u64;
        self.finish_timeline(warmup_us, end_us, false);
        self.snapshot_counters();
    }

    /// Derives the throughput window and the time without service from
    /// the completion timeline.
    fn finish_timeline(&mut self, from_us: u64, to_us: u64, closed: bool) {
        let times = &self.commit_times;
        if closed && times.len() >= 20 {
            // 0.9·N / (t95 − t05) by completion order: cuts warm-up and
            // the tail where clients run out of work.
            let (lo, hi) = (times.len() / 20, times.len() - times.len() / 20 - 1);
            self.out.window_ops = (hi - lo) as u64;
            self.out.window_us = times[hi] - times[lo];
        } else {
            self.out.window_ops = times.iter().filter(|t| **t >= from_us).count() as u64;
            self.out.window_us = to_us.saturating_sub(from_us);
        }
        self.out.measured_us = to_us.saturating_sub(from_us);
        let ends = if closed { None } else { Some(to_us) };
        self.out.unavail_us = time_without_service(
            from_us,
            times.iter().copied().filter(|t| *t >= from_us).chain(ends),
        );
    }

    /// The correctness gate plus the end-of-run counters.
    fn finish(mut self) -> (SeedRun, VirtualHost) {
        self.host.flush();
        self.out.open = self.open;
        self.out.write_lost += self
            .ops
            .iter()
            .filter(|op| !op.done && op.write && op.measured)
            .count() as u64;
        let driver = self.host.driver();
        let mut violations = cluster_invariant_violations(driver);
        let started = Instant::now();
        let check = check_run(&self.issued, driver.outputs(), N_PAGES);
        self.out.check_secs = started.elapsed().as_secs_f64();
        violations.extend(check.violations.iter().map(|v| format!("1SR: {v:?}")));
        violations.extend(accounting_violation(&self.out));
        for i in 0..N_NODES as u32 {
            let node = NodeId(i);
            fnv(
                &mut self.out.fingerprint,
                driver.journal(node).bytes().len() as u64,
            );
            if !driver.is_down(node) && driver.replay_journal(node) != driver.node(node).durable {
                violations.push(format!("journal of node {i} does not replay to its state"));
            }
        }
        self.out.violations = violations;
        (self.out, self.host)
    }
}

/// Sum of the gaps longer than [`GAP_US`] between consecutive successful
/// completions (`times`, ascending), starting the clock at `from_us`.
pub fn time_without_service(from_us: u64, times: impl Iterator<Item = u64>) -> u64 {
    let mut prev = from_us;
    let mut total = 0;
    for t in times {
        if t - prev > GAP_US {
            total += t - prev;
        }
        prev = t;
    }
    total
}

/// The accounting part of the gate: every request submitted is committed,
/// failed or still open.
pub fn accounting_violation(run: &SeedRun) -> Option<String> {
    (run.issued != run.committed + run.failed + run.open).then(|| {
        format!(
            "accounting: issued {} != committed {} + failed {} + open {}",
            run.issued, run.committed, run.failed, run.open
        )
    })
}

/// The fault schedule of `failover` for the `j`-th cluster of a run:
/// `cycles` crash/recover cycles, victims rotating through the nodes
/// across cycles and clusters.
fn fault_plan(j: u64, cycles: u64) -> Vec<(u64, Fault)> {
    let mut plan = Vec::new();
    for k in 0..cycles {
        let victim = NodeId(((j * cycles + k) % N_NODES as u64) as u32);
        plan.push((k * CYCLE_US + CRASH_AT_US, Fault::Crash(victim)));
        plan.push((k * CYCLE_US + RECOVER_AT_US, Fault::Recover(victim)));
    }
    plan
}

/// Runs seed number `j` (sub-seed `seed`) of a virtual workload. `scale`
/// is `--seconds` over [`REFERENCE_SECONDS`]; it scales operations per
/// seed (closed loop) — never the workloads, the seeds or the checks.
pub fn run_virtual_seed(
    spec: &Spec,
    j: u64,
    seed: u64,
    scale: f64,
    trace: bool,
) -> (SeedRun, VirtualHost) {
    assert_eq!(spec.host, HostKind::Virtual);
    let setup_started = Instant::now();
    let mut run = Run {
        spec,
        host: VirtualHost::new(N_NODES, default_config(seed), trace),
        gen: Generator::new(seed, spec.read_permille),
        issued: HashMap::new(),
        ops: Vec::new(),
        open: 0,
        scanned: 0,
        finished: Vec::new(),
        last_write_ok: (u64::MAX, 0),
        events_before: 0,
        commit_times: Vec::new(),
        repairs: Vec::new(),
        out: SeedRun {
            fingerprint: 0xcbf2_9ce4_8422_2325,
            ..SeedRun::default()
        },
    };
    match spec.open_period_us {
        None => {
            let total = ((spec.size as f64 * scale) as u64).max(20 * spec.clients as u64);
            run.closed_loop(total, total / 50, setup_started);
        }
        Some(period_us) => {
            let cycles = ((spec.size as f64 * scale).round() as u64).max(1);
            run.open_loop(period_us, &fault_plan(j, cycles), setup_started);
        }
    }
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let ids = |seed| {
            let mut g = Generator::new(seed, 500);
            (0..50)
                .map(|_| {
                    let (id, _, w) = g.next();
                    (id, w.map(|w| w.pages[0].clone()))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(7), ids(7));
        assert_ne!(ids(7), ids(8));
    }

    #[test]
    fn default_storage_work_is_visible_in_the_journals() {
        // `StepDriver::flushes()` is 0 in the default write-through mode,
        // so storage work is counted from the journals themselves.
        let spec = find("write_leader").expect("workload exists");
        let (run, host) = run_virtual_seed(spec, 0, 11, 0.001, false);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let writes = run.write_lat.len() as f64;
        assert!(writes > 0.0);
        assert!(run.journal_records as f64 / writes > 0.0);
        let flushes: u64 = (0..N_NODES as u32)
            .map(|i| host.driver().flushes(NodeId(i)))
            .sum();
        assert_eq!(flushes, 0, "write-through mode counts no flushes");
    }

    #[test]
    fn fault_plans_cover_every_node_once() {
        let mut victims: Vec<u32> = (0..3)
            .flat_map(|j| fault_plan(j, 3))
            .filter_map(|(_, f)| match f {
                Fault::Crash(n) => Some(n.0),
                Fault::Recover(_) => None,
            })
            .collect();
        victims.sort_unstable();
        assert_eq!(victims, (0..9).collect::<Vec<_>>());
    }
}
