//! The live host: `ThreadedRuntime<JournaledNode>` (one thread per node
//! plus the runtime's timer thread), driven by this one generator thread
//! on the wall clock.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use coterie_core::{FramedJournal, JournaledNode, MetricsRegistry, ProtocolEvent, TraceRing};
use coterie_harness::checker::check_run;
use coterie_harness::workload::IssuedOp;
use coterie_quorum::NodeId;
use coterie_simnet::{SimTime, ThreadedRuntime};

use crate::spans::{CallSpan, RequestSpan, Tracer, KIND_INJECT};
use crate::stats::CpuClock;
use crate::workloads::{
    accounting_violation, default_config, time_without_service, Generator, SeedRun, Spec, N_NODES,
    N_PAGES, SLO_US,
};

/// How long the generator waits for one completion before it declares
/// the operation lost and stops the repetition.
const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// The hand-off time every live time is rescaled to, µs: what
/// [`handoff_us`] measured on the VM this was sized on, so the reported
/// numbers stay close to physical microseconds there.
pub const REFERENCE_HANDOFF_US: f64 = 40.0;

/// Round trip of one message between this thread and a helper thread over
/// `std::sync::mpsc` channels, µs — the cost of waking a sleeping thread
/// and being woken back, which is what the live host's latency is made of
/// (an operation is six or seven such hand-offs and little else).
///
/// On a shared VM that cost drifts by 30 % and more over minutes; the
/// operations drift with it. Dividing one by the other (the end-to-end
/// live numbers are reported at [`REFERENCE_HANDOFF_US`]) halved the
/// run-to-run spread and took the drift between two sets of runs from
/// +26 to +37 % down to what the bounds allow.
pub fn handoff_us() -> f64 {
    const ROUNDS: u32 = 2_000;
    let (to_helper, helper_inbox) = std::sync::mpsc::channel::<u32>();
    let (to_main, main_inbox) = std::sync::mpsc::channel::<u32>();
    let helper = std::thread::spawn(move || {
        while let Ok(v) = helper_inbox.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    for i in 0..ROUNDS {
        to_helper.send(i).expect("helper thread is alive");
        std::hint::black_box(main_inbox.recv().expect("helper thread is alive"));
    }
    let round_trip_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS);
    drop(to_helper);
    helper.join().expect("helper thread panicked");
    round_trip_us
}

/// What one repetition on the live host produced.
pub struct LiveRep {
    /// The measurements (same shape as a virtual seed's).
    pub run: SeedRun,
    /// The nodes' journal-flush latency histogram, merged (`journal_flush_us`).
    pub flush_us: Option<coterie_core::Histogram>,
    /// The nodes' flight recorders (traced pass) and journals, for the
    /// layer probes.
    pub rings: Vec<TraceRing>,
    /// See `rings`.
    pub journals: Vec<FramedJournal>,
    /// The generator's spans (traced pass).
    pub tracer: Option<Tracer>,
}

/// One repetition: spawn the cluster, warm up with `warm_ops` operations,
/// measure the next `ops` (fixed work, so repetitions and commits compare
/// at the same history length and memory footprint), shut down (joining
/// every thread), then run the gate. With
/// `sync_dir`, every node mirrors its journal to a file there and pays
/// one `fdatasync` per flush; the files are removed before returning.
pub fn run_live_rep(
    spec: &Spec,
    seed: u64,
    warm_ops: u64,
    ops: u64,
    trace: bool,
    sync_dir: Option<&Path>,
) -> LiveRep {
    let setup_started = Instant::now();
    let config = default_config(seed);
    let node_config = config.clone();
    let mut sync_files = Vec::new();
    let runtime = ThreadedRuntime::spawn(N_NODES, seed, Duration::from_millis(20), |id| {
        let mut node = JournaledNode::new(id, node_config.clone());
        if trace {
            node.enable_tracing(1 << 16);
        }
        if let Some(dir) = sync_dir {
            let path = dir.join(format!("node{}-{seed:x}.ctj2", id.0));
            match std::fs::File::create(&path) {
                Ok(file) => {
                    node.attach_sync_file(file);
                    sync_files.push(path);
                }
                Err(e) => eprintln!("benchmark: cannot create {}: {e}", path.display()),
            }
        }
        node
    });

    let t0 = Instant::now();
    let now_us = || t0.elapsed().as_micros() as u64;
    let mut gen = Generator::new(seed, spec.read_permille);
    let mut issued: HashMap<u64, IssuedOp> = HashMap::new();
    let mut events: Vec<(SimTime, NodeId, ProtocolEvent)> = Vec::new();
    let mut out = SeedRun {
        per_client: vec![0],
        ..SeedRun::default()
    };
    let mut tracer = trace.then(Tracer::new);
    let mut commit_times = Vec::new();
    let home = NodeId(0);
    let mut cpu = None;
    let mut measure_from_us = 0;
    for k in 0..warm_ops + ops {
        if k == warm_ops {
            out.setup_secs = setup_started.elapsed().as_secs_f64();
            measure_from_us = now_us();
            cpu = Some(CpuClock::whole_process());
        }
        let (id, request, write) = gen.next();
        let is_write = write.is_some();
        let issued_us = now_us();
        issued.insert(
            id,
            IssuedOp {
                id,
                at: SimTime(issued_us),
                coordinator: home,
                write,
            },
        );
        out.attempted += 1;
        out.issued += 1;
        let wall_start_ns = tracer.as_ref().map_or(0, Tracer::wall_ns);
        runtime.inject(home, request);
        if let Some(t) = tracer.as_mut() {
            let wall_end_ns = t.wall_ns();
            t.calls.push(CallSpan {
                kind: KIND_INJECT,
                node: home.0,
                parent: id,
                at_us: issued_us,
                wall_start_ns,
                wall_end_ns,
            });
        }
        // Closed loop, one client: wait for this operation's answer.
        let deadline = Instant::now() + OP_TIMEOUT;
        let outcome = loop {
            let Some((from, event)) = runtime.recv_output(Duration::from_millis(50)) else {
                if Instant::now() > deadline {
                    break None;
                }
                continue;
            };
            let at = now_us();
            let outcome = match &event {
                ProtocolEvent::ReadOk { id: got, .. } | ProtocolEvent::WriteOk { id: got, .. }
                    if *got == id =>
                {
                    Some(true)
                }
                ProtocolEvent::Failed { id: got, .. } if *got == id => Some(false),
                _ => None,
            };
            events.push((SimTime(at), from, event));
            if let Some(ok) = outcome {
                break Some((at, ok));
            }
        };
        let Some((done_us, ok)) = outcome else {
            out.open += 1;
            out.write_lost += u64::from(is_write && cpu.is_some());
            break;
        };
        if ok {
            out.committed += 1;
            out.per_client[0] += 1;
            if cpu.is_some() {
                commit_times.push(done_us);
                let lat = done_us - issued_us;
                out.slow += u64::from(lat > SLO_US);
                if is_write {
                    out.write_lat.push(lat);
                } else {
                    out.read_lat.push(lat);
                }
            }
        } else {
            out.failed += 1;
            out.write_lost += u64::from(is_write && cpu.is_some());
        }
        if let Some(t) = tracer.as_mut() {
            let wall_end_ns = t.wall_ns();
            t.requests.push(RequestSpan {
                id,
                write: is_write,
                ok,
                node: home.0,
                start_us: issued_us,
                end_us: done_us,
                wall_start_ns,
                wall_end_ns,
            });
        }
    }
    let end = now_us();
    out.cpu_secs = cpu.map_or(0.0, |c| c.elapsed_secs());
    out.measured_us = end.saturating_sub(measure_from_us);
    out.window_us = out.measured_us;
    out.window_ops = commit_times.len() as u64;
    out.unavail_us =
        time_without_service(measure_from_us, commit_times.iter().copied().chain([end]));

    for (from, event) in runtime.drain_outputs() {
        events.push((SimTime(now_us()), from, event));
    }
    // `shutdown` stops every node and joins the node and timer threads.
    let nodes = runtime.shutdown();
    for path in &sync_files {
        let _ = std::fs::remove_file(path);
    }

    let mut registry = MetricsRegistry::new();
    let mut rings = Vec::new();
    for node in &nodes {
        registry.merge(&node.metrics());
        out.journal_records += node.journal.committed_records();
        out.journal_bytes += node.journal.bytes().len() as u64;
        rings.extend(node.trace_ring().cloned());
    }
    let flush_us = registry
        .histogram(coterie_core::keys::JOURNAL_FLUSH_US)
        .cloned();

    let mut violations = durable_pair_violations(&nodes);
    let started = Instant::now();
    let check = check_run(&issued, &events, N_PAGES);
    out.check_secs = started.elapsed().as_secs_f64();
    violations.extend(check.violations.iter().map(|v| format!("1SR: {v:?}")));
    violations.extend(accounting_violation(&out));
    for (i, node) in nodes.iter().enumerate() {
        if node.journal.replay_checked(&config).durable != node.node.durable {
            violations.push(format!("journal of node {i} does not replay to its state"));
        }
    }
    out.registry = registry;
    out.violations = violations;
    LiveRep {
        run: out,
        flush_us,
        rings,
        journals: nodes.into_iter().map(|n| n.journal).collect(),
        tracer,
    }
}

/// The durable-pair invariants on the nodes a shutdown returned: equal
/// epoch numbers mean equal epoch lists, and two current replicas at one
/// version hold the same bytes.
fn durable_pair_violations(nodes: &[JournaledNode]) -> Vec<String> {
    let mut violations = Vec::new();
    for (a, na) in nodes.iter().enumerate() {
        for (b, nb) in nodes.iter().enumerate().skip(a + 1) {
            let (da, db) = (&na.node.durable, &nb.node.durable);
            if da.enumber == db.enumber && da.elist != db.elist {
                violations.push(format!(
                    "epoch safety: nodes {a} and {b} share epoch {} with different lists",
                    da.enumber
                ));
            }
            if da.version == db.version
                && !da.stale
                && !db.stale
                && da.object.digest() != db.object.digest()
            {
                violations.push(format!(
                    "coherence: nodes {a} and {b} current at version {} with different contents",
                    da.version
                ));
            }
        }
    }
    violations
}
