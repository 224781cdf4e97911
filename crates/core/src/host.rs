//! The host adapter binding the sans-I/O engine to the `coterie-simnet`
//! threaded runtime (feature `simnet-host`).
//!
//! The adapter is deliberately thin: [`JournaledNode`] is a runtime
//! [`Node`] whose step translates each [`Event`] into one [`Input`] and
//! returns the resulting effects in the runtime's vocabulary. All protocol
//! behaviour lives in the engine and all durability behaviour in the
//! `EffectInterpreter`; nothing here makes decisions.
//!
//! [`JournaledNode`] runs the engine behind an `EffectInterpreter` over a
//! framed, checksummed [`FramedJournal`]: every `Persist` delta is
//! committed before the effects it governs are released, and on crash the
//! engine's durable state is **discarded and reinstalled from checked
//! journal replay** — so a run over `JournaledNode`s proves the journal
//! alone carries everything the protocol needs across failures. What is
//! the host's own: translating effects for the runtime, the [`SyncSink`]
//! that charges each commit a real `fdatasync`, and the wall-clock
//! histogram of that cost.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the host performs the engine's effects: it owns the journal file and times commits"
)]

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;
use coterie_simnet::{Effect, Event, Node};

use crate::config::ProtocolConfig;
use crate::engine::interp::{EffectInterpreter, Replica, Substrate};
use crate::engine::io::Input;
use crate::engine::metrics::{keys, MetricsRegistry};
use crate::engine::storage::FramedJournal;
use crate::engine::trace::TraceRing;
use crate::engine::FaultKind;
use crate::msg::{ClientRequest, Msg, ProtocolEvent};
use crate::node::{ReplicaNode, Timer};

/// What travels over the threaded runtime's channels: the protocol
/// message plus the sender's Lamport stamp. The stamp is trace metadata —
/// hosts thread it from [`Effect::Send`](crate::engine::Effect::Send) to
/// [`Input::Deliver`] so causal ordering survives the substrate; the
/// protocol itself never reads it.
#[derive(Clone, Debug)]
pub struct WireMsg {
    /// The sender's Lamport counter at send time.
    pub lamport: u64,
    /// The protocol message.
    pub msg: Msg,
}

/// A best-effort on-disk mirror of the journal image, used by the
/// benchmark's live host to charge each commit a real `fsync`. Errors are
/// swallowed: the in-memory [`FramedJournal`] stays authoritative, the
/// sink only exists so a flush costs what it would on real storage.
#[derive(Clone, Debug)]
pub struct SyncSink {
    file: std::sync::Arc<std::fs::File>,
    /// Bytes of the journal image already on disk.
    synced: usize,
}

impl SyncSink {
    /// Wraps `file` (created/truncated by the caller) as a sink.
    pub fn new(file: std::fs::File) -> Self {
        SyncSink {
            file: std::sync::Arc::new(file),
            synced: 0,
        }
    }

    /// Mirrors `bytes` (the current journal image) to disk and issues one
    /// `fdatasync`. Appends write only the new suffix; the 16-byte header
    /// is rewritten every time (it carries the commit pointer); a shrink
    /// (truncated tail / quarantine reset) rewrites the whole image.
    fn commit(&mut self, bytes: &[u8]) {
        use std::io::{Seek, SeekFrom, Write};
        let mut f: &std::fs::File = &self.file;
        if bytes.len() < self.synced {
            let _ = f.set_len(0);
            self.synced = 0;
        }
        let header_end = bytes.len().min(16);
        let _ = f
            .seek(SeekFrom::Start(0))
            .and_then(|_| f.write_all(&bytes[..header_end]));
        let tail_from = self.synced.max(header_end);
        if bytes.len() > tail_from {
            let _ = f
                .seek(SeekFrom::Start(tail_from as u64))
                .and_then(|_| f.write_all(&bytes[tail_from..]));
        }
        self.synced = bytes.len();
        let _ = f.sync_data();
    }
}

/// A replica host that treats the [`FramedJournal`] as its only stable
/// storage: durable state is recovered from checked journal replay after
/// every crash rather than trusted from memory (see the module docs).
#[derive(Clone, Debug)]
pub struct JournaledNode {
    /// The engine.
    pub node: ReplicaNode,
    /// The framed journal of persisted deltas.
    pub journal: FramedJournal,
    interp: EffectInterpreter,
    /// Set when a storage fault fail-stopped the node. The runtime still
    /// counts it as up (a step cannot crash its own node), so it stays
    /// silent — every input swallowed, leftover timers firing into nothing
    /// — until the substrate crashes and restarts it; see the contract on
    /// `EffectInterpreter::step`.
    failed: bool,
    /// Journal commits performed (each is one header rewrite; on real
    /// storage, one fsync).
    pub flushes: u64,
    /// Optional on-disk mirror: every commit also writes the journal delta
    /// to a real file and `fdatasync`s it.
    sync: Option<SyncSink>,
    /// Host-level metrics: the commit-latency histogram.
    host_metrics: MetricsRegistry,
}

impl JournaledNode {
    /// Creates a journaled node with pristine state and an empty journal.
    pub fn new(me: NodeId, config: ProtocolConfig) -> Self {
        JournaledNode {
            interp: EffectInterpreter::new(me, &config),
            node: ReplicaNode::new(me, config),
            journal: FramedJournal::new(),
            failed: false,
            flushes: 0,
            sync: None,
            host_metrics: MetricsRegistry::new(),
        }
    }

    /// Attaches a flight recorder keeping the last `cap` trace events.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.interp.tracing = Some(TraceRing::new(cap));
    }

    /// This node's flight recorder, if tracing is enabled.
    pub fn trace_ring(&self) -> Option<&TraceRing> {
        self.interp.tracing.as_ref()
    }

    /// A unified snapshot of this node's metrics: the engine's registry
    /// merged with the host's journal counters and flush-latency histogram.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = self.node.stats.clone();
        merged.merge(&self.host_metrics);
        merged.add(keys::JOURNAL_FLUSHES, self.flushes);
        merged
    }

    /// Attaches a real file the journal image is mirrored to; every commit
    /// then costs one `fdatasync` on it. The file should be empty.
    pub fn attach_sync_file(&mut self, file: std::fs::File) {
        self.sync = Some(SyncSink::new(file));
    }

    /// Arms a one-shot storage fault at this node's next journal commit.
    pub fn arm_storage_fault(&mut self, kind: FaultKind) {
        self.interp.failpoints.arm(kind);
    }
}

/// The host-side durability work, as the substrate a [`JournaledNode`]'s
/// effects land in: everything else goes into the step's returned effects.
struct Outbox<'a> {
    effects: Vec<Effect<JournaledNode>>,
    sync: &'a mut Option<SyncSink>,
    flushes: &'a mut u64,
    metrics: &'a mut MetricsRegistry,
}

impl Substrate for Outbox<'_> {
    fn send(&mut self, to: NodeId, msg: Msg, lamport: u64) {
        let msg = WireMsg { lamport, msg };
        self.effects.push(Effect::Send { to, msg });
    }

    fn set_timer(&mut self, id: TimerId, delay: SimDuration, timer: Timer) {
        self.effects.push(Effect::SetTimer { id, delay, timer });
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    fn output(&mut self, event: ProtocolEvent) {
        self.effects.push(Effect::Output(event));
    }

    fn commit(&mut self, journal: &mut FramedJournal, write: impl FnOnce(&mut FramedJournal)) {
        // Host boundary: wall-clock timing of the whole commit — encode,
        // append and the (possibly fsync'd) mirror — measurement only,
        // never protocol-visible.
        let started = std::time::Instant::now();
        write(journal);
        if let Some(sink) = self.sync {
            coterie_simnet::blocking(|| sink.commit(journal.bytes()));
        }
        *self.flushes += 1;
        self.metrics
            .observe(keys::JOURNAL_FLUSH_US, started.elapsed().as_micros() as u64);
    }
}

impl std::ops::Deref for JournaledNode {
    type Target = ReplicaNode;

    fn deref(&self) -> &ReplicaNode {
        &self.node
    }
}

impl Node for JournaledNode {
    type Msg = WireMsg;
    type Timer = Timer;
    type External = ClientRequest;
    type Output = ProtocolEvent;

    fn step(&mut self, now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
        let mut replica = Replica {
            node: &mut self.node,
            journal: &mut self.journal,
            now,
        };
        let input = match event {
            Event::Start => Input::Boot,
            Event::Crash => {
                // Lose the in-memory durable state and come back from
                // "disk". The runtime drops our timers.
                self.interp.crash(&mut replica);
                self.interp.recover(&mut replica);
                self.failed = false;
                return Vec::new();
            }
            Event::Message { from, msg } => Input::Deliver {
                from,
                msg: msg.msg,
                lamport: msg.lamport,
            },
            Event::CallFailed { to, msg } => Input::CallFailed { to, msg: msg.msg },
            Event::Timer(timer) => Input::TimerFired(timer),
            Event::External(request) => Input::External(request),
        };
        let mut host = Outbox {
            effects: Vec::new(),
            sync: &mut self.sync,
            flushes: &mut self.flushes,
            metrics: &mut self.host_metrics,
        };
        if !self.failed {
            self.failed = !self.interp.step(&mut replica, input, &mut host);
        }
        host.effects
    }
}
