//! The one effect interpreter: everything that stands between
//! [`ReplicaNode::step`] and a host's substrate.
//!
//! The paper's durability story is one sentence — a replica's state tuple
//! and its 2PC artifacts survive a crash, and nothing is acknowledged
//! before it is stable — and [`EffectInterpreter`] is the only place that
//! sentence is implemented: journal commit (with fault injection),
//! ack-before-flush deferral, crash, and recovery. DESIGN.md §7 states the
//! contract; the methods below carry the details. Hosts keep only what is
//! genuinely theirs and hand it in as a [`Substrate`].

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::msg::{Msg, ProtocolEvent};
use crate::node::{ReplicaNode, Timer};

use super::failpoint::{sites, Failpoints, FaultKind};
use super::io::{Effect, Input};
use super::storage::{DurableDelta, FramedJournal, ReplayVerdict};
use super::trace::{ReplayClass, TraceEvent, TraceRecord, TraceRing, TraceSink};

/// What the interpreter leaves to its host: the four substrate effects,
/// and the moment a commit must become stable. A new [`Effect`] variant
/// grows this trait, so every host fails to compile until it handles it.
pub trait Substrate {
    /// Deliver `msg` to `to`, carrying the sender's Lamport stamp.
    fn send(&mut self, to: NodeId, msg: Msg, lamport: u64);
    /// Arm timer `id` to fire `timer` after `delay`.
    fn set_timer(&mut self, id: TimerId, delay: SimDuration, timer: Timer);
    /// Disarm timer `id` (a no-op if it already fired).
    fn cancel_timer(&mut self, id: TimerId);
    /// Surface a client-visible protocol event.
    fn output(&mut self, event: ProtocolEvent);
    /// Runs `write`, which lands one commit in `journal`. Whatever the host
    /// does to make the commit survive a crash (mirror + `fdatasync`) and
    /// to time it happens here, around the call: nothing the commit covers
    /// is released until this returns.
    fn commit(&mut self, journal: &mut FramedJournal, write: impl FnOnce(&mut FramedJournal)) {
        write(journal);
    }
}

/// One replica's parts, borrowed from the host that owns them for the
/// duration of an interpreter call.
pub struct Replica<'a> {
    /// The engine.
    pub node: &'a mut ReplicaNode,
    /// Its stable storage.
    pub journal: &'a mut FramedJournal,
    /// The host's current time.
    pub now: SimTime,
}

/// An observable effect waiting for the commit that justifies it. Only
/// `Send` and `Output` are ever deferred, so only they can be held.
#[derive(Clone, Debug)]
enum Deferred {
    Send { to: NodeId, msg: Msg, lamport: u64 },
    Output(ProtocolEvent),
}

impl Deferred {
    fn release(self, host: &mut impl Substrate) {
        match self {
            Deferred::Send { to, msg, lamport } => host.send(to, msg, lamport),
            Deferred::Output(event) => host.output(event),
        }
    }
}

/// Per-replica interpreter state (see the module docs).
#[derive(Clone, Debug)]
pub struct EffectInterpreter {
    /// Storage faults injected at this replica's journal boundary; hosts
    /// arm it at [`sites::JOURNAL_APPEND`], consulted once per commit.
    pub failpoints: Failpoints,
    /// This replica's flight recorder, when tracing is enabled.
    pub tracing: Option<TraceRing>,
    /// Deltas per commit (`group_commit_max_batch`; 1 = write-through).
    cap: usize,
    /// Deltas journaled by the engine but not yet committed.
    pending: Vec<DurableDelta>,
    /// Observable effects held back behind `pending`; empty whenever
    /// `pending` is.
    deferred: Vec<Deferred>,
    flushes: u64,
}

impl EffectInterpreter {
    /// The interpreter for replica `me` of a cluster configured by `config`.
    pub fn new(me: NodeId, config: &ProtocolConfig) -> Self {
        EffectInterpreter {
            failpoints: Failpoints::new(config.seed ^ (u64::from(me.0) << 32)),
            tracing: None,
            cap: config.group_commit_max_batch,
            pending: Vec::new(),
            deferred: Vec::new(),
            flushes: 0,
        }
    }

    /// Stamps and records a host-level event (journal append/flush/replay,
    /// failpoint trip). No-op when tracing is disabled — host events,
    /// unlike engine events, do not consume sequence numbers in untraced
    /// runs, which is fine because nothing observes them there.
    fn trace(&mut self, r: &mut Replica<'_>, event: TraceEvent) {
        if let Some(ring) = &mut self.tracing {
            let (seq, lamport) = r.node.trace_stamp();
            ring.record(TraceRecord {
                at: r.now,
                node: r.node.me,
                seq,
                lamport,
                event,
            });
        }
    }

    /// Deltas coalescing and not yet committed.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Group-commit flushes performed: commits of a coalescing buffer.
    /// Stays 0 in write-through mode, where every append is its own commit
    /// and [`FramedJournal::committed_records`] already counts them.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Feeds `input` to the engine and interprets the effects it returns:
    /// a `Persist` delta joins the buffer and commits once the buffer
    /// holds `group_commit_max_batch` deltas (write-through is a batch of
    /// one: it commits on the spot). While any delta is buffered, `Send`
    /// and `Output` queue behind it (ack-before-flush); timer effects stay
    /// immediate — they are local, leak nothing, and the engine's handlers
    /// tolerate spurious firings.
    ///
    /// Returns false if a storage fault fail-stopped the node mid-step:
    /// the write never became stable, so the effects that were to follow
    /// it did not happen, exactly like a crash between the disk write and
    /// the acks it would have covered. The host must then stop feeding the
    /// node until it has recovered it. A host that owns liveness (the step
    /// driver) also marks it down, so its timers drop and deliveries
    /// bounce; one that cannot crash itself from inside a substrate
    /// callback (`JournaledNode`) may keep it *silent until the substrate
    /// restarts it* — peers see an unresponsive replica instead of a
    /// bounced call, both within the paper's failure model.
    pub fn step(&mut self, r: &mut Replica<'_>, input: Input, host: &mut impl Substrate) -> bool {
        let effects = match &mut self.tracing {
            Some(ring) => r.node.step_traced(r.now, input, ring),
            None => r.node.step(r.now, input),
        };
        for effect in effects {
            match effect {
                // Always first in a step (see `Effect::Persist`), so the
                // effects it governs either follow its commit or queue
                // behind it.
                Effect::Persist(delta) => {
                    self.pending.push(*delta);
                    if self.pending.len() >= self.cap && !self.flush(r, host) {
                        return false;
                    }
                }
                Effect::SetTimer { id, delay, timer } => host.set_timer(id, delay, timer),
                Effect::CancelTimer(id) => host.cancel_timer(id),
                Effect::Send { to, msg, lamport } => {
                    self.observable(Deferred::Send { to, msg, lamport }, host)
                }
                Effect::Output(event) => self.observable(Deferred::Output(event), host),
            }
        }
        true
    }

    /// Ack-before-flush: an observable effect goes out at once only when
    /// no delta is waiting to commit; otherwise it queues behind the buffer.
    fn observable(&mut self, effect: Deferred, host: &mut impl Substrate) {
        if self.pending.is_empty() {
            effect.release(host);
        } else {
            self.deferred.push(effect);
        }
    }

    /// Commits the buffered deltas as one batch, then releases the effects
    /// deferred behind them in their original order. Hosts call this when
    /// their flush deadline fires or their inbox drains; [`step`] calls it
    /// when the batch cap is reached. Returns false if the commit failed
    /// and the node fail-stopped (as for [`step`]).
    ///
    /// [`step`]: EffectInterpreter::step
    pub fn flush(&mut self, r: &mut Replica<'_>, host: &mut impl Substrate) -> bool {
        if !self.pending.is_empty() && !self.commit(r, host) {
            self.fail_stop(r);
            return false;
        }
        for effect in self.deferred.drain(..) {
            effect.release(host);
        }
        true
    }

    /// One journal commit: the failpoint registry is consulted once per
    /// *commit*, matching a real host's one-write-per-fsync fault surface.
    /// Returns false if the batch did not become stable.
    fn commit(&mut self, r: &mut Replica<'_>, host: &mut impl Substrate) -> bool {
        let fault = self.failpoints.check(sites::JOURNAL_APPEND);
        if let Some(kind) = fault {
            self.trace(r, TraceEvent::FailpointTrip { kind });
        }
        let ok = match fault {
            Some(FaultKind::AppendFail) => false,
            Some(FaultKind::TornWrite) => {
                self.tear(r.journal);
                false
            }
            None | Some(FaultKind::BitFlip) => {
                host.commit(r.journal, |journal| journal.append_batch(&self.pending));
                // A bit flip appends normally, then silently corrupts one
                // journal bit — latent damage discovered at the next replay.
                // Always three draws: a unit (the header or one committed
                // record), a byte of it, a bit — so which record is hit
                // depends on how many records there are, not on how large
                // the format makes them. A journal an earlier flip already
                // mis-framed is one unit.
                if fault.is_some() {
                    let unit = self.failpoints.draw(r.journal.committed_records() + 1);
                    let span = r.journal.unit_span(unit);
                    let span = span.unwrap_or(0..r.journal.bytes().len());
                    let byte = span.start + self.failpoints.draw(span.len() as u64) as usize;
                    let bit = self.failpoints.draw(8) as u8;
                    r.journal.flip_bit(byte, bit);
                }
                true
            }
        };
        if ok {
            let records = self.pending.len() as u64;
            if self.cap > 1 {
                self.flushes += 1;
                self.trace(r, TraceEvent::JournalFlush { records });
            } else {
                self.trace(r, TraceEvent::JournalAppend { records });
            }
        }
        self.pending.clear();
        ok
    }

    /// Leaves a seeded prefix of the buffered batch on media, count never
    /// bumped: what a crash mid-write looks like. Replay drops it.
    fn tear(&mut self, journal: &mut FramedJournal) {
        let failpoints = &mut self.failpoints;
        journal.append_batch_torn_at(&self.pending, |total| {
            failpoints.draw(total as u64) as usize
        });
    }

    fn fail_stop(&mut self, r: &mut Replica<'_>) {
        self.pending.clear();
        self.deferred.clear();
        // Crash produces no effects: it only wipes volatile state.
        let _ = r.node.step(r.now, Input::Crash);
    }

    /// Fail-stops the node. A crash mid-coalesce leaves the buffered batch
    /// as a torn tail; replay drops it — correct, because every observable
    /// effect behind it was still deferred, so nothing it covered was
    /// promised. The host drops the node's armed timers itself.
    pub fn crash(&mut self, r: &mut Replica<'_>) {
        if !self.pending.is_empty() {
            self.tear(r.journal);
        }
        self.fail_stop(r);
    }

    /// Restarts a crashed node from its journal alone, exactly as a real
    /// host would: the engine's in-memory durable state is discarded and
    /// the checked replay decides how to boot. Returns the input the host
    /// must feed the node when it starts: [`Input::Boot`] after a clean or
    /// torn-tail replay, [`Input::BootQuarantined`] after damage inside
    /// the acknowledged prefix (the longest intact prefix is installed,
    /// the damaged history is discarded, and the node re-enters the
    /// cluster stale).
    ///
    /// A quarantine is one journal write: the rewritten image already says
    /// "stale, rejoin handshake owed". Were the flags left to the boot
    /// step's own delta, a failed append of that delta would leave an image
    /// that replays clean and boots as a current replica, though it lost
    /// acknowledged writes.
    pub fn recover(&mut self, r: &mut Replica<'_>) -> Input {
        let mut replay = r.journal.replay_checked(&r.node.config);
        let class = match replay.verdict {
            ReplayVerdict::Clean => ReplayClass::Clean,
            ReplayVerdict::TornTail { .. } => ReplayClass::TornTail,
            ReplayVerdict::Quarantined { .. } => ReplayClass::Quarantined,
        };
        self.trace(r, TraceEvent::JournalReplay { class });
        let boot = if replay.verdict.is_bootable() {
            r.journal.truncate_tail();
            Input::Boot
        } else {
            replay.durable.stale = true;
            replay.durable.rejoin_pending = true;
            r.journal.reset_to(&replay.durable, &r.node.config);
            Input::BootQuarantined
        };
        r.node.install_durable(replay.durable);
        boot
    }

    /// Appends the canonical form of the buffered state to a digest input.
    pub(crate) fn write_digest(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "gcp={:?};gcd={:?};", self.pending, self.deferred);
    }
}
