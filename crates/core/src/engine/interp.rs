//! The one effect interpreter: everything that stands between
//! [`ReplicaNode::step`] and a host's substrate.
//!
//! The paper's durability story is one sentence — a replica's state tuple
//! and its 2PC artifacts survive a crash, and nothing is acknowledged
//! before it is stable — and [`EffectInterpreter`] is the only place that
//! sentence is implemented: write-through journal commit (with fault
//! injection), crash, and recovery. DESIGN.md §7 states the contract; the
//! methods below carry the details. Hosts keep only what is genuinely
//! theirs and hand it in as a [`Substrate`].

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::msg::{Msg, ProtocolEvent};
use crate::node::{ReplicaNode, Timer};

use super::failpoint::{Failpoints, FaultKind};
use super::io::{Effect, Input};
use super::rng::Rng64;
use super::storage::{FramedJournal, ReplayVerdict};
use super::trace::{ReplayClass, TraceEvent, TraceRecord, TraceRing};
use crate::durable::DurableDelta;

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

/// Per-replica interpreter state (see the module docs).
#[derive(Clone, Debug)]
pub struct EffectInterpreter {
    /// Storage faults injected at this replica's journal boundary,
    /// consulted once per commit.
    pub failpoints: Failpoints,
    /// This replica's flight recorder, when tracing is enabled.
    pub tracing: Option<TraceRing>,
    /// The stream each journal quarantine draws a fresh incarnation from,
    /// decorrelated from the failpoint and engine streams.
    incarnations: Rng64,
}

impl EffectInterpreter {
    /// The interpreter for replica `me` of a cluster configured by `config`.
    pub fn new(me: NodeId, config: &ProtocolConfig) -> Self {
        let seed = config.seed ^ (u64::from(me.0) << 32);
        EffectInterpreter {
            failpoints: Failpoints::new(seed),
            tracing: None,
            incarnations: Rng64::new(seed ^ 0x1AC0_0000_0000_0001),
        }
    }

    /// Stamps and records a host-level event (journal append/replay,
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

    /// Feeds `input` to the engine and interprets the effects it returns,
    /// in order. A `Persist` delta commits on the spot (write-through), and
    /// it is always first in a step (see `Effect::Persist`), so every send
    /// and output of the step follows the commit that makes it safe to
    /// reveal.
    ///
    /// Returns false if a storage fault fail-stopped the node mid-step:
    /// the write never became stable, so the effects that were to follow
    /// it did not happen, exactly like a crash between the disk write and
    /// the acks it would have covered. The host must then stop feeding the
    /// node until it has recovered it. A host that owns liveness (the step
    /// driver) also marks it down, so its timers drop and deliveries
    /// bounce; one that cannot crash itself from inside a runtime step
    /// (`JournaledNode`) may keep it *silent until the substrate
    /// restarts it* — peers see an unresponsive replica instead of a
    /// bounced call, both within the paper's failure model.
    pub fn step(&mut self, r: &mut Replica<'_>, input: Input, host: &mut impl Substrate) -> bool {
        let effects = r.node.step_traced(r.now, input, self.tracing.as_mut());
        for effect in effects {
            match effect {
                Effect::Persist(delta) => {
                    if !self.commit(r, &delta, host) {
                        self.crash(r);
                        return false;
                    }
                }
                Effect::SetTimer { id, delay, timer } => host.set_timer(id, delay, timer),
                Effect::CancelTimer(id) => host.cancel_timer(id),
                Effect::Send { to, msg, lamport } => host.send(to, msg, lamport),
                Effect::Output(event) => host.output(event),
            }
        }
        true
    }

    /// One journal commit: the failpoint registry is consulted once per
    /// *commit*, matching a real host's one-write-per-fsync fault surface.
    /// Returns false if the delta did not become stable.
    fn commit(
        &mut self,
        r: &mut Replica<'_>,
        delta: &DurableDelta,
        host: &mut impl Substrate,
    ) -> bool {
        let delta = std::slice::from_ref(delta);
        let fault = self.failpoints.check();
        if let Some(kind) = fault {
            self.trace(r, TraceEvent::FailpointTrip { kind });
        }
        match fault {
            Some(FaultKind::AppendFail) => return false,
            Some(FaultKind::TornWrite) => {
                // A seeded prefix of the record reaches media, the count
                // is never bumped: replay drops it as a torn tail.
                let failpoints = &mut self.failpoints;
                r.journal
                    .append_batch_torn_at(delta, |total| failpoints.draw(total as u64) as usize);
                return false;
            }
            None | Some(FaultKind::BitFlip) => {
                host.commit(r.journal, |journal| journal.append_batch(delta));
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
            }
        }
        self.trace(r, TraceEvent::JournalAppend { records: 1 });
        true
    }

    /// Fail-stops the node: volatile state is lost, the journal keeps
    /// exactly what was committed. The host drops the node's armed timers
    /// itself.
    pub fn crash(&mut self, r: &mut Replica<'_>) {
        // Crash produces no effects: it only wipes volatile state.
        let _ = r.node.step(r.now, Input::Crash);
    }

    /// Restarts a crashed node from its journal alone, exactly as a real
    /// host would: the engine's in-memory durable state is discarded and
    /// the checked replay decides what it boots from. A clean or torn-tail
    /// replay boots as it stands. Damage inside the acknowledged prefix
    /// quarantines the journal: the longest intact prefix, put through
    /// [`Durable::quarantine`](crate::durable::Durable::quarantine) with a
    /// fresh incarnation from this interpreter's seeded stream (so runs
    /// repeat), is rewritten as the one image the node restarts from, and
    /// the node re-enters the cluster stale. The host then feeds
    /// [`Input::Boot`].
    ///
    /// A quarantine is one journal write: the image already holds the
    /// stale and rejoin flags, the dropped prepared slot and the new
    /// incarnation. Were any of them left to the boot step's own delta, a
    /// failed append of that delta would lose them.
    pub fn recover(&mut self, r: &mut Replica<'_>) {
        let mut replay = r.journal.replay_checked(&r.node.config);
        let class = match replay.verdict {
            ReplayVerdict::Clean => ReplayClass::Clean,
            ReplayVerdict::TornTail { .. } => ReplayClass::TornTail,
            ReplayVerdict::Quarantined { .. } => ReplayClass::Quarantined,
        };
        self.trace(r, TraceEvent::JournalReplay { class });
        if replay.verdict.is_bootable() {
            r.journal.truncate_tail();
        } else {
            replay.durable.quarantine(self.incarnations.next_u64());
            r.journal.reset_to(&replay.durable, &r.node.config);
        }
        r.node.install_durable(replay.durable);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use bytes::Bytes;
    use coterie_quorum::MajorityCoterie;

    use super::*;
    use crate::msg::ClientRequest;
    use crate::store::PartialWrite;

    /// A substrate that records what one step handed it, in order.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<&'static str>,
        sends: Vec<(NodeId, Msg, u64)>,
    }

    impl Substrate for Recorder {
        fn send(&mut self, to: NodeId, msg: Msg, lamport: u64) {
            self.seen.push("send");
            self.sends.push((to, msg, lamport));
        }
        fn set_timer(&mut self, _: TimerId, _: SimDuration, _: Timer) {}
        fn cancel_timer(&mut self, _: TimerId) {}
        fn output(&mut self, _: ProtocolEvent) {
            self.seen.push("output");
        }
        fn commit(&mut self, journal: &mut FramedJournal, write: impl FnOnce(&mut FramedJournal)) {
            self.seen.push("commit");
            write(journal);
        }
    }

    /// Three booted replicas, each behind its own interpreter.
    fn cluster() -> Vec<(EffectInterpreter, ReplicaNode, FramedJournal)> {
        let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3);
        let mut nodes: Vec<_> = (0..3)
            .map(|i| {
                let me = NodeId(i);
                let interp = EffectInterpreter::new(me, &config);
                (
                    interp,
                    ReplicaNode::new(me, config.clone()),
                    FramedJournal::new(),
                )
            })
            .collect();
        for i in 0..3 {
            assert!(step(&mut nodes, NodeId(i), Input::Boot).0);
        }
        nodes
    }

    fn step(
        nodes: &mut [(EffectInterpreter, ReplicaNode, FramedJournal)],
        at: NodeId,
        input: Input,
    ) -> (bool, Recorder) {
        let (interp, node, journal) = &mut nodes[at.0 as usize];
        let mut replica = Replica {
            node,
            journal,
            now: SimTime::ZERO,
        };
        let mut host = Recorder::default();
        let ok = interp.step(&mut replica, input, &mut host);
        (ok, host)
    }

    fn write(id: u64) -> Input {
        let write = PartialWrite::new([(0, Bytes::from_static(b"x"))]);
        Input::External(ClientRequest::Write { id, write })
    }

    /// Ack after stable: a step that persists commits before it sends or
    /// outputs anything, so no peer or client hears of an unstable change.
    #[test]
    fn a_persisting_step_commits_before_its_sends_and_outputs() {
        let mut nodes = cluster();
        let (mut persisted_then_sent, mut persisted_then_output) = (false, false);
        let mut inbox = VecDeque::from([(NodeId(0), write(1))]);
        while let Some((to, input)) = inbox.pop_front() {
            let (ok, host) = step(&mut nodes, to, input);
            assert!(ok);
            if let Some(at) = host.seen.iter().position(|&e| e == "commit") {
                assert_eq!(at, 0, "effects before the commit: {:?}", host.seen);
                assert_eq!(host.seen.iter().filter(|&&e| e == "commit").count(), 1);
                persisted_then_sent |= host.seen.contains(&"send");
                persisted_then_output |= host.seen.contains(&"output");
            }
            for (peer, msg, lamport) in host.sends {
                let from = to;
                inbox.push_back((peer, Input::Deliver { from, msg, lamport }));
            }
        }
        assert!(persisted_then_sent, "no persisting step sent a message");
        assert!(persisted_then_output, "no persisting step acknowledged");
    }

    /// A commit that fails or tears fail-stops the node mid-step: the step
    /// reports it, and nothing it would have revealed goes out.
    #[test]
    fn a_failed_commit_emits_no_send_or_output() {
        for kind in [FaultKind::AppendFail, FaultKind::TornWrite] {
            let mut nodes = cluster();
            nodes[0].0.failpoints.arm(kind);
            let on_disk = nodes[0].2.replay_checked(&nodes[0].1.config).durable;
            let (ok, host) = step(&mut nodes, NodeId(0), write(1));
            assert!(!ok, "{kind:?}: the step must report the fail-stop");
            assert!(host.seen.is_empty(), "{kind:?}: emitted {:?}", host.seen);
            let replay = nodes[0].2.replay_checked(&nodes[0].1.config).durable;
            assert_eq!(replay, on_disk, "{kind:?}: the journal moved");
        }
    }
}
