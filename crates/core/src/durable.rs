//! Durable state, and the named transitions that are the only way it
//! changes.
//!
//! [`Durable`] is the paper's per-node state of §4 plus what 2PC must keep.
//! A node holds it in a [`DurableCell`]: `Deref` for reading, no
//! `DerefMut`. Every write is a transition named after the paper or 2PC
//! step it implements, and records its change for the step, which
//! [`step`](crate::node::ReplicaNode::step) drains into its one
//! [`Effect::Persist`](crate::engine::Effect). The rule journal bytes rest
//! on: **a field is in a [`DurableDelta`] only if its value at the end of
//! the step differs from its value at the start** (DESIGN.md §7 lists what
//! follows for pages and the log).

use std::collections::BTreeMap;
use std::ops::Deref;

use bytes::Bytes;
use coterie_quorum::{NodeId, View};

use crate::config::{ProtocolConfig, LOG_CAP};
use crate::msg::{Action, OpId, PropPayload};
use crate::store::{LogDelta, LogEntry, PageId, PagedObject, Pages, PartialWrite, WriteLog};

/// State that survives crashes (the paper's per-node protocol state of
/// §4 — version number, epoch number, stale flag, desired version, epoch
/// list — plus the object, the propagation log, and the 2PC artifacts that
/// textbook atomic commit requires to be durable).
#[derive(Clone, Debug, PartialEq)]
pub struct Durable {
    /// Replica version number.
    pub version: u64,
    /// Stale-data flag.
    pub stale: bool,
    /// Desired version number (meaningful only when `stale`).
    pub dversion: u64,
    /// Epoch number.
    pub enumber: u64,
    /// The epoch list (current epoch members, name-ordered).
    pub elist: Vec<NodeId>,
    /// The data item.
    pub object: PagedObject,
    /// Recent writes, for incremental propagation.
    pub log: WriteLog,
    /// A prepared-but-undecided 2PC action, if any. At most one can exist
    /// because a held slot refuses every other `Prepare`.
    pub prepared: Option<(OpId, Action)>,
    /// Commit/abort decisions this node made as a 2PC coordinator.
    pub decisions: BTreeMap<OpId, bool>,
    /// Monotonic operation counter (durable so op ids stay unique).
    pub op_counter: u64,
    /// Good list recorded by the most recent write this replica
    /// participated in (safety-threshold extension, §4.1).
    pub last_good: Vec<NodeId>,
    /// The incarnation stamped on every op id this node issues: fresh at
    /// every journal quarantine, so no id issued after one equals an id
    /// issued before it, however little of the journal survived. Zero
    /// means the journal has never been quarantined.
    pub incarnation: u64,
    /// True from a journal quarantine until the stale-rejoin handshake
    /// completes (`DurableCell::end_rejoin`); every boot that finds it set
    /// enters the handshake ([`crate::rejoin`]).
    pub rejoin_pending: bool,
}

impl Durable {
    /// The pristine durable state a node has before its first write: the
    /// base state journal replay starts from.
    pub fn pristine(config: &ProtocolConfig) -> Self {
        Durable {
            version: 0,
            stale: false,
            dversion: 0,
            enumber: 0,
            elist: (0..config.n_replicas as u32).map(NodeId).collect(),
            object: PagedObject::new(config.n_pages),
            log: WriteLog::new(LOG_CAP),
            prepared: None,
            decisions: BTreeMap::new(),
            op_counter: 0,
            last_good: Vec::new(),
            incarnation: 0,
            rejoin_pending: false,
        }
    }

    /// The epoch list as a [`View`].
    pub fn epoch_view(&self) -> View {
        View::new(self.elist.iter().copied())
    }

    /// Journal quarantine: stale, with the rejoin handshake owed; the
    /// prepared slot dropped (its vote may be part of the lost suffix, so
    /// the promise can be kept neither way); and the fresh `incarnation`
    /// the host drew, so no new op reuses an id the lost suffix could have
    /// issued. The host writes the result as the one image a quarantined
    /// journal restarts from, so no later append can tear it in half.
    pub fn quarantine(&mut self, incarnation: u64) {
        self.stale = true;
        self.rejoin_pending = true;
        self.prepared = None;
        self.incarnation = incarnation;
    }
}

/// The durable-state change produced by one engine step.
///
/// `None` / empty fields mean "unchanged". [`DurableDelta::apply`] replays
/// the change onto a [`Durable`]; a [`DurableCell`] records it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurableDelta {
    /// New replica version number.
    pub version: Option<u64>,
    /// New stale flag.
    pub stale: Option<bool>,
    /// New desired version.
    pub dversion: Option<u64>,
    /// New epoch `(enumber, elist)` — one field so the pair is atomic.
    pub epoch: Option<(u64, Vec<NodeId>)>,
    /// Rewritten pages of the object.
    pub pages: Vec<(PageId, Bytes)>,
    /// What happened to the write log: cleared, then these entries pushed.
    /// Never the log itself — trimming follows from the configured cap.
    pub log: LogDelta,
    /// New prepared-transaction slot (outer `Some` = changed; inner
    /// `Option` is the slot's new value).
    pub prepared: Option<Option<(OpId, Action)>>,
    /// Coordinator decisions recorded by this step. The decision map is
    /// append-only, so a delta only ever adds entries.
    pub decisions: Vec<(OpId, bool)>,
    /// New durable operation counter.
    pub op_counter: Option<u64>,
    /// New good list from the most recent write.
    pub last_good: Option<Vec<NodeId>>,
    /// New incarnation (see [`Durable::incarnation`]).
    pub incarnation: Option<u64>,
    /// New rejoin-pending flag (see [`Durable::rejoin_pending`]).
    pub rejoin_pending: Option<bool>,
}

/// One field of a transition: sets `$cell`'s `$field` to `$value` and, if
/// that moves it, records the new value in the step's delta (no step moves
/// a field back to its start value; DESIGN.md §7).
macro_rules! put {
    ($cell:expr, $field:ident, $value:expr) => {{
        let value = $value;
        if $cell.state.$field != value {
            $cell.delta.$field = Some(value.clone());
            $cell.state.$field = value;
        }
    }};
}

impl DurableDelta {
    /// The delta carrying a pristine state to `durable`: the one record a
    /// quarantined journal restarts from, every decision included.
    pub(crate) fn image(durable: &Durable, config: &ProtocolConfig) -> Option<DurableDelta> {
        let mut cell = DurableCell::new(Durable::pristine(config));
        cell.restore(durable.object.snapshot(), durable.version);
        cell.install_epoch(durable.enumber, &durable.elist);
        for entry in durable.log.iter() {
            cell.state.log.push(entry.clone(), &mut cell.delta.log);
        }
        cell.delta.decisions = durable.decisions.iter().map(|(op, c)| (*op, *c)).collect();
        put!(cell, stale, durable.stale);
        put!(cell, dversion, durable.dversion);
        put!(cell, prepared, durable.prepared.clone());
        put!(cell, op_counter, durable.op_counter);
        put!(cell, last_good, durable.last_good.clone());
        put!(cell, incarnation, durable.incarnation);
        put!(cell, rejoin_pending, durable.rejoin_pending);
        cell.take_delta()
    }

    /// Applies this delta to `durable`.
    pub fn apply(&self, durable: &mut Durable) {
        set(&mut durable.version, &self.version);
        set(&mut durable.stale, &self.stale);
        set(&mut durable.dversion, &self.dversion);
        if let Some((enumber, elist)) = &self.epoch {
            durable.enumber = *enumber;
            durable.elist = elist.clone();
        }
        for (p, contents) in &self.pages {
            durable.object.write_page(*p, contents.clone());
        }
        durable.log.apply(&self.log);
        set(&mut durable.prepared, &self.prepared);
        for (op, commit) in &self.decisions {
            durable.decisions.insert(*op, *commit);
        }
        set(&mut durable.op_counter, &self.op_counter);
        set(&mut durable.last_good, &self.last_good);
        set(&mut durable.incarnation, &self.incarnation);
        set(&mut durable.rejoin_pending, &self.rejoin_pending);
    }
}

/// One `Option` field of an apply: overwrites `slot` if the delta has a value.
fn set<T: Clone>(slot: &mut T, value: &Option<T>) {
    if let Some(value) = value {
        slot.clone_from(value);
    }
}

/// A node's [`Durable`] state, written only by the transitions below, and
/// the change they made in the current step.
#[derive(Clone, Debug)]
pub struct DurableCell {
    state: Durable,
    delta: DurableDelta,
}

impl Deref for DurableCell {
    type Target = Durable;

    fn deref(&self) -> &Durable {
        &self.state
    }
}

impl PartialEq<Durable> for DurableCell {
    fn eq(&self, other: &Durable) -> bool {
        self.state == *other
    }
}

impl PartialEq<DurableCell> for Durable {
    fn eq(&self, other: &DurableCell) -> bool {
        *self == other.state
    }
}

impl DurableCell {
    /// A cell holding `state`, already durable (pristine, or replayed).
    pub(crate) fn new(state: Durable) -> Self {
        let delta = DurableDelta::default();
        DurableCell { state, delta }
    }

    /// Drains the step's journal delta, if any field changed. Decisions
    /// come out in op order.
    pub(crate) fn take_delta(&mut self) -> Option<DurableDelta> {
        let mut d = std::mem::take(&mut self.delta);
        d.decisions.sort_unstable_by_key(|&(op, _)| op);
        (d != DurableDelta::default()).then_some(d)
    }

    /// 2PC vote yes: the action is prepared, durably, before the vote
    /// that promises it goes out.
    pub(crate) fn vote(&mut self, op: OpId, action: Action) {
        debug_assert!(self.state.prepared.is_none(), "one prepared slot");
        put!(self, prepared, Some((op, action)));
    }

    /// Empties the prepared slot (decided, or forgotten by a quarantine).
    pub(crate) fn take_prepared(&mut self) -> Option<(OpId, Action)> {
        let slot = self.state.prepared.take();
        if slot.is_some() {
            self.delta.prepared = Some(None);
        }
        slot
    }

    /// Records this coordinator's 2PC outcome for `op`. The map is
    /// append-only: an op is never re-decided differently.
    pub(crate) fn record_decision(&mut self, op: OpId, commit: bool) {
        let previous = self.state.decisions.insert(op, commit);
        debug_assert!(
            previous.is_none_or(|p| p == commit),
            "{op:?} re-decided: {previous:?} -> {commit}"
        );
        if previous.is_none() {
            self.delta.decisions.push((op, commit));
        }
    }

    /// Allocates `me`'s next operation id: the current incarnation, and
    /// the next value of the durable counter.
    pub(crate) fn next_op(&mut self, me: NodeId) -> OpId {
        let seq = self.state.op_counter + 1;
        put!(self, op_counter, seq);
        OpId {
            node: me,
            inc: self.state.incarnation,
            seq,
        }
    }

    /// §4 do-update: records the good list, restores the write-all-current
    /// `base` if one was shipped, then applies `writes` in order, each its
    /// own version and log entry, ending at `new_version`.
    pub(crate) fn apply_update(
        &mut self,
        writes: &[PartialWrite],
        new_version: u64,
        base: Option<&(Pages, u64)>,
        good: &[NodeId],
    ) {
        put!(self, last_good, good.to_vec());
        if let Some((pages, base_version)) = base {
            self.restore(pages.clone(), *base_version);
            self.become_current();
        }
        debug_assert!(!writes.is_empty(), "prepare refuses empty batches");
        let first_version = new_version + 1 - writes.len() as u64;
        for (version, write) in (first_version..).zip(writes.iter().cloned()) {
            self.push(LogEntry { version, write });
        }
        put!(self, version, new_version);
    }

    /// §4 mark-stale: stale, desired version raised to `desired_version`.
    pub(crate) fn mark_stale(&mut self, desired_version: u64) {
        put!(self, stale, true);
        put!(self, dversion, self.dversion.max(desired_version));
    }

    /// §4.3 new epoch: the `(enumber, list)` pair, atomically.
    pub(crate) fn install_epoch(&mut self, enumber: u64, list: &[NodeId]) {
        let s = &mut self.state;
        if (s.enumber, &s.elist[..]) != (enumber, list) {
            (s.enumber, s.elist) = (enumber, list.to_vec());
            self.delta.epoch = Some((enumber, list.to_vec()));
        }
    }

    /// §4.2 propagate, target side: replays the shipped log suffix while it
    /// continues this replica's version, or restores the snapshot; current
    /// again once past the desired version. True if it reached
    /// `source_version`.
    pub(crate) fn apply_propagation(&mut self, payload: PropPayload, source_version: u64) -> bool {
        let ok = match payload {
            PropPayload::Updates { entries } => {
                let mut applied = true;
                for entry in entries {
                    if entry.version != self.state.version + 1 {
                        applied = false;
                        break;
                    }
                    put!(self, version, entry.version);
                    self.push(entry);
                }
                applied && self.state.version == source_version
            }
            PropPayload::Snapshot { pages, version } => {
                self.restore(pages, version);
                version == source_version
            }
        };
        if ok && self.state.version >= self.state.dversion {
            self.become_current();
        }
        ok
    }

    /// The rejoin handshake completed: out of limbo, the reported epoch
    /// adopted if newer, the desired version raised to the rejoin bound.
    pub(crate) fn end_rejoin(&mut self, enumber: u64, list: &[NodeId], dversion: u64) {
        put!(self, rejoin_pending, false);
        put!(self, dversion, self.dversion.max(dversion));
        if enumber > self.enumber {
            self.install_epoch(enumber, list);
        }
    }

    /// Current again: not stale, no desired version.
    fn become_current(&mut self) {
        put!(self, stale, false);
        put!(self, dversion, 0);
    }

    /// Replaces the object and its version wholesale; the log restarts.
    fn restore(&mut self, pages: Pages, version: u64) {
        let (s, d) = (&mut self.state, &mut self.delta);
        for (id, page) in (0..=PageId::MAX).zip(pages.iter()) {
            if s.object.page(id) != Some(page) {
                note_page(&mut d.pages, id, page.clone());
            }
        }
        s.object.restore(pages);
        s.log.clear(&mut d.log);
        put!(self, version, version);
    }

    /// Applies a committed write's pages and pushes it onto the log.
    fn push(&mut self, entry: LogEntry) {
        let (s, d) = (&mut self.state, &mut self.delta);
        for (id, page) in &entry.write.pages {
            if s.object.page(*id).is_some_and(|old| old != page) {
                s.object.write_page(*id, page.clone());
                note_page(&mut d.pages, *id, page.clone());
            }
        }
        s.log.push(entry, &mut d.log);
    }
}

/// Records page `id`'s new contents in a delta's pages, kept in page-id
/// order with one entry per page.
fn note_page(pages: &mut Vec<(PageId, Bytes)>, id: PageId, page: Bytes) {
    match pages.binary_search_by_key(&id, |(p, _)| *p) {
        Ok(i) => pages[i].1 = page,
        Err(i) => pages.insert(i, (id, page)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::storage::FramedJournal;
    use crate::engine::{decode_delta, encode_delta, Effect, Input};
    use crate::node::ReplicaNode;
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(Arc::new(GridCoterie::new()), 4)
    }

    fn op(seq: u64) -> OpId {
        let node = NodeId(0);
        OpId { node, inc: 0, seq }
    }

    fn write(page: PageId, contents: &str) -> PartialWrite {
        PartialWrite::new([(page, Bytes::copy_from_slice(contents.as_bytes()))])
    }

    /// A node holding `state` (already durable), and what one step of it
    /// persists: `Crash` touches no durable field itself, so the delta is
    /// exactly what `transitions` recorded before it.
    fn persisted(
        state: &Durable,
        transitions: impl FnOnce(&mut DurableCell),
    ) -> Option<DurableDelta> {
        let mut node = ReplicaNode::new(NodeId(0), cfg());
        node.install_durable(state.clone());
        transitions(&mut node.durable);
        let delta = node
            .step(coterie_base::SimTime::ZERO, Input::Crash)
            .into_iter()
            .find_map(|e| match e {
                Effect::Persist(delta) => Some(*delta),
                _ => None,
            });
        let mut replayed = state.clone();
        delta.iter().for_each(|d| d.apply(&mut replayed));
        assert_eq!(replayed, node.durable, "the delta replays to the state");
        assert_eq!(node.durable.take_delta(), None, "drained by the step");
        let codec = delta.as_ref().map(|d| decode_delta(&encode_delta(d)));
        assert_eq!(codec, delta.clone().map(Ok));
        delta
    }

    #[test]
    fn a_step_that_leaves_every_field_at_its_start_value_persists_nothing() {
        let pristine = Durable::pristine(&cfg());
        // Marked stale again, with desired versions at or below its own.
        let mut stale = pristine.clone();
        (stale.stale, stale.dversion) = (true, 5);
        let again = |c: &mut DurableCell| {
            c.mark_stale(5);
            c.mark_stale(3);
        };
        assert_eq!(persisted(&stale, again), None);
        // A snapshot of its own pages and version, onto an empty log.
        let own = |c: &mut DurableCell| {
            let pages = c.object.snapshot();
            assert!(c.apply_propagation(PropPayload::Snapshot { pages, version: 0 }, 0));
        };
        assert_eq!(persisted(&pristine, own), None);
    }

    #[test]
    fn a_one_write_update_persists_its_version_changed_pages_and_one_log_entry() {
        let mut start = Durable::pristine(&cfg());
        start.object.apply(&write(1, "kept"));
        start.last_good = vec![NodeId(0), NodeId(1)];
        // Page 1 is rewritten with the bytes it holds and the good list is
        // the one already recorded: neither is a change.
        let mut update = write(0, "new");
        update.pages.extend(write(1, "kept").pages);
        let good = start.last_good.clone();
        let delta = persisted(&start, |c| {
            c.apply_update(&[update.clone()], 1, None, &good)
        });
        let entry = Arc::new(LogEntry {
            version: 1,
            write: update,
        });
        let expected = DurableDelta {
            version: Some(1),
            pages: write(0, "new").pages,
            log: LogDelta {
                cleared: false,
                pushed: vec![entry],
            },
            ..DurableDelta::default()
        };
        assert_eq!(delta, Some(expected));
    }

    #[test]
    fn a_log_delta_is_what_the_step_pushed_not_the_log() {
        let config = cfg();
        // `k` writes as one update batch.
        let batch = |k: u64| {
            move |c: &mut DurableCell| {
                let writes: Vec<_> = (0..k).map(|i| write(0, &format!("w{i}"))).collect();
                c.apply_update(&writes, c.version + k, None, &[]);
            }
        };
        let mut five = DurableCell::new(Durable::pristine(&config));
        batch(5)(&mut five);
        let five = five.state;
        // Every case replays to the state and survives the codec.
        let log = |start: &Durable, f: &dyn Fn(&mut DurableCell)| {
            let d = persisted(start, f).expect("changed");
            (d.log.cleared, d.log.pushed.len())
        };
        let cap = LOG_CAP as u64;
        // Pushes alone while an entry held at the start survives; replay
        // re-trims. A cap's worth or more is "cleared, then the last cap".
        assert_eq!(log(&five, &batch(1)), (false, 1));
        assert_eq!(log(&five, &batch(cap - 1)), (false, LOG_CAP - 1));
        assert_eq!(log(&five, &batch(cap)), (true, LOG_CAP));
        assert_eq!(log(&five, &batch(cap + 7)), (true, LOG_CAP));
        // From an empty log nothing is cleared.
        let pristine = Durable::pristine(&config);
        assert_eq!(log(&pristine, &batch(cap + 7)), (false, LOG_CAP));
        // A snapshot restore: cleared; cleared and then pushed.
        let base = (five.object.snapshot(), 9);
        let restore = |c: &mut DurableCell| {
            let (pages, version) = base.clone();
            assert!(c.apply_propagation(PropPayload::Snapshot { pages, version }, 9));
        };
        assert_eq!(log(&five, &restore), (true, 0));
        let then_push =
            |c: &mut DurableCell| c.apply_update(&[write(1, "x")], 10, Some(&base), &[]);
        assert_eq!(log(&five, &then_push), (true, 1));
        // The pushed entries are the live log's own.
        let mut cell = DurableCell::new(five);
        batch(cap + 7)(&mut cell);
        let pushed = cell.take_delta().expect("changed").log.pushed;
        assert!(pushed
            .iter()
            .zip(cell.log.iter())
            .all(|(p, e)| std::ptr::eq(&**p, e)));
        // The trimmed log beside every other field: `reset_to` writes it
        // as the one record that replays to it.
        cell.record_decision(op(3), true);
        cell.install_epoch(1, &[NodeId(1), NodeId(2)]);
        cell.apply_update(&[write(1, "y")], cell.version + 1, None, &[NodeId(1)]);
        let mut quarantined = cell.state;
        quarantined.quarantine(7);
        let mut cell = DurableCell::new(quarantined);
        cell.vote(op(4), Action::MarkStale { desired_version: 2 });
        cell.mark_stale(40);
        let mut journal = FramedJournal::new();
        journal.reset_to(&cell, &config);
        assert_eq!(journal.replay_checked(&config).durable, *cell);
    }

    #[test]
    fn an_epoch_installs_as_one_field() {
        let list = [NodeId(1), NodeId(3)];
        let delta = persisted(&Durable::pristine(&cfg()), |c| c.install_epoch(4, &list));
        let epoch = Some((4, list.to_vec()));
        let expected = DurableDelta {
            epoch,
            ..DurableDelta::default()
        };
        assert_eq!(delta, Some(expected));
    }

    /// A coordinator holding 3 000 decisions (even seqs).
    fn long_lived_coordinator() -> Durable {
        let mut held = Durable::pristine(&cfg());
        held.decisions
            .extend((1..=3_000u64).map(|seq| (op(2 * seq), seq % 3 == 0)));
        held
    }

    #[test]
    fn recorded_decisions_come_out_in_op_order() {
        // Recorded out of op order; one sorts into the middle of the map.
        let decide = |c: &mut DurableCell| {
            c.record_decision(op(6_001), true);
            c.record_decision(op(7), false);
        };
        let delta = persisted(&long_lived_coordinator(), decide).expect("two decisions");
        assert_eq!(delta.decisions, vec![(op(7), false), (op(6_001), true)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-decided")]
    fn redeciding_an_op_differently_is_caught_at_the_entry_point() {
        let mut cell = DurableCell::new(long_lived_coordinator());
        cell.record_decision(op(2), true); // op(2): seq 1, 1 % 3 != 0 => held as abort
    }
}
