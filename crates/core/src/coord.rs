//! What every coordinated operation shares. The paper's `Write`, `Read`
//! and `CheckEpoch` all send a request to a quorum (or to everyone),
//! collect state tuples, and test `coterie-rule`; writes and epoch changes
//! then run two-phase commit. [`Poll`] is that collection and [`Ballot`]
//! that vote. [`InFlight`] is one operation in the coordinator's table,
//! and the handlers below take each shared input — a state response, a
//! bounced request, `Timer::Collect`, a vote, `Timer::Votes` — to it by
//! `OpId`. Each kind keeps its own evaluation, failure reason and
//! completion (`read.rs`, `write.rs`, `epoch.rs`).

use crate::config::{COLLECT_TIMEOUT, VOTE_TIMEOUT};
use crate::engine::metrics::keys;
use crate::engine::trace::TraceEvent;
use crate::epoch::EpochCoordinator;
use crate::msg::{Action, FailReason, Msg, OpId, StateTuple};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use crate::read::ReadCoordinator;
use crate::store::Pages;
use crate::write::{Voting, WriteCoordinator};
use coterie_base::TimerId;
use coterie_quorum::{NodeId, NodeSet, QuorumKind, View};
use std::collections::BTreeMap;

/// The collection phase of one operation: who was asked and how each
/// answered. Open while its `Collect` timer is armed; a closed poll
/// records nothing.
#[derive(Clone, Debug, Default)]
pub struct Poll {
    /// Granted answers by node (locked, for reads and writes).
    pub(crate) granted: BTreeMap<NodeId, StateTuple>,
    /// The object of the highest-version grant that carried one (ours on a
    /// tie), with that version. Only non-stale grants carry an object, so
    /// once classification finds a current replica this is its copy: the
    /// result of a read, and the base a write-all-current write ships to
    /// obsolete replicas.
    pub(crate) copy: Option<(u64, Pages)>,
    /// Nodes that answered but refused the lock.
    pub(crate) refused: NodeSet,
    /// Nodes that failed (`RPC.CallFailed` or silent at the timeout).
    pub(crate) failed: NodeSet,
    /// Nodes polled so far.
    pub(crate) polled: NodeSet,
    /// Whether the heavy (poll-everyone) pass has run.
    pub(crate) heavy: bool,
    /// The `Collect` timer, armed while the poll is open.
    pub(crate) timer: Option<TimerId>,
}

impl Poll {
    /// Sends `request` to `nodes` and arms the `Collect` timer.
    pub(crate) fn ask(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, nodes: NodeSet, request: Msg) {
        self.polled = self.polled.union(nodes);
        self.timer = Some(ctx.set_timer(COLLECT_TIMEOUT, Timer::Collect { op }));
        ctx.multicast(nodes.iter(), request);
    }

    fn answered(&self) -> NodeSet {
        let granted = NodeSet::from_iter(self.granted.keys().copied());
        granted.union(self.refused).union(self.failed)
    }

    fn done(&self) -> bool {
        self.polled.is_subset_of(self.answered())
    }

    /// Records an answer and the object it carried; true when it completes
    /// the poll.
    pub(crate) fn answer(
        &mut self,
        me: NodeId,
        state: StateTuple,
        granted: bool,
        pages: Option<Pages>,
    ) -> bool {
        if self.timer.is_none() {
            return false;
        }
        if granted {
            self.keep_copy(me, &state, pages);
            self.granted.insert(state.node, state);
        } else {
            self.refused.insert(state.node);
        }
        self.done()
    }

    /// Keeps the object a grant carried if it is the newest so far (ours
    /// on a tie), so it is the copy of a current replica whenever
    /// classification finds one.
    fn keep_copy(&mut self, me: NodeId, state: &StateTuple, pages: Option<Pages>) {
        let Some(pages) = pages else {
            return;
        };
        let newer = self.copy.as_ref().is_none_or(|(version, _)| {
            state.version > *version || (state.version == *version && state.node == me)
        });
        if newer {
            self.copy = Some((state.version, pages));
        }
    }

    /// Records an unreachable node; true when that completes the poll.
    pub(crate) fn fail(&mut self, node: NodeId) -> bool {
        self.timer.is_some() && {
            self.failed.insert(node);
            self.done()
        }
    }

    /// The `Collect` timer fired: closes the poll with every node still
    /// silent failed. False if the poll was already closed.
    pub(crate) fn expire(&mut self) -> bool {
        if self.timer.take().is_none() {
            return false;
        }
        self.failed = self.failed.union(self.polled.difference(self.answered()));
        true
    }

    /// Closes the poll, disarming its timer.
    pub(crate) fn close(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(timer) = self.timer.take() {
            ctx.cancel_timer(timer);
        }
    }
}

/// The vote phase of a two-phase commit. Every required participant must
/// vote yes; optional ones (§4.1 safety-threshold extras) are best-effort,
/// and a no-vote or failure just drops them.
#[derive(Clone, Debug)]
pub struct Ballot {
    /// Required participants, in decision order.
    pub(crate) required: Vec<NodeId>,
    /// Required participants that voted yes.
    pub(crate) yes: NodeSet,
    /// Optional participants still in the round.
    pub(crate) optional: Vec<NodeId>,
    /// Optional participants that voted yes.
    pub(crate) optional_yes: NodeSet,
    /// Some voter's lock refused another operation since it was freshly
    /// granted: a write round's chain ends at this decision.
    pub(crate) contended: bool,
    /// The `Votes` timer.
    pub(crate) timer: TimerId,
}

impl Ballot {
    /// Opens `op`'s ballot: arms `Votes` and sends each prepare
    /// `(participant, action, extra)`. Every participant is required unless
    /// named in `optional`. The one place a `Prepare` is built.
    pub(crate) fn open(
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        optional: &[NodeId],
        prepares: impl IntoIterator<Item = (NodeId, Action, bool)>,
    ) -> Ballot {
        let timer = ctx.set_timer(VOTE_TIMEOUT, Timer::Votes { op });
        ctx.trace(TraceEvent::PrepareIssued { op });
        let mut required = Vec::new();
        for (node, action, extra) in prepares {
            if !optional.contains(&node) {
                required.push(node);
            }
            ctx.send(node, Msg::Prepare { op, action, extra });
        }
        Ballot {
            required,
            yes: NodeSet::new(),
            optional: optional.to_vec(),
            optional_yes: NodeSet::new(),
            contended: false,
            timer,
        }
    }

    /// Counts a vote; `Some(commit)` once the ballot is decided: a required
    /// no aborts, and the last required yes commits.
    pub(crate) fn vote(&mut self, from: NodeId, yes: bool) -> Option<bool> {
        let optional = self.optional.contains(&from) || self.optional_yes.contains(from);
        match (yes, optional) {
            (false, false) => return Some(false),
            (false, true) => {
                self.optional.retain(|&n| n != from);
                self.optional_yes.remove(from);
                return None;
            }
            (true, true) => self.optional_yes.insert(from),
            (true, false) => self.yes.insert(from),
        }
        let yes = self.yes;
        self.required
            .iter()
            .all(|&p| yes.contains(p))
            .then_some(true)
    }
}

/// One operation this node coordinates.
#[derive(Clone, Debug)]
pub enum InFlight {
    /// A client read.
    Read(ReadCoordinator),
    /// A (possibly batched) write round.
    Write(WriteCoordinator),
    /// An epoch check.
    Epoch(EpochCoordinator),
}

impl InFlight {
    fn poll(&mut self) -> &mut Poll {
        match self {
            InFlight::Read(rc) => &mut rc.poll,
            InFlight::Write(wc) => &mut wc.poll,
            InFlight::Epoch(ec) => &mut ec.poll,
        }
    }

    fn ballot(&mut self) -> Option<&mut Ballot> {
        match self {
            InFlight::Write(WriteCoordinator {
                voting: Some(Voting { ballot, .. }),
                ..
            }) => Some(ballot),
            InFlight::Epoch(ec) => ec.ballot.as_mut(),
            InFlight::Read(_) | InFlight::Write(_) => None,
        }
    }

    /// The request this operation polls with.
    fn request(&self, op: OpId) -> Msg {
        match self {
            InFlight::Read(_) => Msg::ReadReq { op },
            InFlight::Write(_) => Msg::WriteReq { op },
            InFlight::Epoch(_) => Msg::EpochCheckReq { op },
        }
    }
}

impl ReplicaNode {
    /// A permission or epoch-check answer. A grant for an op this node no
    /// longer coordinates is released at once, so the replica does not sit
    /// locked until its lease expires. An answer to a closed poll is
    /// dropped: a late grant for a write already voting is left to its
    /// lease.
    pub(crate) fn on_state_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        granted: bool,
        state: StateTuple,
        pages: Option<Pages>,
    ) {
        let Some(entry) = self.vol.ops.get_mut(&op) else {
            if granted {
                ctx.send(from, Msg::Release { op });
            }
            return;
        };
        // An epoch poll takes no lock: every answer counts.
        let granted = granted || matches!(entry, InFlight::Epoch(_));
        if entry.poll().answer(self.me, state, granted, pages) {
            self.evaluate(ctx, op);
        }
    }

    /// `RPC.CallFailed` for a poll request: the callee failed in the poll
    /// that sent that request.
    pub(crate) fn on_request_failed(&mut self, ctx: &mut NodeCtx<'_>, to: NodeId, op: OpId) {
        if self.vol.ops.get_mut(&op).is_some_and(|e| e.poll().fail(to)) {
            self.evaluate(ctx, op);
        }
    }

    /// `Timer::Collect`: silent nodes have failed; evaluate what came in.
    pub(crate) fn on_collect_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self.vol.ops.get_mut(&op).is_some_and(|e| e.poll().expire()) {
            self.evaluate(ctx, op);
        }
    }

    /// Hands a completed (or expired) poll to its kind's evaluation.
    fn evaluate(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        match self.vol.ops.get(&op) {
            Some(InFlight::Read(_)) => self.evaluate_read(ctx, op),
            Some(InFlight::Write(_)) => self.evaluate_write(ctx, op),
            Some(InFlight::Epoch(_)) => self.evaluate_epoch_check(ctx, op),
            None => {}
        }
    }

    /// `HeavyProcedure`: poll every replica not yet polled. With nobody
    /// left to ask, the re-evaluation is terminal.
    pub(crate) fn heavy_procedure(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.stats.inc(keys::HEAVY_RUNS);
        let all = NodeSet::from_iter(self.all_nodes());
        let Some(entry) = self.vol.ops.get_mut(&op) else {
            return;
        };
        let request = entry.request(op);
        let poll = entry.poll();
        poll.heavy = true;
        let remaining = all.difference(poll.polled);
        if remaining.is_empty() {
            self.evaluate(ctx, op);
        } else {
            poll.ask(ctx, op, remaining, request);
        }
    }

    /// Why `op`'s poll found no quorum: contention if the refused (busy)
    /// nodes would have completed one, else no quorum. Judged over the
    /// maximum-epoch view among the grants and this node's own, so a
    /// coordinator that missed an epoch install still sees contention.
    pub(crate) fn failure_reason(&mut self, op: OpId, kind: QuorumKind) -> FailReason {
        let Some(poll) = self.vol.ops.get_mut(&op).map(InFlight::poll) else {
            return FailReason::NoQuorum;
        };
        let newest = poll.granted.values().max_by_key(|s| s.enumber);
        let view = match newest {
            Some(s) if s.enumber > self.durable.enumber => View::new(s.elist.iter().copied()),
            _ => self.durable.epoch_view(),
        };
        let optimistic = NodeSet::from_iter(poll.granted.keys().copied()).union(poll.refused);
        let plan = self.plans.plan_for(&*self.config.rule, &view);
        if !poll.refused.is_empty() && plan.includes_quorum(optimistic, kind) {
            FailReason::Contention
        } else {
            FailReason::NoQuorum
        }
    }

    /// A 2PC vote. With no open ballot for `op` the coordinator already
    /// decided; the participant learns the outcome by `Decision` or
    /// `DecisionQuery`.
    pub(crate) fn on_vote(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: NodeId,
        op: OpId,
        yes: bool,
        contended: bool,
    ) {
        let Some(ballot) = self.vol.ops.get_mut(&op).and_then(InFlight::ballot) else {
            return;
        };
        ballot.contended |= contended;
        if let Some(commit) = ballot.vote(from, yes) {
            ctx.cancel_timer(ballot.timer);
            self.close_ballot(ctx, op, commit);
        }
    }

    /// `Timer::Votes`: a ballot still open aborts.
    pub(crate) fn on_vote_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let open = self.vol.ops.get_mut(&op).and_then(InFlight::ballot);
        if open.is_some() {
            self.close_ballot(ctx, op, false);
        }
    }

    fn close_ballot(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, commit: bool) {
        match self.vol.ops.remove(&op) {
            Some(InFlight::Write(wc)) => self.write_decided(ctx, op, wc, commit),
            Some(InFlight::Epoch(ec)) => self.epoch_decided(ctx, op, ec, commit),
            // Reads hold no ballot, so no vote closes one.
            Some(InFlight::Read(_)) | None => {}
        }
    }

    /// Records the coordinator's decision on `ballot` and sends it to every
    /// required participant, plus, on commit, the optional ones that
    /// prepared. The one place a coordinator builds a `Decision`.
    pub(crate) fn decide(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        ballot: &Ballot,
        commit: bool,
        chain: Option<OpId>,
    ) {
        self.durable.record_decision(op, commit);
        let optional = ballot.optional_yes.iter().filter(|_| commit);
        for p in ballot.required.iter().copied().chain(optional) {
            ctx.send(p, Msg::Decision { op, commit, chain });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::Durable;
    use crate::engine::{Effect, Input};
    use crate::msg::ClientRequest;
    use crate::store::PartialWrite;
    use crate::ProtocolConfig;
    use coterie_base::SimTime;
    use coterie_quorum::MajorityCoterie;
    use std::sync::Arc;

    fn config() -> ProtocolConfig {
        ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 5)
    }

    fn set(nodes: &[u32]) -> NodeSet {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn open_poll(nodes: &[u32]) -> Poll {
        let (polled, timer) = (set(nodes), Some(TimerId(1)));
        Poll {
            polled,
            timer,
            ..Poll::default()
        }
    }

    fn tuple(n: u32) -> StateTuple {
        ReplicaNode::new(NodeId(n), config()).state_tuple()
    }

    /// The recipients of the sends among `effects` whose message matches.
    fn sent(effects: &[Effect], matching: fn(&Msg) -> bool) -> Vec<NodeId> {
        let to = |e: &Effect| match e {
            Effect::Send { to, msg, .. } if matching(msg) => Some(*to),
            _ => None,
        };
        effects.iter().filter_map(to).collect()
    }

    fn deliver(node: &mut ReplicaNode, from: NodeId, msg: Msg) -> Vec<Effect> {
        let lamport = 0;
        node.step(SimTime::ZERO, Input::Deliver { from, msg, lamport })
    }

    #[test]
    fn a_closed_poll_records_nothing() {
        let mut poll = open_poll(&[0, 1, 2]);
        assert!(!poll.answer(NodeId(9), tuple(0), true, None));
        assert!(poll.expire());
        let late = Some(Pages::default());
        assert!(!poll.answer(NodeId(9), tuple(1), true, late) && !poll.fail(NodeId(2)));
        assert!(!poll.expire(), "an expired poll stays closed");
        assert_eq!(poll.granted.keys().copied().collect::<NodeSet>(), set(&[0]));
        assert!(poll.copy.is_none(), "a late grant's object was kept");
        assert_eq!(poll.failed, set(&[1, 2]));
    }

    #[test]
    fn a_collect_timeout_fails_only_the_silent() {
        let mut poll = open_poll(&[0, 1, 2, 3]);
        assert!(!poll.answer(NodeId(9), tuple(0), true, None));
        assert!(!poll.answer(NodeId(9), tuple(1), false, None));
        assert!(!poll.fail(NodeId(2)));
        assert!(poll.expire());
        assert_eq!((poll.refused, poll.failed), (set(&[1]), set(&[2, 3])));
        assert_eq!(poll.granted.len(), 1);
    }

    #[test]
    fn the_heavy_pass_polls_only_the_unpolled_and_rearms_collect() {
        let reads = |m: &Msg| matches!(m, Msg::ReadReq { .. });
        let mut node = ReplicaNode::new(NodeId(0), config());
        let read = Input::External(ClientRequest::Read { id: 1 });
        let light = sent(&node.step(SimTime::ZERO, read), reads);
        let op = *node.vol.ops.keys().next().unwrap();
        // Every light-quorum member is unreachable: a failure, not
        // contention, so the read goes heavy.
        let mut heavy = Vec::new();
        for &to in &light {
            let msg = Msg::ReadReq { op };
            heavy = node.step(SimTime::ZERO, Input::CallFailed { to, msg });
        }
        let unpolled = set(&[0, 1, 2, 3, 4]).difference(light.into_iter().collect());
        assert_eq!(sent(&heavy, reads), unpolled.to_vec());
        let rearmed = heavy.iter().find_map(|e| match e {
            Effect::SetTimer {
                id,
                timer: Timer::Collect { .. },
                ..
            } => Some(*id),
            _ => None,
        });
        let Some(InFlight::Read(rc)) = node.vol.ops.get(&op) else {
            panic!("the read is still collecting");
        };
        assert!(rc.poll.heavy && rearmed.is_some() && rc.poll.timer == rearmed);
    }

    #[test]
    fn contention_is_judged_over_the_responders_newer_epoch() {
        // Node 0 still holds the first epoch (all five, number 0), while the
        // members of its quorum installed a newer epoch of just themselves.
        // One grants, one refuses and one stays silent: granted ∪ refused
        // is a quorum of the newer epoch but not of the old one, so a read,
        // like a write, backs off and retries light instead of going heavy.
        let polls = |m: &Msg| matches!(m, Msg::ReadReq { .. } | Msg::WriteReq { .. });
        let write = PartialWrite::new([(0, bytes::Bytes::from_static(b"x"))]);
        for request in [
            ClientRequest::Read { id: 1 },
            ClientRequest::Write { id: 1, write },
        ] {
            let mut node = ReplicaNode::new(NodeId(0), config());
            let quorum = sent(&node.step(SimTime::ZERO, Input::External(request)), polls);
            let op = *node.vol.ops.keys().next().unwrap();
            for (n, granted) in [(quorum[0], true), (quorum[1], false)] {
                let mut state = tuple(n.0);
                (state.elist, state.enumber) = (quorum.clone(), 1);
                let pages = None;
                deliver(
                    &mut node,
                    n,
                    Msg::StateResp {
                        op,
                        granted,
                        state,
                        pages,
                    },
                );
            }
            let effects = node.step(SimTime::ZERO, Input::TimerFired(Timer::Collect { op }));
            // Off the table without a heavy poll: only contention ends a
            // light pass, and it ends it in a backoff.
            assert!(sent(&effects, polls).is_empty(), "went heavy: {effects:?}");
            assert!(node.vol.ops.is_empty(), "the light pass is still open");
        }
    }

    #[test]
    fn an_optional_no_vote_drops_it_and_the_round_goes_on() {
        let (required, optional) = (vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]);
        let (yes, timer) = (NodeSet::new(), TimerId(1));
        let mut ballot = Ballot {
            required,
            yes,
            optional,
            optional_yes: yes,
            contended: false,
            timer,
        };
        assert_eq!(ballot.vote(NodeId(2), false), None);
        assert_eq!(ballot.vote(NodeId(3), true), None);
        assert_eq!(ballot.vote(NodeId(0), true), None);
        assert_eq!(ballot.vote(NodeId(1), true), Some(true));
        assert_eq!(
            (ballot.optional, ballot.optional_yes),
            (vec![NodeId(3)], set(&[3]))
        );
    }

    /// Node 0 of five with a write voting: the polled quorum is required
    /// and, under a safety threshold of five, the two nodes it did not poll
    /// are optional extras. Returns the node, the op, the quorum and an
    /// extra.
    fn voting_write() -> (ReplicaNode, OpId, Vec<NodeId>, NodeId) {
        let mut node = ReplicaNode::new(NodeId(0), config().safety(5));
        let write = PartialWrite::new([(0, bytes::Bytes::from_static(b"x"))]);
        let input = Input::External(ClientRequest::Write { id: 1, write });
        let quorum = sent(&node.step(SimTime::ZERO, input), |m| {
            matches!(m, Msg::WriteReq { .. })
        });
        let op = *node.vol.ops.keys().next().unwrap();
        let mut prepared = Vec::new();
        for &q in &quorum {
            // The peer's permission server answers, naming everyone good.
            let mut peer = ReplicaNode::new(q, config());
            let mut state = Durable::pristine(&peer.config);
            state.last_good = (0..5).map(NodeId).collect();
            peer.install_durable(state);
            for effect in deliver(&mut peer, NodeId(0), Msg::WriteReq { op }) {
                if let Effect::Send { msg, .. } = effect {
                    prepared = deliver(&mut node, q, msg);
                }
            }
        }
        let extras = sent(&prepared, |m| matches!(m, Msg::Prepare { extra: true, .. }));
        assert_eq!(extras.len(), 2, "{prepared:?}");
        (node, op, quorum, extras[0])
    }

    #[test]
    fn a_required_no_or_a_vote_timeout_aborts_to_the_required_only() {
        let aborts = |m: &Msg| matches!(m, Msg::Decision { commit: false, .. });
        let vote = |op, yes| Msg::Vote {
            op,
            yes,
            contended: false,
        };
        let (mut node, op, quorum, extra) = voting_write();
        deliver(&mut node, extra, vote(op, true));
        let effects = deliver(&mut node, quorum[0], vote(op, false));
        assert_eq!(sent(&effects, aborts), quorum);

        let (mut node, op, quorum, extra) = voting_write();
        deliver(&mut node, extra, vote(op, true));
        let effects = node.step(SimTime::ZERO, Input::TimerFired(Timer::Votes { op }));
        assert_eq!(sent(&effects, aborts), quorum);
        assert!(node.vol.ops.is_empty());
    }
}
