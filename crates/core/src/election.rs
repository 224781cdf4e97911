//! Election of the epoch-check initiator.
//!
//! §4.3: "A simple solution is to elect a site responsible for initiating
//! all epoch checkings. A new election would be started by any node
//! noticing that epoch checking has not run for a while. (See \[7\] for
//! election protocols.)"
//!
//! Two policies are provided:
//!
//! * [`InitiatorPolicy::RankStagger`] (default) — election-free: every node
//!   ticks with a period proportional to its rank in its epoch list and
//!   initiates only when no recent check was observed. The lowest live
//!   member wins in steady state; successors take over by timeout.
//! * [`InitiatorPolicy::Bully`] — Garcia-Molina's bully algorithm \[7\]: a
//!   node that notices epoch-check silence challenges all higher-named
//!   nodes; if none answers it declares itself coordinator and runs the
//!   periodic checks; any `Alive` answer defers to the higher node. The
//!   *highest* live node ends up coordinating (the classic bully winner),
//!   and a recovering higher node bullies the role back.

use crate::config::{Mode, COLLECT_TIMEOUT};
use crate::msg::{Msg, OpId};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use coterie_base::TimerId;
use coterie_quorum::NodeId;

/// How the epoch-check initiator is chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InitiatorPolicy {
    /// Election-free rank-staggered ticks (documented substitution).
    #[default]
    RankStagger,
    /// Garcia-Molina's bully election \[7\].
    Bully,
}

/// Volatile bully-election state.
#[derive(Clone, Debug, Default)]
pub struct ElectionState {
    /// Who we currently believe coordinates epoch checks.
    pub leader: Option<NodeId>,
    /// An election we started: the challenge round id and whether any
    /// higher node answered.
    pub in_flight: Option<ElectionRound>,
}

/// One outstanding challenge round.
#[derive(Clone, Debug)]
pub struct ElectionRound {
    /// Round identifier (an op id for uniqueness).
    pub round: OpId,
    /// True once some higher node replied `Alive`.
    pub deferred: bool,
    /// Timeout for answers (and then for the Coordinator announcement).
    pub timer: TimerId,
}

impl ReplicaNode {
    /// Whether this node should initiate an epoch check right now, under
    /// the configured policy. Called from the periodic tick.
    pub(crate) fn should_initiate_check(&self) -> bool {
        match self.config.initiator {
            InitiatorPolicy::RankStagger => true, // tick cadence does the arbitration
            InitiatorPolicy::Bully => self.vol.election.leader == Some(self.me),
        }
    }

    /// Bully: notice silence, challenge the higher-ups.
    pub(crate) fn maybe_start_election(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.config.initiator != InitiatorPolicy::Bully {
            return;
        }
        if self.vol.election.in_flight.is_some() {
            return;
        }
        let higher: Vec<NodeId> = self
            .all_nodes()
            .into_iter()
            .filter(|n| n.0 > self.me.0)
            .collect();
        let round = self.durable.next_op(self.me);
        if higher.is_empty() {
            // Highest name: win immediately.
            self.become_leader(ctx);
            return;
        }
        let timeout = COLLECT_TIMEOUT * 2;
        let timer = ctx.set_timer(timeout, Timer::ElectionTimeout { round });
        self.vol.election.in_flight = Some(ElectionRound {
            round,
            deferred: false,
            timer,
        });
        for n in higher {
            ctx.send(n, Msg::Election { round });
        }
    }

    /// Bully: a lower node challenged us — answer and take over.
    pub(crate) fn srv_election(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, round: OpId) {
        if self.config.initiator != InitiatorPolicy::Bully {
            return;
        }
        ctx.send(from, Msg::ElectionAlive { round });
        // A challenge means the current coordination is in doubt: assert
        // ourselves (or provoke nodes above us) unless already running.
        if self.vol.election.leader != Some(self.me) {
            self.maybe_start_election(ctx);
        }
    }

    /// Bully: a higher node is alive — defer to it.
    pub(crate) fn on_election_alive(&mut self, ctx: &mut NodeCtx<'_>, _from: NodeId, round: OpId) {
        if let Some(rd) = &mut self.vol.election.in_flight {
            if rd.round == round {
                rd.deferred = true;
                // Wait (a fresh timeout) for the Coordinator announcement.
                ctx.cancel_timer(rd.timer);
                let timeout = COLLECT_TIMEOUT * 6;
                rd.timer = ctx.set_timer(timeout, Timer::ElectionTimeout { round });
            }
        }
    }

    /// Bully: a coordinator announced itself.
    pub(crate) fn srv_coordinator(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId) {
        if self.config.initiator != InitiatorPolicy::Bully {
            return;
        }
        if from.0 < self.me.0 {
            // A lower node thinks it leads; bully it back.
            self.vol.election.leader = None;
            self.maybe_start_election(ctx);
            return;
        }
        if let Some(rd) = self.vol.election.in_flight.take() {
            ctx.cancel_timer(rd.timer);
        }
        self.vol.election.leader = Some(from);
    }

    /// Bully: the answer (or announcement) window elapsed.
    pub(crate) fn on_election_timeout(&mut self, ctx: &mut NodeCtx<'_>, round: OpId) {
        let Some(rd) = &self.vol.election.in_flight else {
            return;
        };
        if rd.round != round {
            return;
        }
        let deferred = rd.deferred;
        self.vol.election.in_flight = None;
        if deferred {
            // A higher node answered but never announced: re-run.
            self.maybe_start_election(ctx);
        } else {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut NodeCtx<'_>) {
        self.vol.election.leader = Some(self.me);
        for n in self.all_nodes() {
            if n != self.me {
                ctx.send(n, Msg::Coordinator);
            }
        }
        // Start coordinating immediately.
        if matches!(self.config.mode, Mode::Dynamic { .. }) && !self.vol.epoch_check_active {
            self.start_epoch_check(ctx);
        }
    }
}
