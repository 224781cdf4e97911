//! Shared evaluation of permission-phase responses: the core of the paper's
//! `Write` / `HeavyProcedure` / `CheckEpoch` pseudo-code.

use crate::msg::StateTuple;
use coterie_quorum::{CoterieRule, NodeId, NodeSet, PlanCache, QuorumKind, View};
use std::collections::BTreeMap;

/// The digest of a response set.
#[derive(Clone, Debug)]
pub struct Classified {
    /// The epoch list from a response with the maximum epoch number
    /// (`elist_m`).
    pub view: View,
    /// That maximum epoch number (`enumber_m`).
    pub enumber: u64,
    /// All responders.
    pub responders: NodeSet,
    /// `max-version`: greatest version among non-stale responses, if any
    /// non-stale response exists.
    pub max_version: Option<u64>,
    /// `max-dversion`: greatest desired version among stale responses
    /// (0 when no responder is stale).
    pub max_dversion: u64,
    /// `GOOD`: non-stale responders holding `max-version`.
    pub good: Vec<NodeId>,
    /// `STALE`: all other responders.
    pub stale: Vec<NodeId>,
    /// Whether the responders include a quorum of the requested kind over
    /// `view` (`coterie-rule(elist_m, {node_1..node_k})`).
    pub has_quorum: bool,
    /// The good list recorded by the previous write, as reported by the
    /// maximum-epoch responder (safety-threshold candidates, §4.1).
    pub last_good: Vec<NodeId>,
}

impl Classified {
    /// Evaluates `responses` exactly as the paper's pseudo-code does.
    ///
    /// The quorum test runs through `plans`, which memoizes one compiled
    /// [`coterie_quorum::QuorumPlan`] per distinct epoch list — response
    /// classification repeatedly judges quorums over the same (current)
    /// epoch, so the rule's structure is derived once per epoch rather
    /// than once per evaluation.
    pub fn evaluate(
        rule: &dyn CoterieRule,
        plans: &mut PlanCache,
        responses: &BTreeMap<NodeId, StateTuple>,
        kind: QuorumKind,
    ) -> Option<Classified> {
        let max_resp = responses.values().max_by_key(|s| s.enumber)?;
        let view = View::new(max_resp.elist.iter().copied());
        let enumber = max_resp.enumber;
        let last_good = max_resp.last_good.clone();
        let responders = NodeSet::from_iter(responses.keys().copied());
        let max_version = responses
            .values()
            .filter(|s| !s.stale)
            .map(|s| s.version)
            .max();
        let max_dversion = responses
            .values()
            .filter(|s| s.stale)
            .map(|s| s.dversion)
            .max()
            .unwrap_or(0);
        let mut good: Vec<NodeId> = responses
            .values()
            .filter(|s| !s.stale && Some(s.version) == max_version)
            .map(|s| s.node)
            .collect();
        good.sort_unstable();
        let good_set = NodeSet::from_iter(good.iter().copied());
        let mut stale: Vec<NodeId> = responders.difference(good_set).iter().collect();
        stale.sort_unstable();
        let has_quorum = plans
            .plan_for(rule, &view)
            .includes_quorum(responders, kind);
        Some(Classified {
            view,
            enumber,
            responders,
            max_version,
            max_dversion,
            good,
            stale,
            has_quorum,
            last_good,
        })
    }

    /// The paper's freshness test: the responses contain a current replica
    /// iff some non-stale version is at least every stale responder's
    /// desired version (`max-version >= max-dversion`).
    pub fn has_current_replica(&self) -> bool {
        match self.max_version {
            Some(v) => v >= self.max_dversion,
            None => false,
        }
    }

    /// The version a committing write will produce (`max-version + 1`).
    pub fn next_version(&self) -> Option<u64> {
        self.max_version.map(|v| v + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_quorum::MajorityCoterie;

    fn resp(
        node: u32,
        version: u64,
        stale: bool,
        dversion: u64,
        enumber: u64,
        elist: &[u32],
    ) -> (NodeId, StateTuple) {
        (
            NodeId(node),
            StateTuple {
                node: NodeId(node),
                version,
                dversion,
                stale,
                elist: elist.iter().map(|&x| NodeId(x)).collect(),
                enumber,
                last_good: Vec::new(),
                wlocked: false,
                prepared_version: None,
            },
        )
    }

    #[test]
    fn empty_responses_yield_none() {
        let rule = MajorityCoterie::new();
        let mut plans = PlanCache::new();
        let map = BTreeMap::new();
        assert!(Classified::evaluate(&rule, &mut plans, &map, QuorumKind::Write).is_none());
    }

    #[test]
    fn picks_max_epoch_view_and_partitions_good_stale() {
        let rule = MajorityCoterie::new();
        let mut plans = PlanCache::new();
        let map: BTreeMap<_, _> = [
            resp(0, 5, false, 0, 2, &[0, 1, 2]),
            resp(1, 5, false, 0, 2, &[0, 1, 2]),
            resp(2, 3, false, 0, 1, &[0, 1, 2, 3]),
        ]
        .into_iter()
        .collect();
        let c = Classified::evaluate(&rule, &mut plans, &map, QuorumKind::Write).unwrap();
        assert_eq!(c.enumber, 2);
        assert_eq!(c.view.members().len(), 3);
        assert_eq!(c.max_version, Some(5));
        assert_eq!(c.good, vec![NodeId(0), NodeId(1)]);
        assert_eq!(c.stale, vec![NodeId(2)]); // lower version: to be marked
        assert!(c.has_quorum);
        assert!(c.has_current_replica());
        assert_eq!(c.next_version(), Some(6));
    }

    #[test]
    fn stale_with_higher_dversion_blocks() {
        let rule = MajorityCoterie::new();
        let mut plans = PlanCache::new();
        let map: BTreeMap<_, _> = [
            resp(0, 4, false, 0, 0, &[0, 1, 2]),
            resp(1, 2, true, 5, 0, &[0, 1, 2]),
        ]
        .into_iter()
        .collect();
        let c = Classified::evaluate(&rule, &mut plans, &map, QuorumKind::Write).unwrap();
        assert_eq!(c.max_version, Some(4));
        assert_eq!(c.max_dversion, 5);
        assert!(!c.has_current_replica());
        assert!(c.has_quorum);
    }

    #[test]
    fn all_stale_has_no_current_replica() {
        let rule = MajorityCoterie::new();
        let mut plans = PlanCache::new();
        let map: BTreeMap<_, _> = [
            resp(0, 4, true, 5, 0, &[0, 1, 2]),
            resp(1, 2, true, 5, 0, &[0, 1, 2]),
        ]
        .into_iter()
        .collect();
        let c = Classified::evaluate(&rule, &mut plans, &map, QuorumKind::Write).unwrap();
        assert_eq!(c.max_version, None);
        assert!(!c.has_current_replica());
        assert!(c.good.is_empty());
        assert_eq!(c.stale.len(), 2);
        assert_eq!(c.next_version(), None);
    }

    #[test]
    fn quorum_judged_over_max_epoch_view() {
        let rule = MajorityCoterie::new();
        let mut plans = PlanCache::new();
        // Responder 0 reports a shrunken epoch {0, 1}; responders {0, 1}
        // are a majority of it even though they are a minority of {0..4}.
        let map: BTreeMap<_, _> = [
            resp(0, 1, false, 0, 3, &[0, 1]),
            resp(1, 1, false, 0, 3, &[0, 1]),
        ]
        .into_iter()
        .collect();
        let c = Classified::evaluate(&rule, &mut plans, &map, QuorumKind::Write).unwrap();
        assert!(c.has_quorum);
        // A single responder of the pair is not a write quorum.
        let map1: BTreeMap<_, _> = [resp(0, 1, false, 0, 3, &[0, 1])].into_iter().collect();
        let c1 = Classified::evaluate(&rule, &mut plans, &map1, QuorumKind::Write).unwrap();
        assert!(!c1.has_quorum);
    }

    #[test]
    fn stale_members_equal_in_version_still_stale() {
        let rule = MajorityCoterie::new();
        let mut plans = PlanCache::new();
        // A stale responder at the max version is still STALE (the paper's
        // GOOD set requires stale_i = 0).
        let map: BTreeMap<_, _> = [
            resp(0, 4, false, 0, 0, &[0, 1]),
            resp(1, 4, true, 4, 0, &[0, 1]),
        ]
        .into_iter()
        .collect();
        let c = Classified::evaluate(&rule, &mut plans, &map, QuorumKind::Write).unwrap();
        assert_eq!(c.good, vec![NodeId(0)]);
        assert_eq!(c.stale, vec![NodeId(1)]);
        assert!(c.has_current_replica());
    }
}
