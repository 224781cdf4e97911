//! Current-first quorum choice: a coordinator asks the first quorum of its
//! seeded rotation that includes a replica it last saw current
//! (`Volatile::current`), and the hint is advisory only.
//!
//! * cluster level ([`StepDriver`], 9-node grid, fault-free): serial writes
//!   and then reads from one coordinator never need the heavy pass, though
//!   stale marking leaves only a few replicas current;
//! * replica level (a lone engine): an empty hint — a fresh or freshly
//!   crashed node — asks exactly the rule's seeded quorum;
//! * replica level (nine engines, messages routed by hand): a hint naming a
//!   replica that has since been marked stale still reads the latest
//!   version, through the heavy pass.

mod common;

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use common::drain_messages;
use coterie_base::SimTime;
use coterie_core::{
    keys, ClientRequest, Durable, Effect, Input, Msg, OpId, PartialWrite, ProtocolConfig,
    ProtocolEvent, ReplicaNode, StepDriver,
};
use coterie_quorum::{quorum_seed, CoterieRule, GridCoterie, NodeId, NodeSet, QuorumKind};

const N: usize = 9;

fn config() -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(GridCoterie::new()), N)
        .pages(4)
        .rng_seed(0xC0DE)
}

fn write(id: u64) -> ClientRequest {
    let page = (id % 4) as u16;
    let write = PartialWrite::new([(page, Bytes::from(format!("write {id}")))]);
    ClientRequest::Write { id, write }
}

#[test]
fn serial_operations_from_one_coordinator_never_run_the_heavy_pass() {
    let mut driver = StepDriver::new(N, config());
    let requests = (1..=20).map(write);
    let reads = (21..=40).map(|id| ClientRequest::Read { id });
    for request in requests.chain(reads) {
        driver.inject(NodeId(0), request);
        drain_messages(&mut driver);
    }
    let done = |e: &ProtocolEvent| {
        matches!(
            e,
            ProtocolEvent::WriteOk { .. } | ProtocolEvent::ReadOk { .. }
        )
    };
    let committed = driver.outputs().iter().filter(|(_, _, e)| done(e)).count();
    assert_eq!(committed, 40, "{:?}", driver.outputs());
    let stale = (0..N as u32).filter(|&i| driver.node(NodeId(i)).durable.stale);
    assert!(
        stale.count() > 0,
        "stale marking left every replica current"
    );
    let heavy: u64 = (0..N as u32)
        .map(|i| driver.node(NodeId(i)).stats.counter(keys::HEAVY_RUNS))
        .sum();
    assert_eq!(heavy, 0, "a serial operation ran the heavy pass");
}

/// The nodes `effects` send a permission request to, and its op.
fn asked(effects: &[Effect]) -> (NodeSet, OpId) {
    let mut nodes = NodeSet::new();
    let mut op = None;
    for effect in effects {
        if let Effect::Send {
            to,
            msg: Msg::ReadReq { op: o } | Msg::WriteReq { op: o },
            ..
        } = effect
        {
            nodes.insert(*to);
            op = Some(*o);
        }
    }
    (nodes, op.expect("a permission request went out"))
}

#[test]
fn an_empty_hint_asks_the_rules_seeded_quorum() {
    let rule = GridCoterie::new();
    let mut node = ReplicaNode::new(NodeId(4), config());
    node.vol.current = NodeSet::from_iter([NodeId(0)]);
    node.step(SimTime::ZERO, Input::Crash);
    assert!(node.vol.current.is_empty(), "a crash kept the hint");
    node.step(SimTime::ZERO, Input::Boot);
    let view = node.durable.epoch_view();
    let requests = [
        (ClientRequest::Read { id: 1 }, QuorumKind::Read),
        (write(2), QuorumKind::Write),
    ];
    for (request, kind) in requests {
        let (nodes, op) = asked(&node.step(SimTime::ZERO, Input::External(request)));
        let seed = quorum_seed(node.me, op.seq);
        assert_eq!(Some(nodes), rule.pick_quorum(&view, view.set(), seed, kind));
    }
}

/// Steps `nodes[at]` with `input` and delivers every message that follows,
/// at once and in order, firing no timer. Returns the outputs.
fn run(nodes: &mut [ReplicaNode], at: usize, input: Input) -> Vec<ProtocolEvent> {
    let mut queue: VecDeque<(usize, Effect)> = VecDeque::new();
    queue.extend(
        nodes[at]
            .step(SimTime::ZERO, input)
            .into_iter()
            .map(|e| (at, e)),
    );
    let mut outputs = Vec::new();
    while let Some((from, effect)) = queue.pop_front() {
        match effect {
            Effect::Send { to, msg, .. } => {
                let from = NodeId(from as u32);
                let input = Input::Deliver {
                    from,
                    msg,
                    lamport: 0,
                };
                let to = to.0 as usize;
                let effects = nodes[to].step(SimTime::ZERO, input);
                queue.extend(effects.into_iter().map(|e| (to, e)));
            }
            Effect::Output(event) => outputs.push(event),
            _ => {}
        }
    }
    outputs
}

#[test]
fn a_hint_naming_a_since_stale_replica_still_reads_the_latest_version() {
    let config = config();
    // Every replica holds version 1; node 0 coordinates the read.
    let mut base = Durable::pristine(&config);
    base.version = 1;
    let mut nodes: Vec<ReplicaNode> = (0..N as u32)
        .map(|i| {
            let mut node = ReplicaNode::new(NodeId(i), config.clone());
            node.install_durable(base.clone());
            node
        })
        .collect();
    let read = || Input::External(ClientRequest::Read { id: 1 });
    let quorum = |node: &ReplicaNode| asked(&node.clone().step(SimTime::ZERO, read())).0;
    // The hint names `x`, outside the seeded quorum, so node 0 asks another
    // quorum of its rotation, one with `x` in it.
    let outside = |q: NodeSet| (1..N as u32).map(NodeId).find(|n| !q.contains(*n));
    let x = outside(quorum(&nodes[0])).unwrap();
    nodes[0].vol.current = NodeSet::from_iter([x]);
    let chosen = quorum(&nodes[0]);
    assert!(chosen.contains(x), "{chosen:?} misses the hint {x:?}");
    // Since then `x` was marked stale by a write of version 2, which only
    // `y`, outside the chosen quorum, applied.
    let y = outside(chosen).unwrap();
    let mut marked = base.clone();
    (marked.stale, marked.dversion) = (true, 2);
    nodes[x.0 as usize].install_durable(marked);
    let mut latest = base;
    latest.version = 2;
    latest
        .object
        .apply(&PartialWrite::new([(0, Bytes::from_static(b"v2"))]));
    let digest = latest.object.digest();
    nodes[y.0 as usize].install_durable(latest);

    let outputs = run(&mut nodes, 0, read());
    let result = outputs.iter().find_map(|e| match e {
        ProtocolEvent::ReadOk {
            version, digest, ..
        } => Some((*version, *digest)),
        _ => None,
    });
    assert_eq!(result, Some((2, digest)), "{outputs:?}");
    assert_eq!(nodes[0].stats.counter(keys::HEAVY_RUNS), 1);
    assert_eq!(nodes[0].vol.current, NodeSet::from_iter([y]));
}
