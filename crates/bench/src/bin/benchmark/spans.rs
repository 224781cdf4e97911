//! The benchmark's own spans (traced pass only): one per client request
//! and one per call into the program, kept in memory and written as JSONL
//! when the run ends. See README.md, "Reading the spans file".

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use coterie_core::{Msg, MsgClass, OpId, Timer};

/// What a call into the program was for: the delivered message's
/// `MsgClass`, or the kind of input. Also the layer names of
/// `core.step_ns.*`.
pub const CALL_KINDS: [&str; 9] = [
    "permission",
    "commit",
    "fetch",
    "propagation",
    "epoch_check",
    "timer",
    "inject",
    "crash",
    "recover",
];

/// Index of a message class in [`CALL_KINDS`].
pub fn class_kind(class: MsgClass) -> usize {
    match class {
        MsgClass::Permission => 0,
        MsgClass::Commit => 1,
        MsgClass::Fetch => 2,
        MsgClass::Propagation => 3,
        MsgClass::EpochCheck => 4,
    }
}

/// [`CALL_KINDS`] index of a timer firing.
pub const KIND_TIMER: usize = 5;
/// [`CALL_KINDS`] index of a client request injection.
pub const KIND_INJECT: usize = 6;
/// [`CALL_KINDS`] index of a crash.
pub const KIND_CRASH: usize = 7;
/// [`CALL_KINDS`] index of a recovery.
pub const KIND_RECOVER: usize = 8;

/// One call into the program.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    /// Index into [`CALL_KINDS`].
    pub kind: usize,
    /// The node stepped.
    pub node: u32,
    /// Client request that caused the call (0 = none known).
    pub parent: u64,
    /// Host clock at the call, µs (virtual on the virtual host).
    pub at_us: u64,
    /// Wall clock around the call, ns since the tracer started.
    pub wall_start_ns: u64,
    /// See `wall_start_ns`.
    pub wall_end_ns: u64,
}

/// One client request, issue to completion.
#[derive(Clone, Copy, Debug)]
pub struct RequestSpan {
    /// Client request id.
    pub id: u64,
    /// True for writes.
    pub write: bool,
    /// False when the protocol gave up or the run ended first.
    pub ok: bool,
    /// Coordinating node.
    pub node: u32,
    /// Host clock at issue and completion, µs.
    pub start_us: u64,
    /// See `start_us`.
    pub end_us: u64,
    /// Wall clock at issue and completion, ns since the tracer started.
    pub wall_start_ns: u64,
    /// See `wall_start_ns`.
    pub wall_end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    /// Calls into the program, in call order.
    pub calls: Vec<CallSpan>,
    /// Finished client requests.
    pub requests: Vec<RequestSpan>,
    /// Protocol operation → the client request it works for. An `OpId` is
    /// attributed when it is first seen leaving a call that already has a
    /// parent (the request's own `inject` to begin with).
    parents: BTreeMap<OpId, u64>,
}

impl Tracer {
    /// An empty recorder; its wall clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            calls: Vec::new(),
            requests: Vec::new(),
            parents: BTreeMap::new(),
        }
    }

    /// Wall nanoseconds since the tracer started.
    pub fn wall_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The request a message works for, if its operation is known.
    pub fn parent_of_msg(&self, msg: &Msg) -> u64 {
        op_of_msg(msg)
            .and_then(|op| self.parents.get(&op).copied())
            .unwrap_or(0)
    }

    /// The request a timer works for, if known.
    pub fn parent_of_timer(&self, timer: &Timer) -> u64 {
        let op = match timer {
            Timer::RetryClient { request, .. } => {
                return match request {
                    coterie_core::ClientRequest::Read { id }
                    | coterie_core::ClientRequest::Write { id, .. } => *id,
                }
            }
            Timer::Collect { op }
            | Timer::Votes { op }
            | Timer::Fetch { op }
            | Timer::LockLease { op }
            | Timer::DecisionRetry { op } => *op,
            Timer::PropTimeout { prop } | Timer::PropLease { prop } => *prop,
            Timer::ElectionTimeout { round } => *round,
            // Node-level housekeeping timers work for no one request.
            _ => return 0,
        };
        self.parents.get(&op).copied().unwrap_or(0)
    }

    /// Attributes the operations of messages emitted by a call with a
    /// known parent.
    pub fn adopt<'a>(&mut self, parent: u64, emitted: impl Iterator<Item = &'a Msg>) {
        if parent == 0 {
            return;
        }
        for msg in emitted {
            if let Some(op) = op_of_msg(msg) {
                self.parents.entry(op).or_insert(parent);
            }
        }
    }

    /// Renders every span as one JSON object per line: requests first,
    /// then calls, each in recording order.
    pub fn render_jsonl(&self, clock: &str) -> String {
        let mut out = String::with_capacity(128 * (self.calls.len() + self.requests.len()));
        for r in &self.requests {
            let _ = writeln!(
                out,
                "{{\"span\":\"request\",\"id\":{},\"name\":\"{}\",\"ok\":{},\"node\":{},\
                 \"clock\":\"{clock}\",\"start_us\":{},\"end_us\":{},\
                 \"wall_start_ns\":{},\"wall_end_ns\":{}}}",
                r.id,
                if r.write { "write" } else { "read" },
                r.ok,
                r.node,
                r.start_us,
                r.end_us,
                r.wall_start_ns,
                r.wall_end_ns
            );
        }
        for c in &self.calls {
            let _ = write!(
                out,
                "{{\"span\":\"call\",\"name\":\"{}\",\"node\":{},\"parent\":",
                CALL_KINDS[c.kind], c.node
            );
            if c.parent == 0 {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", c.parent);
            }
            let _ = writeln!(
                out,
                ",\"at_us\":{},\"wall_start_ns\":{},\"wall_end_ns\":{}}}",
                c.at_us, c.wall_start_ns, c.wall_end_ns
            );
        }
        out
    }

    /// Wall self time of every finished request, ns: its wall duration
    /// minus the union of its child calls' wall intervals (what remains is
    /// time the request spent waiting — for message delay on the live
    /// host, for other requests' work on the single-threaded virtual one).
    pub fn request_self_ns(&self) -> Vec<u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for c in self.calls.iter().filter(|c| c.parent != 0) {
            children
                .entry(c.parent)
                .or_default()
                .push((c.wall_start_ns, c.wall_end_ns));
        }
        self.requests
            .iter()
            .map(|r| {
                let mut covered = 0u64;
                let mut reach = r.wall_start_ns;
                let mut spans = children.remove(&r.id).unwrap_or_default();
                spans.sort_unstable();
                for (s, e) in spans {
                    let s = s.max(reach);
                    let e = e.min(r.wall_end_ns);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                (r.wall_end_ns - r.wall_start_ns).saturating_sub(covered)
            })
            .collect()
    }
}

/// The protocol operation a message belongs to.
fn op_of_msg(msg: &Msg) -> Option<OpId> {
    match msg {
        Msg::WriteReq { op }
        | Msg::ReadReq { op }
        | Msg::EpochCheckReq { op }
        | Msg::StateResp { op, .. }
        | Msg::Release { op }
        | Msg::Prepare { op, .. }
        | Msg::Vote { op, .. }
        | Msg::Decision { op, .. }
        | Msg::DecisionQuery { op }
        | Msg::FetchReq { op }
        | Msg::FetchResp { op, .. }
        | Msg::RejoinQuery { op }
        | Msg::RejoinInfo { op, .. } => Some(*op),
        Msg::PropOffer { prop, .. }
        | Msg::PropResp { prop, .. }
        | Msg::PropData { prop, .. }
        | Msg::PropAck { prop, .. }
        | Msg::PropCancel { prop } => Some(*prop),
        Msg::Election { round } | Msg::ElectionAlive { round } => Some(*round),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.requests.push(RequestSpan {
            id: 7,
            write: true,
            ok: true,
            node: 0,
            start_us: 0,
            end_us: 400,
            wall_start_ns: 100,
            wall_end_ns: 1_100,
        });
        for (s, e) in [(150, 250), (200, 300), (900, 1_200)] {
            t.calls.push(CallSpan {
                kind: 0,
                node: 1,
                parent: 7,
                at_us: 0,
                wall_start_ns: s,
                wall_end_ns: e,
            });
        }
        // Union inside the request: [150,300) and [900,1100) = 350 ns.
        assert_eq!(t.request_self_ns(), vec![1_000 - 350]);
        assert_eq!(t.render_jsonl("virtual").lines().count(), 4);
    }
}
