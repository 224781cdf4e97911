//! The sans-I/O protocol engine.
//!
//! This layer is the entire protocol of the paper — write, read,
//! propagation, and epoch checking — packaged as a **pure deterministic
//! state machine**. A replica consumes [`Input`] events and returns a
//! `Vec<`[`Effect`]`>`; it never touches a clock, an RNG source, a network
//! socket, or a disk:
//!
//! * **time** is told to the engine with every
//!   [`ReplicaNode::step`](crate::node::ReplicaNode::step) call;
//! * **randomness** (retry jitter, propagation staggering) comes from an
//!   engine-owned [`Rng64`] seeded from
//!   [`ProtocolConfig::seed`](crate::config::ProtocolConfig::seed), so it is
//!   part of the state machine, not an ambient source;
//! * **transport, timers, durability** are requested as effects and applied
//!   by whatever host embeds the engine — the threaded runtime (via the
//!   `simnet-host` feature) or the substrate-free [`StepDriver`].
//!
//! **Determinism guarantee:** two `ReplicaNode`s constructed with the same
//! `(NodeId, ProtocolConfig)` and fed the same sequence of `(now, Input)`
//! pairs return byte-identical effect sequences and end in identical
//! states. Everything observable flows through `step`.
//!
//! Durable state (the paper's §4 per-node tuple plus the 2PC artifacts)
//! additionally travels through [`Effect::Persist`]: whenever a step
//! changes [`Durable`](crate::durable::Durable), the engine prepends the
//! [`DurableDelta`](crate::durable::DurableDelta) its named transitions
//! recorded — an epoch installation is one atomic delta, as in the paper.
//! Journaling hosts run the engine behind the one effect interpreter
//! (`interp.rs`, crate-private), which commits deltas to a
//! [`FramedJournal`] before releasing the effects they govern and
//! reconstructs `Durable` from checked replay after a crash; hosts only say
//! where the other four effects land.

pub mod codec;
pub mod ctx;
pub mod driver;
pub mod failpoint;
pub(crate) mod interp;
pub mod io;
pub mod metrics;
pub mod rng;
pub mod step;
pub mod storage;
pub mod trace;

pub use codec::{crc32, decode_delta, encode_delta, DecodeError};
pub use coterie_base::{SimDuration, SimTime, TimerId};
pub use ctx::NodeCtx;
pub use driver::{DriverEvent, StepDriver};
pub use failpoint::{Failpoints, FaultKind, FiredFault};
pub use io::{Effect, Input};
pub use metrics::{keys, Histogram, MetricsRegistry};
pub use rng::Rng64;
pub use storage::{FramedJournal, FramedReplay, QuarantineReason, ReplayVerdict};
pub use trace::{causal_merge, render_jsonl, ReplayClass, TraceEvent, TraceRecord, TraceRing};
