//! # coterie-core
//!
//! The dynamic structured coterie protocol of Rabinovich & Lazowska
//! (SIGMOD 1992, "Improving Fault Tolerance and Supporting Partial Writes
//! in Structured Coterie Protocols for Replicated Objects").
//!
//! Every replica runs a [`ReplicaNode`], a **sans-I/O state machine**
//! (see [`engine`]) that implements:
//!
//! * the **write protocol** (§4.1): quorum permission over the current
//!   epoch, the common light path, `HeavyProcedure` when the light quorum
//!   fails, stale marking with desired version numbers, and two-phase
//!   commit;
//! * the **read protocol**: shared-lock quorum, current-replica selection
//!   honoring desired version numbers, in one round trip (the grants
//!   carry the data);
//! * the **propagation protocol** (§4.2): asynchronous catch-up of stale
//!   replicas by log shipping or snapshots, with the three-way offer
//!   handshake;
//! * the **epoch checking protocol** (§4.3): periodic all-replica polls that
//!   atomically re-form the epoch around failures and repairs — this is
//!   what makes a structured coterie protocol *dynamic*;
//! * the **static baselines**: the conventional static protocol
//!   ([`Mode::Static`]) and the conventional partial-write discipline
//!   ([`WriteMode::WriteAllCurrent`]) the paper compares against.
//!
//! The protocol is generic over the coterie rule: plugging in
//! [`coterie_quorum::GridCoterie`] yields the paper's *dynamic grid
//! protocol*; [`coterie_quorum::MajorityCoterie`] yields dynamic voting.
//!
//! The engine consumes [`Input`]s and emits [`Effect`]s; hosts apply them
//! to a substrate. The [`StepDriver`] below is the substrate-free host
//! and the simulator (the `simnet-host` feature adds `JournaledNode`, the
//! adapter for the threaded runtime):
//!
//! ```
//! use coterie_core::{ClientRequest, PartialWrite, ProtocolConfig, StepDriver};
//! use coterie_base::SimDuration;
//! use coterie_quorum::{GridCoterie, NodeId};
//! use std::sync::Arc;
//!
//! let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
//! let mut driver = StepDriver::new(9, config);
//! driver.inject(
//!     NodeId(0),
//!     ClientRequest::Write {
//!         id: 1,
//!         write: PartialWrite::new([(0, bytes::Bytes::from_static(b"hello"))]),
//!     },
//! );
//! driver.run_for(SimDuration::from_secs(1));
//! assert!(driver
//!     .outputs()
//!     .iter()
//!     .any(|(_, _, e)| matches!(e, coterie_core::ProtocolEvent::WriteOk { .. })));
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::dbg_macro))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod classify;
pub mod config;
pub mod coord;
pub mod durable;
pub mod engine;
pub mod epoch;
#[cfg(feature = "simnet-host")]
pub mod host;
pub mod locks;
pub mod msg;
pub mod node;
pub mod propagate;
pub mod read;
pub mod rejoin;
pub mod server;
pub mod store;
pub mod write;

pub use classify::Classified;
pub use config::{Mode, ProtocolConfig, WriteMode};
pub use durable::{Durable, DurableCell, DurableDelta};
pub use engine::driver::{Envelope, PendingTimer};
pub use engine::{
    causal_merge, keys, render_jsonl, DriverEvent, Effect, Failpoints, FaultKind, FiredFault,
    FramedJournal, FramedReplay, Histogram, Input, MetricsRegistry, NodeCtx, QuarantineReason,
    ReplayClass, ReplayVerdict, Rng64, StepDriver, TraceEvent, TraceRecord, TraceRing,
};
#[cfg(feature = "simnet-host")]
pub use host::{JournaledNode, WireMsg};
pub use locks::ReplicaLock;
pub use msg::{
    Action, ClientRequest, FailReason, Msg, MsgClass, OpId, PropPayload, PropReply, ProtocolEvent,
    StateTuple,
};
pub use node::{ReplicaNode, Timer, Volatile};
pub use rejoin::RejoinState;
pub use store::{LogDelta, LogEntry, PageId, PagedObject, Pages, PartialWrite, WriteLog};
