//! # coterie-simnet
//!
//! A real-thread runtime for fail-stop distributed systems: the paper's §3
//! substrate on OS threads and the wall clock. Messages are RPC-style, "in
//! which the notification `RPC.CallFailed` is returned to the sender if the
//! message cannot be delivered"; a crash keeps durable state and wipes
//! volatile state; timers can be cancelled.
//!
//! Nodes implement [`Node`]: worker threads, and a caller waiting for an
//! output, step them on [`Event`]s and apply the [`Effect`]s they return; a
//! step that blocks does so inside [`blocking`]. The caller injects client
//! operations, crashes and recoveries through the [`ThreadedRuntime`] handle.
//! Runs are not reproducible: the deterministic simulator is `coterie_core::StepDriver`.
//!
//! ```
//! use coterie_simnet::{Effect, Event, Node, NodeId, SimTime, ThreadedRuntime};
//! use std::time::Duration;
//!
//! struct Echo; // answers a ping (`true`) with a pong
//! impl Node for Echo {
//!     type Msg = bool;
//!     type Timer = ();
//!     type External = NodeId; // ping this node
//!     type Output = NodeId; // a pong came from this node
//!     fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
//!         match event {
//!             Event::External(to) => vec![Effect::Send { to, msg: true }],
//!             Event::Message { from: to, msg: true } => vec![Effect::Send { to, msg: false }],
//!             Event::Message { from, .. } => vec![Effect::Output(from)],
//!             _ => Vec::new(),
//!         }
//!     }
//! }
//!
//! let rt = ThreadedRuntime::spawn(2, 0, Duration::from_millis(20), |_| Echo);
//! rt.inject(NodeId(0), NodeId(1));
//! assert_eq!(rt.recv_output(Duration::from_secs(5)), Some((NodeId(0), NodeId(1))));
//! rt.shutdown();
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod node;
pub mod threaded;

pub use coterie_base::{SimDuration, SimTime, TimerId};
pub use coterie_quorum::NodeId;
pub use node::{Effect, Event, Node};
pub use threaded::{blocking, ThreadedRuntime};
