//! # coterie-simnet
//!
//! A real-thread runtime for fail-stop distributed systems: the paper's §3
//! substrate on OS threads and the wall clock. Messages are RPC-style, "in
//! which the notification `RPC.CallFailed` is returned to the sender if the
//! message cannot be delivered"; a crash keeps durable state and wipes
//! volatile state; timers can be cancelled.
//!
//! Nodes implement [`Node`]: the runtime steps them on a shared pool of
//! worker threads, feeding each [`Event`]s and applying the [`Effect`]s it
//! returns. The caller injects client operations, crashes and recoveries
//! through the [`ThreadedRuntime`] handle. Runs are not reproducible: the
//! deterministic simulator is `coterie_core::StepDriver`.
//!
//! ```
//! use coterie_simnet::{Effect, Event, Node, NodeId, SimTime, ThreadedRuntime};
//! use std::time::Duration;
//!
//! struct Echo(NodeId);
//! impl Node for Echo {
//!     type Msg = String;
//!     type Timer = ();
//!     type External = NodeId;
//!     type Output = String;
//!     fn step(&mut self, _now: SimTime, event: Event<Self>) -> Vec<Effect<Self>> {
//!         match event {
//!             Event::External(to) => vec![Effect::Send { to, msg: "ping".into() }],
//!             Event::Message { from, msg } if msg == "ping" => {
//!                 let msg = format!("pong from {}", self.0);
//!                 vec![Effect::Send { to: from, msg }]
//!             }
//!             Event::Message { msg, .. } => vec![Effect::Output(msg)],
//!             _ => Vec::new(),
//!         }
//!     }
//! }
//!
//! let rt = ThreadedRuntime::spawn(2, 0, Duration::from_millis(20), Echo);
//! rt.inject(NodeId(0), NodeId(1));
//! let (node, out) = rt.recv_output(Duration::from_secs(5)).unwrap();
//! assert_eq!((node, out.starts_with("pong")), (NodeId(0), true));
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
pub use threaded::ThreadedRuntime;
