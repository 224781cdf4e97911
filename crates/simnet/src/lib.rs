//! # coterie-simnet
//!
//! A real-thread runtime for fail-stop distributed systems, providing the
//! substrate the paper assumes in §3 on OS threads and the wall clock:
//!
//! * RPC-style communication "in which the notification `RPC.CallFailed` is
//!   returned to the sender if the message cannot be delivered";
//! * fail-stop nodes (crash, no Byzantine behaviour) with durable state
//!   surviving crashes and volatile state wiped;
//! * timers with cancellation, kept by each node's own thread: a due timer
//!   fires ahead of the node's next inbox message.
//!
//! Nodes implement the [`Application`] trait; the caller injects client
//! operations, crashes and recoveries through the [`ThreadedRuntime`]
//! handle. Runs are not reproducible: the deterministic simulator is
//! `coterie_core::StepDriver`.
//!
//! ```
//! use coterie_simnet::{Application, Ctx, NodeId, ThreadedRuntime};
//! use std::time::Duration;
//!
//! struct Echo;
//! impl Application for Echo {
//!     type Msg = String;
//!     type Timer = ();
//!     type External = String;
//!     type Output = String;
//!     fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}
//!     fn on_crash(&mut self) {}
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: String) {
//!         if msg.starts_with("ping") {
//!             ctx.send(from, format!("pong from {}", ctx.me()));
//!         } else {
//!             ctx.output(msg);
//!         }
//!     }
//!     fn on_call_failed(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: String) {}
//!     fn on_timer(&mut self, _: &mut Ctx<'_, Self>, _: ()) {}
//!     fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, target: String) {
//!         let to = NodeId(target.parse().unwrap());
//!         ctx.send(to, "ping".into());
//!     }
//! }
//!
//! let rt = ThreadedRuntime::spawn(2, 0, Duration::from_millis(20), |_| Echo);
//! rt.inject(NodeId(0), "1".into());
//! let (node, out) = rt.recv_output(Duration::from_secs(5)).unwrap();
//! assert_eq!((node, out.starts_with("pong")), (NodeId(0), true));
//! rt.shutdown();
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod app;
pub mod threaded;
pub mod time;

pub use app::{Application, Ctx, TimerId};
pub use threaded::ThreadedRuntime;
pub use time::{SimDuration, SimTime};

// Re-export the node identifier type for convenience.
pub use coterie_quorum::NodeId;
