//! # coterie-simnet
//!
//! A deterministic discrete-event simulator for fail-stop distributed
//! systems, providing the substrate the paper assumes in §3:
//!
//! * RPC-style communication "in which the notification `RPC.CallFailed` is
//!   returned to the sender if the message cannot be delivered";
//! * fail-stop nodes (crash, no Byzantine behaviour) with durable state
//!   surviving crashes and volatile state wiped;
//! * network partitions;
//! * timers, and a seeded RNG so every run is reproducible.
//!
//! Nodes implement the [`Application`] trait; the harness schedules client
//! operations, crashes, recoveries and partition changes on the [`Sim`].
//!
//! ```
//! use coterie_simnet::{Application, Ctx, Sim, SimConfig, SimDuration};
//! use coterie_quorum::NodeId;
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
//! let mut sim = Sim::new(2, SimConfig::default(), |_| Echo);
//! sim.schedule_external(coterie_simnet::SimTime::ZERO, NodeId(0), "1".into());
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.take_outputs().len(), 1);
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod app;
pub mod network;
pub mod sim;
pub mod threaded;
pub mod time;

pub use app::{Application, Ctx, TimerId};
pub use network::{NetConfig, NetCounters, Partition};
pub use sim::{NodeStatus, Sim, SimConfig};
pub use threaded::ThreadedRuntime;
pub use time::{SimDuration, SimTime};

// Re-export the node identifier type for convenience.
pub use coterie_quorum::NodeId;
