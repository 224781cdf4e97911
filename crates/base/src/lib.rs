//! # coterie-base
//!
//! Substrate-free vocabulary shared by the sans-I/O protocol engine
//! (`coterie-core`'s `engine` layer) and every host that drives it (the
//! discrete-event simulator, the threaded runtime, the step driver).
//!
//! The engine never reads a clock: hosts *tell* it the time with every
//! input, and it hands timer requests back as effects. These newtypes are
//! the currency of that contract, so they live below both the engine and
//! the hosts — this crate depends on nothing.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod time;

pub use time::{SimDuration, SimTime};

/// Identifier of a pending timer.
///
/// The sans-I/O engine allocates these from a per-node monotonic counter,
/// so an id is unique *per node*; hosts that multiplex many nodes must key
/// cancellation state by `(node, id)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);
