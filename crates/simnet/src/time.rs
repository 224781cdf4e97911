//! Time for the runtime, in the engine's units.
//!
//! The types themselves live in [`coterie_base`] so that the sans-I/O
//! protocol engine can speak about time without depending on this
//! runtime; this module re-exports them under their historical paths.

pub use coterie_base::{SimDuration, SimTime};
