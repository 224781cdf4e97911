//! # dyncoterie
//!
//! Facade crate for the reproduction of Rabinovich & Lazowska, *"Improving
//! Fault Tolerance and Supporting Partial Writes in Structured Coterie
//! Protocols for Replicated Objects"* (SIGMOD 1992).
//!
//! Re-exports the workspace crates:
//!
//! * [`quorum`] — coterie rules (grid, majority, tree, ROWA).
//! * [`simnet`] — the real-thread runtime (the deterministic simulator is
//!   [`protocol::StepDriver`]).
//! * [`protocol`] — the dynamic epoch protocol with partial writes and the
//!   static baselines.
//! * [`markov`] — continuous-time Markov chains and the availability models.
//! * [`harness`] — workloads, fault injection, metrics, experiments.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and DESIGN.md for
//! the system inventory.

pub use coterie_core as protocol;
pub use coterie_harness as harness;
pub use coterie_markov as markov;
pub use coterie_quorum as quorum;
pub use coterie_simnet as simnet;
