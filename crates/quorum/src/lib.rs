//! # coterie-quorum
//!
//! Coterie rules over ordered node sets, as required by the dynamic
//! structured coterie protocol of Rabinovich & Lazowska (SIGMOD 1992,
//! "Improving Fault Tolerance and Supporting Partial Writes in Structured
//! Coterie Protocols for Replicated Objects").
//!
//! A *coterie* over a node set `V` is a pair of quorum families `(W, R)`
//! such that write quorums pairwise intersect and every read quorum
//! intersects every write quorum (§3 of the paper). A *coterie rule*
//! (the [`CoterieRule`] trait) derives such a coterie from **any** ordered
//! node set, which is what lets the protocol re-derive quorums over the
//! current epoch instead of a static network structure.
//!
//! Shipped rules:
//!
//! * [`GridCoterie`] — the paper's worked example (§5): nodes arranged in a
//!   rectangular grid via `DefineGrid`; read quorums cover every column,
//!   write quorums additionally contain a full (physical) column.
//! * [`MajorityCoterie`] — Gifford voting, unit votes, majority quorums.
//! * [`TreeCoterie`] — hierarchical quorum consensus (Kumar).
//! * [`RowaCoterie`] — read-one/write-all.
//!
//! The [`availability`] module supplies the closed forms used to reproduce
//! the static-grid column of the paper's Table 1.
//!
//! ```
//! use coterie_quorum::{CoterieRule, GridCoterie, NodeSet, QuorumKind, View};
//!
//! let rule = GridCoterie::new();
//! let epoch = View::first_n(9); // a 3 x 3 grid
//! let quorum = rule
//!     .pick_quorum(&epoch, epoch.set(), 42, QuorumKind::Write)
//!     .unwrap();
//! assert!(rule.is_write_quorum(&epoch, quorum));
//! assert_eq!(quorum.len(), 5); // 2 * sqrt(9) - 1
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod availability;
pub mod grid;
pub mod majority;
pub mod node;
pub mod plan;
pub mod rowa;
pub mod rule;
pub mod tree;

pub use grid::{GridCoterie, GridOrientation, GridShape};
pub use majority::MajorityCoterie;
pub use node::{NodeId, NodeSet, View, MAX_NODES};
pub use plan::{PlanCache, QuorumPlan};
pub use rowa::RowaCoterie;
pub use rule::{quorum_seed, CoterieRule, QuorumKind};
pub use tree::TreeCoterie;
