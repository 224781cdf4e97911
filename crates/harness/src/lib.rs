//! # coterie-harness
//!
//! Experiment infrastructure for the dynamic structured coterie
//! reproduction: the §6 site-model Monte Carlo ([`sitemodel`]), a
//! full-protocol scenario runner over the step driver's modelled network
//! ([`scenario`]), Poisson workload and fault generators ([`workload`],
//! [`faults`]), a one-copy-serializability checker ([`checker`]), metrics
//! ([`metrics`]), report rendering ([`report`]), the nemesis storage-fault
//! soak ([`nemesis`]), and the per-experiment drivers ([`experiments`])
//! that regenerate every table and figure of the paper (see EXPERIMENTS.md
//! at the repository root).

pub mod checker;
pub mod experiments;
pub mod explore;
pub mod faults;
pub mod metrics;
pub mod nemesis;
pub mod report;
pub mod scenario;
pub mod sitemodel;
pub mod workload;

pub use checker::{check_run, CheckReport, Violation};
pub use explore::{explore, ExploreReport, ExplorerConfig};
pub use faults::{FaultConfig, FaultEvent, FaultPlan};
pub use metrics::LoadStats;
pub use nemesis::{run_nemesis, soak, NemesisConfig, NemesisRun};
pub use report::{sci, Table};
pub use scenario::{run_scenario, Scenario, ScenarioResult};
pub use sitemodel::{
    replicated_unavailability, simulate, AvailabilityEstimate, EpochDynamics, SiteModelConfig,
};
pub use workload::{IssuedOp, Workload, WorkloadConfig};
