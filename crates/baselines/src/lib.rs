//! # mashup-baselines
//!
//! The competing techniques of the paper's §4, implemented on the same
//! simulated substrates as Mashup:
//!
//! * [`run_traditional`] / [`run_traditional_tuned`] — the traditional
//!   VM-cluster execution (the latter with the paper's sub-cluster-split
//!   strengthening);
//! * [`run_serverless_only`] — everything on FaaS with checkpointing;
//! * [`run_pegasus`] — Pegasus-like: task clustering + data reuse on VMs;
//! * [`run_kepler`] — Kepler-like: dataflow-fired task pipelining on VMs;
//! * [`run_fusion`] — Costless-like: greedy function fusion to a fixpoint
//!   ([`maximal_fusion`]), then everything on FaaS.
//!
//! Each baseline is one function that records its execution into a
//! [`mashup_core::Tracer`] flight recorder (pass `Tracer::off()` for an
//! unrecorded run; the report is byte-identical either way) and returns the
//! same [`mashup_core::WorkflowReport`] as Mashup, or the analyzer's typed
//! refusal. [`Strategy`] registers every baseline together with Mashup and
//! Mashup without the PDC, so callers run any of them the same way.

#![warn(missing_docs)]

mod fusion;
mod kepler;
mod pegasus;
mod serverless_only;
mod strategy;
mod traditional;

pub use fusion::{maximal_fusion, run_fusion};
pub use kepler::run_kepler;
pub use pegasus::{cluster_tasks, run_pegasus};
pub use serverless_only::run_serverless_only;
pub use strategy::Strategy;
pub use traditional::{run_traditional, run_traditional_tuned};
