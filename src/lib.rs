//! # mashup
//!
//! Facade crate for the Mashup reproduction — *"Mashup: Making Serverless
//! Computing Useful for HPC Workflows via Hybrid Execution"* (PPoPP '22).
//!
//! Re-exports the public API of every workspace crate under one roof:
//!
//! * [`dag`] — workflow DAG model (components, tasks, phases, patterns);
//! * [`workflows`] — the paper's 1000Genome, SRAsearch, and Epigenomics;
//! * [`cloud`] — simulated VM cluster, FaaS platform, and object store;
//! * [`analyze`] — static workflow/plan/config diagnostics (M-codes);
//! * [`engine`] — the Mashup engine: PDC + hybrid executor;
//! * [`baselines`] — traditional cluster, serverless-only, Pegasus-like,
//!   Kepler-like, Costless-like fusion, and the [`baselines::Strategy`]
//!   registry that runs any of them, or Mashup, the same way;
//! * [`local`] — the real thread-based execution backend;
//! * [`serve`] — the multi-tenant planning service, shared worker pool,
//!   and closed-loop load-test harness;
//! * [`sim`] — the discrete-event substrate.
//!
//! ```
//! use mashup::prelude::*;
//!
//! let workflow = mashup::workflows::srasearch::workflow();
//! let cfg = MashupConfig::aws(4);
//! let outcome = Mashup::new(cfg.clone()).try_run(&workflow)?;
//! let baseline = run_traditional(&cfg, &workflow, &Tracer::off())?;
//! assert!(outcome.report.makespan_secs < baseline.makespan_secs);
//! # Ok::<(), AnalysisError>(())
//! ```

#![warn(missing_docs)]

pub use mashup_analyze as analyze;
pub use mashup_baselines as baselines;
pub use mashup_cloud as cloud;
pub use mashup_core as engine;
pub use mashup_dag as dag;
pub use mashup_local as local;
pub use mashup_serve as serve;
pub use mashup_sim as sim;
pub use mashup_workflows as workflows;

/// The most commonly used items in one import.
pub mod prelude {
    pub use mashup_analyze::{render_pretty, AnalysisError, Diagnostic};
    pub use mashup_baselines::{
        run_kepler, run_pegasus, run_serverless_only, run_traditional, run_traditional_tuned,
        Strategy,
    };
    pub use mashup_cloud::{Fault, FaultPlan, FaultProfile};
    pub use mashup_core::{
        improvement_pct, ChaosSpec, Mashup, MashupConfig, MashupOutcome, Objective, Pdc,
        PlacementPlan, Platform, TraceEvent, TraceRecord, Tracer, WorkflowReport,
    };
    pub use mashup_dag::{
        DependencyPattern, Task, TaskProfile, TaskRef, Workflow, WorkflowBuilder,
    };
    pub use mashup_workflows::{epigenomics, genome1000, srasearch};
}
