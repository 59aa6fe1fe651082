//! The strategy registry: every execution strategy the paper evaluates,
//! each with exactly one way to run it.

use crate::{
    run_fusion, run_kepler, run_pegasus, run_serverless_only, run_traditional,
    run_traditional_tuned,
};
use mashup_core::{
    plan_without_pdc, try_execute_traced, AnalysisError, Mashup, MashupConfig, PlanCache, Tracer,
    WorkflowReport,
};
use mashup_dag::Workflow;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Every execution strategy the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Plain all-VM phase-ordered execution.
    Traditional,
    /// All-VM with the paper's sub-cluster-split strengthening.
    TraditionalTuned,
    /// Everything on FaaS with checkpointing.
    ServerlessOnly,
    /// Costless-like greedy function fusion, then everything on FaaS.
    Fusion,
    /// Pegasus-like: task clustering + data reuse on VMs.
    Pegasus,
    /// Kepler-like: dataflow-fired pipelining on VMs.
    Kepler,
    /// Hybrid with the component-count threshold (no profiling).
    MashupWithoutPdc,
    /// The full system: PDC profiling + hybrid execution.
    Mashup,
}

impl Strategy {
    /// All strategies in presentation order.
    pub const ALL: [Strategy; 8] = [
        Strategy::Traditional,
        Strategy::TraditionalTuned,
        Strategy::ServerlessOnly,
        Strategy::Fusion,
        Strategy::Pegasus,
        Strategy::Kepler,
        Strategy::MashupWithoutPdc,
        Strategy::Mashup,
    ];

    /// Short display label; also names the harness's trace files.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Traditional => "traditional",
            Strategy::TraditionalTuned => "traditional-tuned",
            Strategy::ServerlessOnly => "serverless-only",
            Strategy::Fusion => "fusion",
            Strategy::Pegasus => "pegasus",
            Strategy::Kepler => "kepler",
            Strategy::MashupWithoutPdc => "mashup-wo-pdc",
            Strategy::Mashup => "mashup",
        }
    }

    /// The name `mashup run|trace|chaos --strategy` accepts, for the
    /// strategies the command line exposes.
    pub fn cli_name(&self) -> Option<&'static str> {
        match self {
            Strategy::Mashup => Some("mashup"),
            Strategy::MashupWithoutPdc => Some("wo-pdc"),
            Strategy::TraditionalTuned => Some("traditional"),
            Strategy::ServerlessOnly => Some("serverless"),
            Strategy::Pegasus => Some("pegasus"),
            Strategy::Kepler => Some("kepler"),
            Strategy::Traditional | Strategy::Fusion => None,
        }
    }

    /// The strategy whose [`cli_name`](Strategy::cli_name) is `name`.
    pub fn from_cli_name(name: &str) -> Option<Strategy> {
        Strategy::ALL
            .into_iter()
            .find(|s| s.cli_name() == Some(name))
    }

    /// Runs the strategy on `workflow` under `cfg`, recording the execution
    /// into `tracer` (pass [`Tracer::off`] for an unrecorded run). `cache`
    /// memoizes the PDC's profiling stages; only [`Strategy::Mashup`]
    /// plans with the PDC, so the others ignore it.
    pub fn run(
        self,
        cfg: &MashupConfig,
        workflow: &Workflow,
        tracer: &Tracer,
        cache: Option<Arc<PlanCache>>,
    ) -> Result<WorkflowReport, AnalysisError> {
        match self {
            Strategy::Traditional => run_traditional(cfg, workflow, tracer),
            Strategy::TraditionalTuned => run_traditional_tuned(cfg, workflow, tracer),
            Strategy::ServerlessOnly => run_serverless_only(cfg, workflow, tracer),
            Strategy::Fusion => run_fusion(cfg, workflow, tracer),
            Strategy::Pegasus => run_pegasus(cfg, workflow, tracer),
            Strategy::Kepler => run_kepler(cfg, workflow, tracer),
            Strategy::MashupWithoutPdc => {
                let plan = plan_without_pdc(cfg, workflow);
                try_execute_traced(cfg, workflow, &plan, self.label(), tracer)
            }
            Strategy::Mashup => {
                let mut engine = Mashup::new(cfg.clone()).with_tracer(tracer.clone());
                if let Some(cache) = cache {
                    engine = engine.with_cache(cache);
                }
                Ok(engine.try_run(workflow)?.report)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_core::Platform;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};
    use std::collections::BTreeSet;

    #[test]
    fn labels_are_unique() {
        let labels: BTreeSet<&str> = Strategy::ALL.iter().map(Strategy::label).collect();
        assert_eq!(labels.len(), Strategy::ALL.len());
    }

    #[test]
    fn every_cli_name_maps_back_to_its_own_variant() {
        let mut named = 0;
        for s in Strategy::ALL {
            if let Some(name) = s.cli_name() {
                assert_eq!(Strategy::from_cli_name(name), Some(s), "{name}");
                named += 1;
            }
        }
        assert_eq!(named, 6);
        assert_eq!(Strategy::from_cli_name("fusion"), None);
        assert_eq!(Strategy::from_cli_name("bogus"), None);
    }

    #[test]
    fn all_lists_each_variant_once() {
        // Exhaustive, so a new variant cannot compile until it has a slot.
        let slot = |s: Strategy| match s {
            Strategy::Traditional => 0,
            Strategy::TraditionalTuned => 1,
            Strategy::ServerlessOnly => 2,
            Strategy::Fusion => 3,
            Strategy::Pegasus => 4,
            Strategy::Kepler => 5,
            Strategy::MashupWithoutPdc => 6,
            Strategy::Mashup => 7,
        };
        let slots: Vec<usize> = Strategy::ALL.into_iter().map(slot).collect();
        assert_eq!(slots, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn without_pdc_uses_threshold_plan() {
        let mut b = WorkflowBuilder::new("mix");
        b.initial_input_bytes(1.0e9);
        b.begin_phase();
        let wide = b.add_task(Task::new(
            "wide",
            128,
            TaskProfile::trivial().compute(8.0).io(1e6, 1e6),
        ));
        b.begin_phase();
        let merge = b.add_task(Task::new(
            "merge",
            1,
            TaskProfile::trivial()
                .compute(60.0)
                .slowdown(1.3)
                .io(1.28e8, 1e6),
        ));
        b.depend(merge, wide, DependencyPattern::AllToAll);
        let w = b.build().expect("valid");
        let report = Strategy::MashupWithoutPdc
            .run(&MashupConfig::aws(2), &w, &Tracer::off(), None)
            .unwrap();
        assert_eq!(report.strategy, "mashup-wo-pdc");
        assert_eq!(report.task("wide").unwrap().platform, Platform::Serverless);
        assert_eq!(report.task("merge").unwrap().platform, Platform::VmCluster);
    }
}
