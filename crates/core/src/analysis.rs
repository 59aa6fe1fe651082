//! Engine-side wiring of the `mashup-analyze` diagnostics.
//!
//! [`preflight`] runs every applicable check family over an input bundle
//! and refuses error-diagnosed inputs with a typed [`AnalysisError`] —
//! turning what used to be panics deep inside the simulator into an
//! up-front, fully-enumerated report. Analysis is read-only: it draws no
//! randomness and touches no simulation state, so gating on it cannot
//! perturb simulated results.

use crate::config::MashupConfig;
use mashup_analyze::{
    analyze_config, analyze_plan, analyze_workflow, into_result, AnalysisError, Diagnostic,
    EngineParams, PlanContext,
};
use mashup_dag::{PlacementPlan, Workflow};

/// The engine knobs the analyzer's config checks consume.
pub fn engine_params(cfg: &MashupConfig) -> EngineParams {
    EngineParams {
        checkpoint_margin_secs: cfg.checkpoint_margin_secs,
        prewarm: cfg.prewarm,
        prewarm_cap: cfg.prewarm_cap,
    }
}

/// The environment the analyzer's plan checks evaluate a placement in.
pub fn plan_context(cfg: &MashupConfig) -> PlanContext<'_> {
    PlanContext {
        faas: &cfg.provider.faas,
        wan_bps: cfg.cluster.instance.wan_bps,
        checkpoint_margin_secs: cfg.checkpoint_margin_secs,
    }
}

/// Runs the M1xx workflow and M3xx config checks — plus the M2xx plan
/// checks when a plan is supplied — and partitions the findings: `Ok` is
/// the (possibly empty) warning list, `Err` carries everything when any
/// error-level diagnostic fired.
pub fn preflight(
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: Option<&PlacementPlan>,
) -> Result<Vec<Diagnostic>, AnalysisError> {
    let mut diags = analyze_workflow(workflow);
    diags.extend(analyze_config(
        &cfg.provider,
        &cfg.cluster,
        &engine_params(cfg),
    ));
    if let Some(plan) = plan {
        diags.extend(analyze_plan(workflow, plan, &plan_context(cfg)));
    }
    into_result(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_analyze::Code;
    use mashup_dag::{Platform, Task, TaskProfile, WorkflowBuilder};

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        b.add_task(Task::new("A", 4, TaskProfile::trivial().io(1e6, 1e6)));
        b.build().expect("valid")
    }

    #[test]
    fn clean_inputs_pass_with_no_warnings() {
        let cfg = MashupConfig::aws(4);
        let w = wf();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        assert_eq!(preflight(&cfg, &w, Some(&plan)), Ok(vec![]));
        assert_eq!(preflight(&cfg, &w, None), Ok(vec![]));
    }

    #[test]
    fn broken_plan_is_refused_with_the_offending_code() {
        let cfg = MashupConfig::aws(4);
        let w = wf();
        let err = preflight(&cfg, &w, Some(&PlacementPlan::new())).unwrap_err();
        assert!(err.errors().all(|d| d.code == Code::UnassignedTask));
        assert_eq!(err.errors().count(), 1);
    }

    #[test]
    fn broken_config_is_refused_even_without_a_plan() {
        let mut cfg = MashupConfig::aws(4);
        cfg.checkpoint_margin_secs = 1e9;
        let err = preflight(&cfg, &wf(), None).unwrap_err();
        assert!(err.errors().any(|d| d.code == Code::MarginExceedsTimeout));
    }
}
