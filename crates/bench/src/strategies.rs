//! The harness's way to run a strategy: [`Strategy::run`] wired to the
//! process-wide trace directory and plan cache.

use mashup_baselines::Strategy;
use mashup_core::{MashupConfig, Tracer, WorkflowReport};
use mashup_dag::Workflow;

/// Runs `strategy` on `workflow` under `cfg` and returns its report. The
/// PDC plans through the shared cache when it is enabled (see
/// [`crate::plan_cache()`]).
///
/// When a trace directory is configured (see [`crate::set_trace_dir`]), the
/// run is additionally recorded and written out as a JSONL flight-recorder
/// trace; the report itself is unaffected.
///
/// Panics when the analyzer refuses the inputs: every figure input is
/// preflighted up front (see [`crate::preflight_paper_inputs`]).
pub fn run_strategy(cfg: &MashupConfig, workflow: &Workflow, strategy: Strategy) -> WorkflowReport {
    recorded(strategy.label(), |tracer| {
        strategy
            .run(cfg, workflow, tracer, crate::plan_cache::plan_cache())
            .unwrap_or_else(|e| panic!("{} on '{}': {e}", strategy.label(), workflow.name))
    })
}

/// Runs `run` under a recording tracer when a trace directory is set, and
/// writes what it recorded there as the trace of (report's workflow,
/// `label`); under [`Tracer::off`] otherwise.
pub(crate) fn recorded(label: &str, run: impl FnOnce(&Tracer) -> WorkflowReport) -> WorkflowReport {
    let tracer = if crate::trace_dir::trace_dir().is_some() {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let report = run(&tracer);
    if tracer.is_on() {
        crate::trace_dir::write_trace(&report.workflow, label, &tracer.take());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{Task, TaskProfile, WorkflowBuilder};

    #[test]
    fn every_strategy_completes_on_a_small_workflow() {
        let mut b = WorkflowBuilder::new("smoke");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(Task::new("t", 16, TaskProfile::trivial().compute(2.0)));
        let w = b.build().expect("valid");
        let cfg = MashupConfig::aws(2);
        for s in Strategy::ALL {
            let r = run_strategy(&cfg, &w, s);
            assert!(r.makespan_secs > 0.0, "{} produced empty run", s.label());
            assert_eq!(r.tasks.len(), 1, "{}", s.label());
        }
    }
}
