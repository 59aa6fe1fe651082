//! Property: chaos never breaks the oracle.
//!
//! An arbitrary seeded [`FaultPlan`] — spot preemptions, storage error /
//! latency windows, link degradation, spot price traces — injected into
//! any paper workflow under any execution strategy must leave a run that
//! completes with a positive makespan and a flow-level trace that passes
//! every invariant checker: precedence, capacity, checkpoint windows,
//! warm starts, cost reconciliation, replanning consistency, and fault
//! attribution. The same holds with the online replanning controller
//! switched on. Faults come only from the seeded schedule, so each
//! failing case shrinks to a reproducible (seed, profile, workflow).

use mashup_baselines::Strategy;
use mashup_cloud::{FaultPlan, FaultProfile};
use mashup_core::trace::check;
use mashup_core::{ChaosSpec, MashupConfig, Tracer};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use proptest::prelude::*;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Traditional,
    Strategy::ServerlessOnly,
    Strategy::Mashup,
    Strategy::Kepler,
    Strategy::Pegasus,
];

/// Paper workflows with a fault horizon roughly covering the bulk of each
/// run at 4 nodes, so drawn faults actually land mid-execution.
fn workflow_and_horizon(pick: u64) -> (mashup_dag::Workflow, f64) {
    match pick % 3 {
        0 => (genome1000::workflow(), 700.0),
        1 => (srasearch::workflow(), 350.0),
        _ => (epigenomics::workflow(), 3500.0),
    }
}

fn profile(pick: u64, horizon_secs: f64) -> FaultProfile {
    match pick % 3 {
        0 => FaultProfile::preemption(horizon_secs),
        1 => FaultProfile::storage(horizon_secs),
        _ => FaultProfile::mixed(horizon_secs),
    }
}

fn assert_chaos_run_clean(cfg: &MashupConfig, w: &mashup_dag::Workflow, strategy: Strategy) {
    let tracer = Tracer::new();
    let report = strategy
        .run(cfg, w, &tracer, mashup_bench::plan_cache())
        .unwrap();
    let records = tracer.take();
    assert!(
        report.makespan_secs > 0.0,
        "{} on '{}': run did not complete",
        strategy.label(),
        w.name
    );
    assert!(!records.is_empty(), "{}: empty trace", strategy.label());
    let violations = check(cfg, w, &report, &records);
    assert!(
        violations.is_empty(),
        "{} on '{}' violates invariants under chaos:\n{}",
        strategy.label(),
        w.name,
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every strategy survives an arbitrary seeded fault plan with a clean
    /// trace, and the Mashup strategy additionally survives it with the
    /// adaptive controller replanning mid-run.
    #[test]
    fn seeded_chaos_never_trips_the_oracle(seed in 0u64..10_000) {
        let (w, horizon) = workflow_and_horizon(seed);
        let prof = profile(seed / 3, horizon);
        let base = MashupConfig::aws(4);
        let plan = FaultPlan::generate(seed, &prof, base.cluster.nodes,
            base.cluster.instance.price_per_hour);

        let static_cfg = base.clone().with_chaos(ChaosSpec::new(plan.clone()));
        for strategy in STRATEGIES {
            assert_chaos_run_clean(&static_cfg, &w, strategy);
        }

        let adaptive_cfg = base.with_chaos(ChaosSpec::new(plan).with_adaptive(true));
        assert_chaos_run_clean(&adaptive_cfg, &w, Strategy::Mashup);
    }
}
