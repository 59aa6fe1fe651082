//! One Criterion target per paper table/figure.
//!
//! Each target benches a *representative cell* of its figure (one workflow
//! at one cluster size) so `cargo bench` finishes in minutes; the complete
//! regeneration — every row and series, printed as the paper reports them —
//! is `cargo run --release -p mashup-bench --bin figures`, whose outputs
//! are recorded in `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use mashup_baselines::Strategy;
use mashup_bench::run_strategy;
use mashup_core::{MashupConfig, Objective, Pdc};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use std::hint::black_box;

fn fig02_env_choice(c: &mut Criterion) {
    // Fig. 2: per-task environment comparison (serverless vs cluster).
    let w = srasearch::workflow();
    c.bench_function("fig02/srasearch_serverless_vs_4n", |b| {
        b.iter(|| {
            let cfg = MashupConfig::aws(4);
            black_box(run_strategy(&cfg, &w, Strategy::ServerlessOnly));
            black_box(run_strategy(&cfg, &w, Strategy::Traditional));
        })
    });
}

fn fig04_overheads(c: &mut Criterion) {
    // Fig. 4(a)/(b): I/O and cold-start shares come from serverless runs.
    let w = epigenomics::workflow();
    c.bench_function("fig04ab/epigenomics_serverless_overheads", |b| {
        b.iter(|| {
            let r = run_strategy(&MashupConfig::aws(4), &w, Strategy::ServerlessOnly);
            black_box((r.total_io_secs(), r.total_cold_start_secs()));
        })
    });
    // Fig. 4(c): scaling time at one concurrency level.
    c.bench_function("fig04c/scaling_time_500_components", |b| {
        let g = genome1000::workflow();
        let profile = g
            .task_by_name("Individual")
            .expect("exists")
            .1
            .profile
            .clone();
        b.iter(|| {
            let mut wb = mashup_dag::WorkflowBuilder::new("scaling");
            wb.initial_input_bytes(1e9);
            wb.begin_phase();
            wb.add_task(mashup_dag::Task::new("t", 500, profile.clone()));
            let w = wb.build().expect("valid");
            let r = run_strategy(&MashupConfig::aws(4), &w, Strategy::ServerlessOnly);
            black_box(r.tasks[0].scaling_secs);
        })
    });
}

fn fig05_objectives(c: &mut Criterion) {
    let w = srasearch::workflow();
    c.bench_function("fig05/objective_study_one_cell", |b| {
        b.iter(|| {
            let pdc = Pdc::new(MashupConfig::aws(8)).with_objective(Objective::Expense);
            black_box(pdc.decide(&w));
        })
    });
}

fn fig06_07_sweep_cell(c: &mut Criterion) {
    // Figs. 6 & 7: improvement over the traditional cluster — one cell.
    let w = genome1000::workflow();
    c.bench_function("fig06_07/1000genome_8n_mashup_vs_traditional", |b| {
        b.iter(|| {
            let cfg = MashupConfig::aws(8);
            let base = run_strategy(&cfg, &w, Strategy::TraditionalTuned);
            let mashup = run_strategy(&cfg, &w, Strategy::Mashup);
            black_box((base.makespan_secs, mashup.makespan_secs));
        })
    });
}

fn fig08_families_cell(c: &mut Criterion) {
    let w = srasearch::workflow();
    c.bench_function("fig08/cheap_family_cell", |b| {
        b.iter(|| {
            let cfg = MashupConfig::aws_cheap(8);
            black_box(run_strategy(&cfg, &w, Strategy::Mashup));
        })
    });
}

fn fig09_placement_cell(c: &mut Criterion) {
    let w = epigenomics::workflow();
    c.bench_function("fig09/placement_map_one_size", |b| {
        b.iter(|| black_box(Pdc::new(MashupConfig::aws(8)).decide(&w)))
    });
}

fn fig10_sysmetrics_cell(c: &mut Criterion) {
    let w = genome1000::workflow();
    c.bench_function("fig10/sysmetrics_sources", |b| {
        b.iter(|| {
            let cfg = MashupConfig::aws(8);
            let vm = run_strategy(&cfg, &w, Strategy::Traditional);
            black_box(vm.tasks.iter().map(|t| t.io_fraction()).sum::<f64>());
        })
    });
}

fn fig11_pareto_cell(c: &mut Criterion) {
    let w = srasearch::workflow();
    c.bench_function("fig11/three_strategy_pareto_cell", |b| {
        b.iter(|| {
            let cfg = MashupConfig::aws(8);
            for s in [
                Strategy::ServerlessOnly,
                Strategy::TraditionalTuned,
                Strategy::Mashup,
            ] {
                black_box(run_strategy(&cfg, &w, s));
            }
        })
    });
}

fn fig12_managers_cell(c: &mut Criterion) {
    let w = srasearch::workflow();
    c.bench_function("fig12/pegasus_kepler_mashup_cell", |b| {
        b.iter(|| {
            let cfg = MashupConfig::aws(8);
            for s in [Strategy::Pegasus, Strategy::Kepler, Strategy::Mashup] {
                black_box(run_strategy(&cfg, &w, s));
            }
        })
    });
}

fn text_experiments(c: &mut Criterion) {
    // §5 input-size sensitivity: one scaled input.
    c.bench_function("text/input_scale_cell", |b| {
        let w = srasearch::workflow_scaled(1.4);
        b.iter(|| black_box(run_strategy(&MashupConfig::aws(8), &w, Strategy::Mashup)))
    });
    // §5 GCP-like portability: one cell.
    c.bench_function("text/gcp_cell", |b| {
        let w = srasearch::workflow();
        b.iter(|| black_box(run_strategy(&MashupConfig::gcp(8), &w, Strategy::Mashup)))
    });
    // §5 overhead reductions: Mashup vs w/o PDC.
    c.bench_function("text/overheads_cell", |b| {
        let w = epigenomics::workflow();
        b.iter(|| {
            let cfg = MashupConfig::aws(8);
            let a = run_strategy(&cfg, &w, Strategy::Mashup);
            let b2 = run_strategy(&cfg, &w, Strategy::MashupWithoutPdc);
            black_box((a.total_cold_start_secs(), b2.total_cold_start_secs()));
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = fig02_env_choice, fig04_overheads, fig05_objectives,
              fig06_07_sweep_cell, fig08_families_cell, fig09_placement_cell,
              fig10_sysmetrics_cell, fig11_pareto_cell, fig12_managers_cell,
              text_experiments
}
criterion_main!(figures);
