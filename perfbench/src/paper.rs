//! `paper-traced`: the full traced pipeline on one paper workflow per op —
//! `mashup trace --check` without the CLI. The one workload where the cold
//! PDC dominates and the trace codec runs at all.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{band_percentile, mean, median};
use crate::Ctx;
use mashup_core::{preflight, trace, try_execute_traced, MashupConfig, Pdc, PlanCache, Tracer};
use mashup_dag::Workflow;
use mashup_sim::trace::{from_jsonl, to_jsonl};
use std::sync::Arc;
use std::time::Instant;

/// The (workflow, nodes) pairs an op draws from.
const PAIRS: [(&str, usize); 9] = [
    ("1000Genome", 4),
    ("1000Genome", 8),
    ("1000Genome", 16),
    ("Epigenomics", 4),
    ("Epigenomics", 8),
    ("Epigenomics", 16),
    ("SRAsearch", 4),
    ("SRAsearch", 8),
    ("SRAsearch", 16),
];

/// Reference outputs recorded from the seed commit (`perfbench record-refs`).
const REFS: &str = include_str!("../refs/paper.json");

/// What an op's output must reproduce.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Reference {
    /// Workflow name.
    pub workflow: String,
    /// VM cluster size.
    pub nodes: usize,
    /// Simulated makespan, seconds.
    pub makespan_secs: f64,
    /// Total expense, dollars.
    pub expense_dollars: f64,
    /// Flight-recorder records of the run.
    pub records: usize,
}

fn build(name: &str) -> Workflow {
    match name {
        "1000Genome" => mashup_workflows::genome1000::workflow(),
        "Epigenomics" => mashup_workflows::epigenomics::workflow(),
        _ => mashup_workflows::srasearch::workflow(),
    }
}

/// Per-op layer figures, read off the traced pipeline.
struct OpStats {
    cache: mashup_core::CacheStats,
    records: usize,
    bytes: usize,
    violations: usize,
    diagnostics: usize,
    tasks: usize,
    edges: usize,
}

/// One op: build → preflight → cold decide → traced execution → oracle →
/// JSONL write → JSONL read. Fails on an oracle violation or a lossy
/// round trip; returns the layer figures and the outputs to compare.
fn op(pair: usize, spans: &mut Spans) -> Result<(OpStats, Reference), String> {
    let (name, nodes) = PAIRS[pair];
    let cfg = MashupConfig::aws(nodes);
    spans.time("op", |s| {
        let w = s.time("dag", |_| build(name));
        let diags = s
            .time("analyze", |_| preflight(&cfg, &w, None))
            .map_err(|e| format!("{name}@{nodes}: preflight refused: {e}"))?;
        let cache = Arc::new(PlanCache::new());
        let tracer = Tracer::new();
        let pdc = s.time("pdc", |_| {
            Pdc::new(cfg.clone())
                .with_tracer(tracer.clone())
                .with_cache(cache.clone())
                .decide(&w)
        });
        let tuned = cfg.clone().with_subclusters(pdc.subclusters);
        let report = s
            .time("exec", |_| {
                try_execute_traced(&tuned, &w, &pdc.plan, "mashup", &tracer)
            })
            .map_err(|e| format!("{name}@{nodes}: execution refused: {e}"))?;
        let records = tracer.take();
        let violations = s.time("trace", |_| trace::check(&cfg, &w, &report, &records));
        let text = s.time("codec.write", |_| to_jsonl(&records));
        let back = s
            .time("codec.read", |_| from_jsonl(&text))
            .map_err(|e| format!("{name}@{nodes}: trace does not parse back: {e}"))?;
        if let Some(v) = violations.first() {
            return Err(format!("{name}@{nodes}: oracle violation {v}"));
        }
        if back != records {
            return Err(format!("{name}@{nodes}: from_jsonl(to_jsonl(r)) != r"));
        }
        let stats = OpStats {
            cache: cache.stats(),
            records: records.len(),
            bytes: text.len(),
            violations: violations.len(),
            diagnostics: diags.len(),
            tasks: w.task_count(),
            edges: (0..w.task_count())
                .map(|i| w.arena().producers(i).len())
                .sum(),
        };
        let got = Reference {
            workflow: w.name.clone(),
            nodes,
            makespan_secs: report.makespan_secs,
            expense_dollars: report.expense.total(),
            records: records.len(),
        };
        Ok((stats, got))
    })
}

/// Makespan, expense and record count must match the reference exactly.
fn verify(got: &Reference, reference: &Reference) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!("got {got:?}, reference {reference:?}"))
    }
}

fn references() -> Vec<Reference> {
    let refs: Vec<Reference> = serde_json::from_str(REFS).expect("refs/paper.json parses");
    assert_eq!(refs.len(), PAIRS.len(), "one reference per pair");
    refs
}

/// Prints the references for the current code (run at the seed commit).
pub fn record_refs() -> String {
    let mut spans = Spans::new(false, Instant::now());
    let refs: Vec<Reference> = (0..PAIRS.len())
        .map(|i| {
            op(i, &mut spans)
                .expect("paper workflows pass the checks")
                .1
        })
        .collect();
    serde_json::to_string_pretty(&refs).expect("references serialize") + "\n"
}

/// The op order: seeded shuffles of all pairs, one whole cycle at a time,
/// so every run covers the pairs evenly whatever the seed.
fn cycle(rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..PAIRS.len()).collect();
    rng.shuffle(&mut order);
    order
}

/// Set-up: parse the references, build and preflight every input once,
/// and warm the code path with one op on Epigenomics@4 (long enough that
/// `setup_s` is not dominated by timer and allocator noise).
fn setup() -> Vec<Reference> {
    let refs = references();
    for &(name, nodes) in &PAIRS {
        let w = build(name);
        preflight(&MashupConfig::aws(nodes), &w, None).expect("paper inputs are clean");
    }
    let (_, got) = op(3, &mut Spans::new(false, Instant::now())).expect("warm-up op");
    verify(&got, &refs[3]).expect("warm-up op reproduces its reference");
    refs
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        refs = setup();
        setups.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups), "s", setups.len());

    let mut rng = Rng::new(ctx.seed, 1);
    let mut spans = Spans::new(ctx.trace, ctx.epoch);
    let mut untraced = Spans::new(false, ctx.epoch);
    let mut lat_plain = Vec::new();
    let mut lat_traced = Vec::new();
    let mut stats = Vec::new();
    let started = Instant::now();
    let mut op_id = 0u64;
    let mut n_cycle = 0usize;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        // A traced run alternates untraced and traced cycles; the
        // difference between the two is the tracing overhead.
        let traced = ctx.trace && n_cycle % 2 == 1;
        for pair in cycle(&mut rng) {
            op_id += 1;
            let rec = if traced { &mut spans } else { &mut untraced };
            rec.set_op(op_id);
            let t = Instant::now();
            let result = op(pair, rec);
            let dt = t.elapsed().as_secs_f64() * 1e3;
            if traced {
                &mut lat_traced
            } else {
                &mut lat_plain
            }
            .push(dt);
            out.check(result.and_then(|(s, got)| {
                if traced {
                    stats.push(s);
                }
                verify(&got, &refs[pair])
            }));
        }
        n_cycle += 1;
    }
    let n = lat_plain.len();
    if !ctx.trace {
        let busy_s = lat_plain.iter().sum::<f64>() / 1e3;
        out.metric("ops_per_s", n as f64 / busy_s, "ops/s", n);
        // Band means: the pooled median sits inside one workflow's
        // latencies, which a shared host splits into a fast and a slow
        // group (see `band_percentile`).
        out.metric("latency_ms_p50", band_percentile(&lat_plain, 50.0), "ms", n);
        out.metric("latency_ms_p90", band_percentile(&lat_plain, 90.0), "ms", n);
        return out;
    }

    let t = stats.len();
    let med = |f: &dyn Fn(&OpStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    for (metric, span) in [
        ("dag.build_ms", "dag"),
        ("analyze.preflight_ms", "analyze"),
        ("pdc.decide_ms", "pdc"),
        ("exec.traced_ms", "exec"),
        ("trace.check_ms", "trace"),
        ("codec.write_ms", "codec.write"),
        ("codec.read_ms", "codec.read"),
    ] {
        let v = spans.durations_ms(span);
        out.metric(metric, median(&v), "ms", v.len());
    }
    out.metric("dag.tasks", med(&|s| s.tasks as f64), "count", t);
    out.metric("dag.edges", med(&|s| s.edges as f64), "count", t);
    out.metric(
        "analyze.diagnostics",
        med(&|s| s.diagnostics as f64),
        "count",
        t,
    );
    out.fresh_cache_metrics(&stats.iter().map(|s| s.cache).collect::<Vec<_>>());
    out.metric("exec.trace_records", med(&|s| s.records as f64), "count", t);
    out.metric(
        "trace.violations",
        stats.iter().map(|s| s.violations as f64).sum(),
        "count",
        t,
    );
    out.metric("codec.bytes", med(&|s| s.bytes as f64), "B", t);
    let read_s: f64 = spans.durations_ms("codec.read").iter().sum::<f64>() / 1e3;
    let bytes: f64 = stats.iter().map(|s| s.bytes as f64).sum();
    out.metric("codec.read_mb_per_s", bytes / 1e6 / read_s, "MB/s", t);
    // Means, not medians: both halves run whole cycles of the same input
    // mix, and a median can land on different inputs in the two halves.
    let (p, q) = (mean(&lat_plain), mean(&lat_traced));
    out.metric("tracing.overhead_ms", q - p, "ms", n + lat_traced.len());
    out.metric(
        "tracing.overhead_pct",
        100.0 * (q - p) / p,
        "%",
        n + lat_traced.len(),
    );
    out.spans = Some(spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_the_pairs() {
        for (r, &(name, nodes)) in references().iter().zip(&PAIRS) {
            assert_eq!(r.nodes, nodes);
            assert_eq!(build(name).name, r.workflow);
        }
    }

    #[test]
    fn a_corrupted_reference_fails_the_op() {
        let refs = references();
        let mut spans = Spans::new(false, Instant::now());
        let (_, got) = op(6, &mut spans).expect("SRAsearch@4 passes its checks");
        assert_eq!(verify(&got, &refs[6]), Ok(()));
        let mut bad = refs[6].clone();
        bad.makespan_secs *= 1.0 + 1e-12;
        let mut o = Outcome::default();
        o.check(verify(&got, &bad));
        assert_eq!((o.attempted, o.failed), (1, 1));
        bad = refs[6].clone();
        bad.records += 1;
        assert!(verify(&got, &bad).is_err());
        bad = refs[6].clone();
        bad.expense_dollars = -bad.expense_dollars;
        assert!(verify(&got, &bad).is_err());
    }
}
