//! `wide-dag`: seeded synthetic DAGs of 20k to 40k tasks through raw-graph
//! ingestion, preflight, a cold probe-sharing decide, an untraced
//! execution, and one single-task edit through the incremental replan.
//! Where the `dag` layer does real work, the simulator's superlinear
//! scaling shows, and memory and the replan path are measured.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{mean, median, percentile};
use crate::Ctx;
use mashup_bench::scale::{raw_graph, Shape};
use mashup_core::{
    preflight, try_execute, MashupConfig, Pdc, PdcReport, PlanCache, ReplanStats, WorkflowReport,
};
use mashup_dag::{from_task_graph, RawEdge, Task, Workflow};
use std::sync::Arc;
use std::time::Instant;

/// Three sizes, so the op mix has an odd number of equally weighted
/// (shape, size) strata and the nearest-rank median falls inside one of
/// them instead of on the edge between two.
const SIZES: [usize; 3] = [20_000, 30_000, 40_000];
const NODES: usize = 8;

/// One generated input: the raw graph, and the edited workflow the replan
/// moves to.
struct Input {
    label: String,
    tasks: Vec<Task>,
    edges: Vec<RawEdge>,
    edited: Workflow,
}

/// What an input's first op produced; every repeat must reproduce it bit
/// for bit.
struct First {
    report: WorkflowReport,
    replan: PdcReport,
}

struct OpStats {
    cache: mashup_core::CacheStats,
    replan: ReplanStats,
    diagnostics: usize,
    tasks: usize,
    edges: usize,
}

fn pdc(cache: &Arc<PlanCache>) -> Pdc {
    Pdc::new(MashupConfig::aws(NODES))
        .with_cache(cache.clone())
        .with_probe_sharing(true)
}

/// Set-up: every (shape, size) pair with a seeded edit position; the
/// edited graph is built here so the op times only the replan itself.
fn setup(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, 3);
    let mut inputs = Vec::new();
    for shape in Shape::ALL {
        for n in SIZES {
            let edit = rng.below(n);
            let (tasks, edges) = raw_graph(shape, n, None);
            let (et, ee) = raw_graph(shape, n, Some(edit));
            let label = format!("{}-{n}-edit{edit}", shape.name());
            let edited = from_task_graph(format!("scale-{}", shape.name()), et, ee, 1.0e6)
                .expect("generated DAG is valid");
            inputs.push(Input {
                label,
                tasks,
                edges,
                edited,
            });
        }
    }
    inputs
}

type OpOut = (WorkflowReport, PdcReport, PdcReport, OpStats);

fn op(
    input: &Input,
    tasks: Vec<Task>,
    edges: Vec<RawEdge>,
    s: &mut Spans,
) -> Result<OpOut, String> {
    let cfg = MashupConfig::aws(NODES);
    s.time("op", |s| {
        let w = s
            .time("dag", |_| {
                from_task_graph(input.edited.name.clone(), tasks, edges, 1.0e6)
            })
            .map_err(|e| format!("{}: {e:?}", input.label))?;
        let diags = s
            .time("analyze", |_| preflight(&cfg, &w, None))
            .map_err(|e| format!("{}: preflight refused: {e}", input.label))?;
        let cache = Arc::new(PlanCache::new());
        let planner = pdc(&cache);
        let decided = s.time("pdc", |_| planner.decide(&w));
        let cache_stats = cache.stats();
        let tuned = cfg.clone().with_subclusters(decided.subclusters);
        let report = s
            .time("exec", |_| try_execute(&tuned, &w, &decided.plan, "mashup"))
            .map_err(|e| format!("{}: execution refused: {e}", input.label))?;
        let (replanned, replan) = s.time("pdc.replan", |_| {
            planner.replan(&w, &decided, &input.edited)
        });
        let stats = OpStats {
            cache: cache_stats,
            replan,
            diagnostics: diags.len(),
            tasks: w.task_count(),
            edges: (0..w.task_count())
                .map(|i| w.arena().producers(i).len())
                .sum(),
        };
        Ok((report, decided, replanned, stats))
    })
}

/// A repeat of an input must reproduce its first execution report and
/// replan bit for bit.
fn verify_repeat(input: &Input, first: &First, out: &OpOut) -> Result<(), String> {
    let (report, _, replanned, _) = out;
    if &first.report != report {
        Err(format!(
            "{}: execution report differs from its first run",
            input.label
        ))
    } else if &first.replan != replanned {
        Err(format!(
            "{}: replan differs from its first run",
            input.label
        ))
    } else {
        Ok(())
    }
}

/// An input's first replan must place every task where a cold decide of
/// the edited graph does. The library guarantees the placement, not the
/// profiled times: those may differ by f64 rounding of the time origin.
fn verify_first(input: &Input, first: &First) -> Result<(), String> {
    let cold = pdc(&Arc::new(PlanCache::new())).decide(&input.edited);
    if cold.plan == first.replan.plan {
        Ok(())
    } else {
        Err(format!(
            "{}: replan places tasks unlike a cold decide",
            input.label
        ))
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..crate::SETUPS {
        drop(std::mem::take(&mut inputs));
        let t = Instant::now();
        inputs = setup(ctx.seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups), "s", setups.len());

    let mut firsts: Vec<Option<First>> = inputs.iter().map(|_| None).collect();
    let mut rng = Rng::new(ctx.seed, 4);
    let mut spans = Spans::new(ctx.trace, ctx.epoch);
    let mut untraced = Spans::new(false, ctx.epoch);
    let (mut lat_plain, mut lat_traced, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut busy = 0.0;
    let mut op_id = 0u64;
    let mut n_cycle = 0usize;
    // Whole cycles only, so every input weighs the same; a cycle (about
    // five seconds) starts only when it would end nearer the end of the
    // window than the previous one did.
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let cycle_s = if n_cycle == 0 {
            0.0
        } else {
            elapsed / n_cycle as f64
        };
        if n_cycle > 0 && elapsed + cycle_s / 2.0 > ctx.seconds {
            break;
        }
        let traced = ctx.trace && n_cycle % 2 == 1;
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let input = &inputs[i];
            let (tasks, edges) = (input.tasks.clone(), input.edges.clone());
            op_id += 1;
            let rec = if traced { &mut spans } else { &mut untraced };
            rec.set_op(op_id);
            let t = Instant::now();
            let result = op(input, tasks, edges, rec);
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            if traced {
                &mut lat_traced
            } else {
                &mut lat_plain
            }
            .push(dt * 1e3);
            match (result, &firsts[i]) {
                (Err(e), _) => out.check(Err(e)),
                (Ok(o), Some(first)) => {
                    out.check(verify_repeat(input, first, &o));
                    if traced {
                        stats.push(o.3);
                    }
                }
                (Ok(o), None) => {
                    let (report, _, replan, op_stats) = o;
                    firsts[i] = Some(First { report, replan });
                    if traced {
                        stats.push(op_stats);
                    }
                }
            }
        }
        n_cycle += 1;
    }
    // The first op of each input is checked against a cold decide after
    // the measured window, so the check's own planning stays out of it.
    for (input, first) in inputs.iter().zip(&firsts) {
        if let Some(first) = first {
            out.check(verify_first(input, first));
        }
    }
    let n = lat_plain.len();
    if !ctx.trace {
        // Throughput over the time spent inside ops: cloning the raw input
        // and checking the outputs are the benchmark's own work.
        out.metric("ops_per_s", n as f64 / busy, "ops/s", n);
        out.metric("latency_ms_p50", median(&lat_plain), "ms", n);
        // Nine equally weighted inputs put the pooled nearest-rank p90 on
        // the edge between the slowest input and the next one, so it jumps
        // between the two; the median over cycles of each cycle's p90 (its
        // slowest op) does not.
        let per_cycle: Vec<f64> = lat_plain
            .chunks(inputs.len())
            .map(|c| percentile(c, 90.0))
            .collect();
        out.metric("latency_ms_p90", median(&per_cycle), "ms", n);
        return out;
    }

    let t = stats.len();
    let med = |f: &dyn Fn(&OpStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    for (metric, span) in [
        ("dag.build_ms", "dag"),
        ("analyze.preflight_ms", "analyze"),
        ("pdc.decide_ms", "pdc"),
        ("pdc.replan_ms", "pdc.replan"),
        ("exec.simulate_ms", "exec"),
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
    out.metric(
        "pdc.replanned_tasks",
        med(&|s| s.replan.replanned_tasks as f64),
        "count",
        t,
    );
    let full = stats.iter().filter(|s| s.replan.full_replan).count();
    out.metric("pdc.full_replans", full as f64, "count", t);
    out.fresh_cache_metrics(&stats.iter().map(|s| s.cache).collect::<Vec<_>>());
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
