//! What a run reports: the result line, the metadata line, and the layer
//! table of a traced run.

use crate::spans::{self_times, Spans};
use crate::stats::median;
use crate::Ctx;
use mashup_core::CacheStats;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Default figure cells, by their `figures` selector, in the binary's order.
pub const FIGURE_CELLS: [&str; 19] = [
    "fig2",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "inputs",
    "half",
    "gcp",
    "overheads",
    "accuracy",
    "expense",
    "ablations",
];

/// Layers whose self time a traced run reports (span name prefixes).
pub const LAYERS: [&str; 8] = [
    "dag", "analyze", "pdc", "exec", "trace", "codec", "serve", "figures",
];

/// Per-layer metrics, reported by every traced run (name, unit). A layer a
/// workload does not call reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 37] = [
        ("dag.build_ms", "ms"),
        ("dag.tasks", "count"),
        ("dag.edges", "count"),
        ("analyze.preflight_ms", "ms"),
        ("analyze.diagnostics", "count"),
        ("pdc.decide_ms", "ms"),
        ("pdc.calibration_ms", "ms"),
        ("pdc.vm_profile_ms", "ms"),
        ("pdc.probes_ms", "ms"),
        ("pdc.replan_ms", "ms"),
        ("pdc.replanned_tasks", "count"),
        ("pdc.full_replans", "count"),
        ("cache.hit_pct", "%"),
        ("cache.misses", "count"),
        ("cache.entries", "count"),
        ("exec.simulate_ms", "ms"),
        ("exec.traced_ms", "ms"),
        ("exec.trace_records", "count"),
        ("trace.check_ms", "ms"),
        ("trace.violations", "count"),
        ("codec.write_ms", "ms"),
        ("codec.read_ms", "ms"),
        ("codec.bytes", "B"),
        ("codec.read_mb_per_s", "MB/s"),
        ("serve.submit_us_p50", "us"),
        ("serve.service_ms_p50.plan", "ms"),
        ("serve.service_ms_p50.run", "ms"),
        ("serve.queue_wait_ms_p50.high", "ms"),
        ("serve.rejected", "count"),
        ("serve.max_backlog", "count"),
        ("serve.gen_lag_ms_p90", "ms"),
        ("serve.latency_ms_p50.low", "ms"),
        ("serve.latency_ms_p90.low", "ms"),
        ("serve.latency_ms_p50.high", "ms"),
        ("serve.latency_ms_p90.high", "ms"),
        ("figures.cache_hit_pct", "%"),
        ("tracing.overhead_pct", "%"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        FIGURE_CELLS
            .iter()
            .map(|c| (format!("figures.{c}_ms"), "ms")),
    );
    out.extend(LAYERS.iter().map(|l| (format!("self_ms.{l}"), "ms")));
    out.push(("self_ms.unattributed".to_string(), "ms"));
    out.push(("tracing.overhead_ms".to_string(), "ms"));
    out
}

/// One measured value with the number of samples behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Ops (or requests) attempted.
    pub attempted: u64,
    /// Ops whose output check failed, or that were refused.
    pub failed: u64,
    /// The first few check failures, for the log.
    pub problems: Vec<String>,
    /// Set when the run cannot be reported (e.g. the load generator fell
    /// behind its schedule).
    pub invalid: Option<String>,
    /// Spans of a traced run.
    pub spans: Option<Spans>,
    /// The workload's process is a child this process waited for, not
    /// this process itself.
    pub rss_of_children: bool,
    metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Records a metric measured from `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// The `pdc.*` section compute times and `cache.*` counters of ops that
    /// each planned on a fresh cache: medians per op, hits over the run.
    pub fn fresh_cache_metrics(&mut self, caches: &[CacheStats]) {
        let n = caches.len();
        let med =
            |f: &dyn Fn(&CacheStats) -> f64| median(&caches.iter().map(f).collect::<Vec<_>>());
        let ms = |secs: f64| secs * 1e3;
        self.metric(
            "pdc.calibration_ms",
            med(&|c| ms(c.calibration.compute_secs)),
            "ms",
            n,
        );
        self.metric(
            "pdc.vm_profile_ms",
            med(&|c| ms(c.vm_profile.compute_secs)),
            "ms",
            n,
        );
        self.metric(
            "pdc.probes_ms",
            med(&|c| ms(c.probes.compute_secs)),
            "ms",
            n,
        );
        let hits: u64 = caches.iter().map(CacheStats::hits).sum();
        let lookups = hits + caches.iter().map(CacheStats::misses).sum::<u64>();
        let hit_pct = 100.0 * hits as f64 / lookups.max(1) as f64;
        self.metric("cache.hit_pct", hit_pct, "%", n);
        self.metric("cache.misses", med(&|c| c.misses() as f64), "count", n);
        self.metric("cache.entries", med(&|c| c.entries() as f64), "count", n);
    }

    /// Counts one op and its check outcome.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 5 {
                eprintln!("perfbench: check failed: {e}");
                self.problems.push(e);
            }
        }
    }

    /// Adds `peak_rss_mb` to an untraced run: the high-water resident set
    /// of the workload's process (this one, or the largest child it waited
    /// for).
    pub fn end_to_end_rss(&mut self, trace: bool) {
        if !trace {
            let kb = peak_rss_kb(self.rss_of_children);
            self.metric("peak_rss_mb", kb as f64 / 1024.0, "MB", 1);
        }
    }

    /// Adds the self time of each layer (per op), writes the spans under
    /// the scratch directory, and prints the layer table to stderr.
    pub fn emit_layer_table(&mut self, ctx: &Ctx, workload: &str) {
        let Some(spans) = self.spans.take() else {
            return;
        };
        let ops = spans.roots().max(1) as f64;
        let st = self_times(spans.spans());
        let total: u64 = st.values().sum();
        eprintln!("perfbench: self time per op ({} ops traced)", spans.roots());
        for layer in LAYERS.iter().chain(["unattributed"].iter()) {
            let ns = st.get(*layer).copied().unwrap_or(0);
            let ms = ns as f64 / 1e6 / ops;
            eprintln!(
                "  {layer:<13} {ms:>12.3} ms  {:>5.1}%",
                100.0 * ns as f64 / total.max(1) as f64
            );
            self.metric(&format!("self_ms.{layer}"), ms, "ms", spans.roots());
        }
        let path = ctx
            .out_dir
            .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
        match std::fs::write(&path, spans.to_jsonl()) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    fn reported(&self, trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// The metadata line: host, build, seed and the sample count behind
    /// every timing.
    pub fn meta_json(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        host_cores: usize,
        commit: &str,
        rustc: &str,
    ) -> String {
        let samples: Vec<String> = self
            .reported(trace)
            .iter()
            .filter_map(|(n, _)| {
                self.metrics
                    .get(n)
                    .map(|m| format!("\"{n}\":{}", m.samples))
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        format!(
            "{{\"meta\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\
             \"host_cores\":{host_cores},\"commit\":{},\"rustc\":{},\"profile\":\"release\",\
             \"invalid\":{},\"problems\":[{}],\"samples\":{{{}}}}}}}",
            json_str(commit),
            json_str(rustc),
            self.invalid.as_deref().map_or("null".to_string(), json_str),
            problems.join(","),
            samples.join(",")
        )
    }

    /// The result line. A run is correct only when every op passed its
    /// check, the run is valid, and every reported value is finite.
    pub fn result_json(&self, trace: bool) -> String {
        let mut correct = self.failed == 0 && self.invalid.is_none() && self.attempted > 0;
        let mut body = Vec::new();
        for (name, unit) in self.reported(trace) {
            let value = match self.metrics.get(&name) {
                Some(m) => {
                    debug_assert_eq!(m.unit, unit, "unit of {name}");
                    m.value
                }
                None if trace => 0.0,
                None => {
                    eprintln!("perfbench: metric {name} was not measured");
                    correct = false;
                    continue;
                }
            };
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is not finite");
                correct = false;
                continue;
            }
            body.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long` counters, `ru_maxrss` first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn maxrss_kb(who: i32) -> i64 {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and `who` is RUSAGE_SELF or
    // RUSAGE_CHILDREN; getrusage writes only within that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb
    } else {
        0
    }
}

/// Peak resident set, KiB, of this process or of the largest child it
/// reaped.
pub fn peak_rss_kb(children: bool) -> i64 {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    maxrss_kb(if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        for (n, u) in END_TO_END {
            o.metric(n, 1.5, u, 3);
        }
        o.check(Ok(()));
        assert!(o
            .result_json(false)
            .starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0"));
        o.check(Err("makespan differs".into()));
        assert!(o
            .result_json(false)
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_kb(false) > 0);
    }
}
