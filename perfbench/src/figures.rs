//! `figures-cold`: one op is a cold regeneration of the paper's figures by
//! the `figures` binary. The only workload where the baselines, the sweep
//! pool and the Pareto cell run. A traced run calls the same cells
//! in-process, in the binary's order, to time each one; its tracing
//! overhead compares that with the same cells run in-process untraced, in a
//! fresh process of its own so both start on a cold plan cache.

use crate::report::{Outcome, FIGURE_CELLS};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::Ctx;
use mashup_bench as bench;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The JSON outputs every regeneration must reproduce byte for byte.
const GOLDEN_DIR: &str = "results/golden-pre";
const JOBS: usize = 2;

fn read_dir(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        out.insert(name, std::fs::read(&path).map_err(|e| e.to_string())?);
    }
    Ok(out)
}

fn compare(
    golden: &BTreeMap<String, Vec<u8>>,
    got: &BTreeMap<String, Vec<u8>>,
) -> Result<(), String> {
    if golden.keys().ne(got.keys()) {
        return Err(format!(
            "output files {:?} differ from {GOLDEN_DIR} {:?}",
            got.keys().collect::<Vec<_>>(),
            golden.keys().collect::<Vec<_>>()
        ));
    }
    match golden.iter().find(|(name, bytes)| got[*name] != **bytes) {
        Some((name, _)) => Err(format!("{name} differs from {GOLDEN_DIR}")),
        None => Ok(()),
    }
}

fn spawn(bin: &Path, args: &[&str], json_dir: Option<&Path>) -> Result<(), String> {
    let mut cmd = Command::new(bin);
    cmd.args(args).args(["--jobs", &JOBS.to_string()]);
    if let Some(dir) = json_dir {
        cmd.arg("--json").arg(dir);
    }
    let status = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{} exited with {status}", bin.display()))
    }
}

/// Set-up: load the goldens and fault the binary in with one of its
/// mid-sized cells (a cheaper one leaves `setup_s` to process-start noise).
fn setup(ctx: &Ctx) -> BTreeMap<String, Vec<u8>> {
    let golden = read_dir(Path::new(GOLDEN_DIR)).unwrap_or_else(|e| crate::die(&e));
    spawn(&ctx.figures_bin, &["fig4c"], None).unwrap_or_else(|e| crate::die(&e));
    golden
}

/// One untraced op: a full regeneration into a fresh directory, checked
/// against the goldens. Returns the op's wall time, seconds.
fn op(ctx: &Ctx, golden: &BTreeMap<String, Vec<u8>>, id: u64) -> (f64, Result<(), String>) {
    let dir: PathBuf = ctx
        .out_dir
        .join(format!("figures-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let ran = spawn(&ctx.figures_bin, &[], Some(&dir));
    let dt = t.elapsed().as_secs_f64();
    let checked = ran.and_then(|()| compare(golden, &read_dir(&dir)?));
    let _ = std::fs::remove_dir_all(&dir);
    (dt, checked)
}

fn json<T: Serialize>(value: &T) -> Option<Vec<u8>> {
    Some(
        serde_json::to_string_pretty(value)
            .expect("figure serializes")
            .into_bytes(),
    )
}

/// The binary's cells, in its order: (selector, golden file, span name,
/// the cell itself returning its rendering and JSON bytes).
type Cell = (
    &'static str,
    Option<&'static str>,
    &'static str,
    fn() -> (String, Option<Vec<u8>>),
);

fn cells() -> [Cell; 19] {
    [
        ("fig2", Some("fig02_env_choice"), "figures.fig2", || {
            let f = bench::fig02_env_choice();
            (f.render(), json(&f))
        }),
        ("fig4a", Some("fig04a_io_overhead"), "figures.fig4a", || {
            let f = bench::fig04a_io_overhead();
            (f.render(), json(&f))
        }),
        ("fig4b", Some("fig04b_cold_start"), "figures.fig4b", || {
            let f = bench::fig04b_cold_start();
            (f.render(), json(&f))
        }),
        ("fig4c", Some("fig04c_scaling"), "figures.fig4c", || {
            let f = bench::fig04c_scaling();
            (f.render(), json(&f))
        }),
        ("fig5", Some("fig05_objectives"), "figures.fig5", || {
            let f = bench::fig05_objectives();
            (f.render(), json(&f))
        }),
        ("fig6", Some("fig06_exec_time"), "figures.fig6", || {
            let f = bench::fig06_exec_time();
            (f.render(), json(&f))
        }),
        ("fig7", Some("fig07_expense"), "figures.fig7", || {
            let f = bench::fig07_expense();
            (f.render(), json(&f))
        }),
        ("fig8", Some("fig08_vm_families"), "figures.fig8", || {
            let f = bench::fig08_vm_families();
            (f.render(), json(&f))
        }),
        ("fig9", Some("fig09_placement"), "figures.fig9", || {
            let f = bench::fig09_placement();
            (f.render(), json(&f))
        }),
        ("fig10", Some("fig10_sysmetrics"), "figures.fig10", || {
            let f = bench::fig10_sysmetrics();
            (f.render(), json(&f))
        }),
        ("fig11", Some("fig11_pareto"), "figures.fig11", || {
            let f = bench::fig11_pareto();
            (f.render(), json(&f))
        }),
        ("fig12", Some("fig12_managers"), "figures.fig12", || {
            let f = bench::fig12_managers();
            (f.render(), json(&f))
        }),
        ("inputs", Some("text_input_sizes"), "figures.inputs", || {
            let f = bench::text_input_sizes();
            (f.render(), json(&f))
        }),
        ("half", Some("text_half_cluster"), "figures.half", || {
            let f = bench::text_half_cluster();
            (f.render(), json(&f))
        }),
        ("gcp", Some("text_gcp"), "figures.gcp", || {
            let f = bench::text_gcp();
            (f.render(), json(&f))
        }),
        (
            "overheads",
            Some("text_overheads"),
            "figures.overheads",
            || {
                let f = bench::text_overheads();
                (f.render(), json(&f))
            },
        ),
        (
            "accuracy",
            Some("text_pdc_accuracy"),
            "figures.accuracy",
            || {
                let f = bench::text_pdc_accuracy();
                (f.render(), json(&f))
            },
        ),
        ("expense", None, "figures.expense", || {
            (bench::expense_summary(48), None)
        }),
        ("ablations", Some("ablations"), "figures.ablations", || {
            let f = bench::ablations();
            (f.render(), json(&f))
        }),
    ]
}

/// The traced op: every default cell in-process, in the binary's order,
/// each in its own span, each JSON output checked against its golden.
fn in_process(golden: &BTreeMap<String, Vec<u8>>, spans: &mut Spans) -> Result<(), String> {
    bench::preflight_paper_inputs().map_err(|e| format!("preflight refused: {e}"))?;
    bench::set_jobs(JOBS);
    spans.set_op(0);
    spans.time("op", |s| {
        for (selector, file, span, cell) in cells() {
            let (rendered, bytes) = s.time(span, |_| cell());
            if rendered.is_empty() {
                return Err(format!("{selector} rendered nothing"));
            }
            if let Some(file) = file {
                let name = format!("{file}.json");
                if golden.get(&name) != bytes.as_ref() {
                    return Err(format!("{selector}: {name} differs from {GOLDEN_DIR}"));
                }
            }
        }
        Ok(())
    })
}

/// `perfbench figures-in-process`: one untraced in-process regeneration on
/// a cold plan cache. Prints its wall time in ms; exits non-zero when an
/// output differs from the goldens.
pub fn untraced_in_process() -> i32 {
    let golden = read_dir(Path::new(GOLDEN_DIR)).unwrap_or_else(|e| crate::die(&e));
    let t = Instant::now();
    let checked = in_process(&golden, &mut Spans::new(false, t));
    println!("{}", t.elapsed().as_secs_f64() * 1e3);
    match checked {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Runs [`untraced_in_process`] in a child process; returns its wall time,
/// ms.
fn untraced_in_process_child() -> Result<f64, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot find perfbench: {e}"))?;
    let done = Command::new(me)
        .arg("figures-in-process")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run perfbench figures-in-process: {e}"))?;
    let text = String::from_utf8_lossy(&done.stdout);
    match (done.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(ms)) => Ok(ms),
        _ => Err(format!(
            "untraced in-process regeneration failed ({})",
            done.status
        )),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.rss_of_children = true;
    let mut setups = Vec::new();
    let mut golden = BTreeMap::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        golden = setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups), "s", setups.len());

    let mut lat = Vec::new();
    let started = Instant::now();
    // A traced run leaves room for its two in-process regenerations.
    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    while started.elapsed().as_secs_f64() < window || lat.is_empty() {
        let (dt, checked) = op(ctx, &golden, lat.len() as u64);
        lat.push(dt * 1e3);
        out.check(checked);
    }
    let n = lat.len();
    if !ctx.trace {
        out.metric(
            "ops_per_s",
            n as f64 / (lat.iter().sum::<f64>() / 1e3),
            "ops/s",
            n,
        );
        out.metric("latency_ms_p50", median(&lat), "ms", n);
        out.metric("latency_ms_p90", percentile(&lat, 90.0), "ms", n);
        return out;
    }

    let untraced_ms = untraced_in_process_child();
    let mut spans = Spans::new(true, ctx.epoch);
    let t = Instant::now();
    let checked = in_process(&golden, &mut spans);
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(checked);
    for (selector, _, span, _) in cells() {
        let v = spans.durations_ms(span);
        out.metric(&format!("figures.{selector}_ms"), median(&v), "ms", v.len());
    }
    let s = bench::plan_cache_stats();
    let hit_pct = 100.0 * s.hits() as f64 / (s.hits() + s.misses()).max(1) as f64;
    out.metric("figures.cache_hit_pct", hit_pct, "%", 1);
    out.metric("cache.hit_pct", hit_pct, "%", 1);
    out.metric("cache.misses", s.misses() as f64, "count", 1);
    out.metric("cache.entries", s.entries() as f64, "count", 1);
    out.metric(
        "pdc.calibration_ms",
        s.calibration.compute_secs * 1e3,
        "ms",
        1,
    );
    out.metric(
        "pdc.vm_profile_ms",
        s.vm_profile.compute_secs * 1e3,
        "ms",
        1,
    );
    out.metric("pdc.probes_ms", s.probes.compute_secs * 1e3, "ms", 1);
    let p = untraced_ms.unwrap_or_else(|e| {
        out.check(Err(e));
        f64::NAN
    });
    out.metric("tracing.overhead_ms", traced_ms - p, "ms", 2);
    out.metric("tracing.overhead_pct", 100.0 * (traced_ms - p) / p, "%", 2);
    debug_assert_eq!(cells().map(|c| c.0), FIGURE_CELLS);
    out.spans = Some(spans);
    out
}
