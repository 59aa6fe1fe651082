//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p mashup-bench --bin figures            # everything
//! cargo run --release -p mashup-bench --bin figures -- fig6    # one figure
//! cargo run --release -p mashup-bench --bin figures -- --json results/
//! cargo run --release -p mashup-bench --bin figures -- --jobs 8
//! cargo run --release -p mashup-bench --bin figures -- --no-plan-cache
//! cargo run --release -p mashup-bench --bin figures -- --trace-dir traces/
//! ```
//!
//! `--jobs N` sets the scenario-sweep worker count (default: one per core);
//! `--no-plan-cache` disables the shared PDC profiling cache; `--trace-dir
//! DIR` additionally records every strategy run as a JSONL flight-recorder
//! trace under DIR. Output is byte-identical for any N, with the cache on
//! or off, and with or without tracing.

// This harness's stdout IS the figure byte-stream and its stderr the
// suite stats — prints are the product here, and the wall-clock reads
// feed those stats only (no simulated quantity sees them).
// lint: allow-file(adhoc-telemetry)
// lint: allow-file(wall-clock)
use mashup_bench as bench;
use serde::Serialize;
use std::io::Write as _;
use std::time::Instant;

fn emit<T: Serialize>(json_dir: Option<&str>, name: &str, value: &T, rendered: String) {
    println!("==== {name} ====");
    println!("{rendered}");
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = format!("{dir}/{name}.json");
        let mut f = std::fs::File::create(&path).expect("create result file");
        let body = serde_json::to_string_pretty(value).expect("serialize result");
        f.write_all(body.as_bytes()).expect("write result file");
        println!("[written {path}]\n");
    }
}

fn main() {
    // Refuse bad inputs before any cell runs. The analyzer is read-only,
    // so a clean pass leaves every simulated result untouched (and prints
    // nothing — figures output must stay byte-identical across runs).
    if let Err(report) = bench::preflight_paper_inputs() {
        eprintln!("figures: static analysis refused the paper inputs\n{report}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_dir = Some(it.next().unwrap_or_else(|| "results".into()));
        } else if a == "--jobs" {
            let n = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--jobs requires a number");
                    std::process::exit(2);
                });
            bench::set_jobs(n);
        } else if a == "--no-plan-cache" {
            bench::set_plan_cache_enabled(false);
        } else if a == "--trace-dir" {
            let dir = it.next().unwrap_or_else(|| {
                eprintln!("--trace-dir requires a directory");
                std::process::exit(2);
            });
            bench::set_trace_dir(std::path::Path::new(&dir));
        } else {
            wanted.push(a.to_lowercase());
        }
    }
    let started = Instant::now();
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let want = |key: &str| all || wanted.iter().any(|w| w == key);
    let dir = json_dir.as_deref();

    if want("fig2") {
        let f = bench::fig02_env_choice();
        emit(dir, "fig02_env_choice", &f, f.render());
    }
    if want("fig4a") {
        let f = bench::fig04a_io_overhead();
        emit(dir, "fig04a_io_overhead", &f, f.render());
    }
    if want("fig4b") {
        let f = bench::fig04b_cold_start();
        emit(dir, "fig04b_cold_start", &f, f.render());
    }
    if want("fig4c") {
        let f = bench::fig04c_scaling();
        emit(dir, "fig04c_scaling", &f, f.render());
    }
    if want("fig5") {
        let f = bench::fig05_objectives();
        emit(dir, "fig05_objectives", &f, f.render());
    }
    if want("fig6") {
        let f = bench::fig06_exec_time();
        emit(dir, "fig06_exec_time", &f, f.render());
    }
    if want("fig7") {
        let f = bench::fig07_expense();
        emit(dir, "fig07_expense", &f, f.render());
    }
    if want("fig8") {
        let f = bench::fig08_vm_families();
        emit(dir, "fig08_vm_families", &f, f.render());
    }
    if want("fig9") {
        let f = bench::fig09_placement();
        emit(dir, "fig09_placement", &f, f.render());
    }
    if want("fig10") {
        let f = bench::fig10_sysmetrics();
        emit(dir, "fig10_sysmetrics", &f, f.render());
    }
    if want("fig11") {
        let f = bench::fig11_pareto();
        emit(dir, "fig11_pareto", &f, f.render());
    }
    // Opt-in only — deliberately NOT covered by `all`: the search overlay
    // extends the paper rather than reproducing it, and keeping it out of
    // the default run keeps the golden figure set byte-stable.
    if wanted.iter().any(|w| w == "fig11search") {
        let f = bench::fig11_search();
        emit(dir, "fig11_search", &f, f.render());
    }
    if want("fig12") {
        let f = bench::fig12_managers();
        emit(dir, "fig12_managers", &f, f.render());
    }
    // Opt-in only — deliberately NOT covered by `all`: the chaos cell
    // extends the paper rather than reproducing it, and keeping it out of
    // the default run keeps the golden figure set byte-stable.
    if wanted.iter().any(|w| w == "fig13") {
        let f = bench::fig13_adaptive();
        emit(dir, "fig13_adaptive", &f, f.render());
    }
    if want("inputs") {
        let f = bench::text_input_sizes();
        emit(dir, "text_input_sizes", &f, f.render());
    }
    if want("half") {
        let f = bench::text_half_cluster();
        emit(dir, "text_half_cluster", &f, f.render());
    }
    if want("gcp") {
        let f = bench::text_gcp();
        emit(dir, "text_gcp", &f, f.render());
    }
    if want("overheads") {
        let f = bench::text_overheads();
        emit(dir, "text_overheads", &f, f.render());
    }
    if want("accuracy") {
        let f = bench::text_pdc_accuracy();
        emit(dir, "text_pdc_accuracy", &f, f.render());
    }
    if want("expense") {
        println!("==== expense breakdown (48 nodes) ====");
        println!("{}", bench::expense_summary(48));
    }
    if want("ablations") {
        let f = bench::ablations();
        emit(dir, "ablations", &f, f.render());
    }

    // Suite-level summary: wall time plus what the planning cache did.
    // Stats go to stderr so they never perturb the figure byte-streams.
    let wall = started.elapsed().as_secs_f64();
    if bench::plan_cache_enabled() {
        let s = bench::plan_cache_stats();
        eprintln!(
            "[plan-cache] calibration {}h/{}m  vm-profile {}h/{}m  probes {}h/{}m  \
             ({} entries, {:.1}% hits overall)",
            s.calibration.hits,
            s.calibration.misses,
            s.vm_profile.hits,
            s.vm_profile.misses,
            s.probes.hits,
            s.probes.misses,
            s.entries(),
            s.hit_pct(),
        );
        eprintln!(
            "[plan-cache] miss-side planning compute: calibration {:.2}s, \
             vm-profile {:.2}s, probes {:.2}s (summed across workers)",
            s.calibration.compute_secs, s.vm_profile.compute_secs, s.probes.compute_secs,
        );
    } else {
        eprintln!("[plan-cache] disabled (--no-plan-cache)");
    }
    eprintln!("[figures] total wall time {wall:.2}s");
}
