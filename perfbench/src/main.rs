//! The repository benchmark. See `README.md` beside this crate for the
//! workloads, the metrics and how to read a traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --figures-bin <path> --serve-rates r1,r2,.. --serve-slo-p90-ms ms
//! perfbench ... --part k        # serve-open only: one part of its high rate
//! perfbench record-refs        # prints refs/paper.json for the current code
//! perfbench figures-in-process # one untraced in-process figures regeneration
//! ```
//!
//! The last line of stdout is the result object; the line before it holds
//! the run's metadata (host cores, build, seed, sample counts).

mod figures;
mod ladder;
mod paper;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;
mod wide;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Workload seed: the only source of the inputs.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Origin of every span timestamp.
    pub epoch: Instant,
    /// The `figures` binary spawned by `figures-cold`.
    pub figures_bin: PathBuf,
    /// Scratch directory inside the checkout.
    pub out_dir: PathBuf,
    /// Offered rates of the serve ladder, req/s; the first is `low`, the
    /// second `high`.
    pub serve_rates: Vec<f64>,
    /// The serve latency limit on p90, ms.
    pub serve_slo_p90_ms: f64,
}

/// Set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 9;

const WORKLOADS: [&str; 4] = ["paper-traced", "serve-open", "wide-dag", "figures-cold"];

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("record-refs") => {
            print!("{}", paper::record_refs());
            return;
        }
        Some("figures-in-process") => std::process::exit(figures::untraced_in_process()),
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut figures_bin = None;
    let mut commit = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut serve_rates: Option<Vec<f64>> = None;
    let mut serve_slo_p90_ms = None;
    let mut part = None;
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| die("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .unwrap_or_else(|_| die("bad --seconds")),
                )
            }
            "--trace" => trace = value() == "1",
            "--figures-bin" => figures_bin = Some(PathBuf::from(value())),
            "--part" => part = Some(value().parse().unwrap_or_else(|_| die("bad --part"))),
            "--commit" => commit = value(),
            "--rustc" => rustc = value(),
            "--serve-rates" => {
                serve_rates = Some(
                    value()
                        .split(',')
                        .map(|r| r.parse().unwrap_or_else(|_| die("bad --serve-rates")))
                        .collect(),
                )
            }
            "--serve-slo-p90-ms" => {
                serve_slo_p90_ms = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| die("bad --serve-slo-p90-ms")),
                )
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        die(&format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let serve_rates = serve_rates.unwrap_or_else(|| die("missing --serve-rates"));
    if serve_rates.len() < 2 {
        die("--serve-rates needs at least the low and high rates");
    }
    let out_dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| die(&format!("{out_dir:?}: {e}")));
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| die("missing --seed")),
        seconds: seconds.unwrap_or_else(|| die("missing --seconds")),
        trace,
        epoch: Instant::now(),
        figures_bin: figures_bin.unwrap_or_else(|| die("missing --figures-bin")),
        out_dir,
        serve_rates,
        serve_slo_p90_ms: serve_slo_p90_ms.unwrap_or_else(|| die("missing --serve-slo-p90-ms")),
    };

    if let Some(k) = part {
        if workload != "serve-open" || ctx.trace {
            die("--part is for untraced serve-open runs only");
        }
        let p = serve::part(&ctx, k);
        println!("{}", serde_json::to_string(&p).expect("part serializes"));
        return;
    }
    let mut outcome: Outcome = match workload.as_str() {
        "paper-traced" => paper::run(&ctx),
        "serve-open" => serve::run(&ctx),
        "wide-dag" => wide::run(&ctx),
        _ => figures::run(&ctx),
    };
    outcome.end_to_end_rss(ctx.trace);
    if ctx.trace {
        outcome.emit_layer_table(&ctx, &workload);
    }
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{}",
        outcome.meta_json(&workload, ctx.seed, ctx.trace, host_cores, &commit, &rustc)
    );
    println!("{}", outcome.result_json(ctx.trace));
}
