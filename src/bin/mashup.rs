//! `mashup` — command-line front end for the workflow engine.
//!
//! ```text
//! mashup validate  <workflow>
//! mashup dot       <workflow>
//! mashup analyze   <workflow>... [--nodes N] [--plan FILE] [--json] [--suite]
//! mashup plan      <workflow> [--nodes N] [--objective time|expense|both] [--probe-sharing]
//! mashup run       <workflow> [--nodes N] [--strategy S]
//! mashup compare   <workflow> [--nodes N]
//! mashup trace     <workflow> [--nodes N] [--strategy S] [--format jsonl|chrome] [--out FILE] [--verbose] [--check]
//! mashup pareto    <workflow> [--nodes N] [--budget N] [--jobs N] [--out FILE]
//! mashup chaos     <workflow> [--nodes N] [--seed S] [--profile preemption|storage|mixed] [--horizon SECS] [--straggler-factor F] [--strategy S] [--check]
//! mashup serve     [--workers N] [--queue-depth N]
//! mashup load-test [--requests N,N,...] [--parallelism N] [--workers N] [--no-scaling] [--out FILE] [--csv FILE]
//! ```
//!
//! `<workflow>` is a built-in paper workflow (`1000Genome`, `SRAsearch`,
//! `Epigenomics`) or the path of a JSON workflow definition (see
//! `examples/custom_workflow.rs` for the format). `S` is one of `mashup`,
//! `wo-pdc`, `traditional`, `serverless`, `pegasus` and `kepler`.
//! `--nodes` defaults to 8, or 16 for `chaos`.
//!
//! A subcommand takes exactly the flags listed for it. Any other flag, a
//! surplus argument or a malformed value exits 1 with the reason on stderr.
//!
//! `analyze` prints the config findings under `== config`, then one
//! `== <workflow>` section per target; `--suite` adds the paper workflows
//! and six synthetic ones, and `--plan` checks a placement plan against
//! every target. It skips the structural validation the other subcommands
//! apply, so a malformed workflow gets its full diagnostic report. It exits
//! 1 when any error-level diagnostic fires.

use mashup::analyze::{analyze_config, analyze_plan, analyze_workflow, has_errors};
use mashup::prelude::*;
use std::str::FromStr;

/// Loads a built-in workflow by name, or parses a JSON workflow file
/// without validating its structure.
fn load_workflow(spec: &str) -> Workflow {
    match spec {
        "1000Genome" => genome1000::workflow(),
        "SRAsearch" => srasearch::workflow(),
        "Epigenomics" => epigenomics::workflow(),
        path => serde_json::from_str(&read_file(path))
            .unwrap_or_else(|e| die(&format!("invalid workflow '{path}': {e}"))),
    }
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read '{path}': {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("mashup: {msg}");
    std::process::exit(1)
}

/// Exits with the analyzer's pretty-rendered refusal report.
fn die_diagnosed(err: &AnalysisError) -> ! {
    eprintln!("mashup: static analysis refused the input");
    eprintln!("{}", render_pretty(&err.diagnostics));
    std::process::exit(1)
}

/// The strategies `mashup compare` runs, in print order.
const COMPARED: [Strategy; 5] = [
    Strategy::TraditionalTuned,
    Strategy::ServerlessOnly,
    Strategy::Pegasus,
    Strategy::Kepler,
    Strategy::Mashup,
];

/// The CLI name a strategy is printed under.
fn cli_name(strategy: Strategy) -> &'static str {
    strategy.cli_name().expect("CLI strategies have CLI names")
}

/// Runs `strategy` without a plan cache, exiting with the rendered
/// diagnostics when the analyzer refuses the input.
fn run_strategy(
    strategy: Strategy,
    cfg: &MashupConfig,
    w: &Workflow,
    tracer: &Tracer,
) -> WorkflowReport {
    strategy
        .run(cfg, w, tracer, None)
        .unwrap_or_else(|e| die_diagnosed(&e))
}

/// One subcommand: the flags it reads and the function that runs it.
struct Command {
    name: &'static str,
    /// The most positional arguments it takes.
    max_args: usize,
    /// Flags followed by a value.
    valued: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
    run: fn(&Args),
}

const fn cmd(
    name: &'static str,
    max_args: usize,
    valued: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args),
) -> Command {
    Command {
        name,
        max_args,
        valued,
        switches,
        run,
    }
}

/// Every subcommand: `cmd(name, most positional arguments, valued flags,
/// switches, handler)`.
#[rustfmt::skip]
static COMMANDS: [Command; 11] = [
    cmd("validate", 1, &[], &[], validate),
    cmd("analyze", usize::MAX, &["--nodes", "--plan"], &["--json", "--suite"], analyze),
    cmd("dot", 1, &[], &[], dot),
    cmd("plan", 1, &["--nodes", "--objective"], &["--probe-sharing"], plan),
    cmd("run", 1, &["--nodes", "--strategy"], &[], run),
    cmd("compare", 1, &["--nodes"], &[], compare),
    cmd("trace", 1, &["--nodes", "--strategy", "--format", "--out"], &["--verbose", "--check"], trace),
    cmd("pareto", 1, &["--nodes", "--budget", "--jobs", "--out"], &[], pareto),
    cmd("chaos", 1, &["--nodes", "--seed", "--profile", "--horizon", "--straggler-factor", "--strategy"], &["--check"], chaos),
    cmd("serve", 0, &["--workers", "--queue-depth"], &[], serve),
    cmd("load-test", 0, &["--requests", "--parallelism", "--workers", "--out", "--csv"], &["--no-scaling"], load_test),
];

/// A subcommand's command line, split by its [`Command`] table.
struct Args {
    cmd: &'static Command,
    positional: Vec<String>,
    /// Valued flags in command-line order; the value is `None` when the
    /// command line ended right after the flag.
    values: Vec<(&'static str, Option<String>)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Exits on a flag `cmd` does not read and on a surplus positional
    /// argument. A valued flag takes the next argument, whatever it is.
    fn parse(cmd: &'static Command, mut argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            cmd,
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        while let Some(arg) = argv.next() {
            if let Some(&flag) = cmd.valued.iter().find(|&&f| f == arg) {
                args.values.push((flag, argv.next()));
            } else if let Some(&flag) = cmd.switches.iter().find(|&&f| f == arg) {
                args.switches.push(flag);
            } else if arg.starts_with("--") {
                die(&format!("unknown flag '{arg}' for '{}'", cmd.name));
            } else if args.positional.len() == cmd.max_args {
                die(&format!("unexpected argument '{arg}' for '{}'", cmd.name));
            } else {
                args.positional.push(arg);
            }
        }
        args
    }

    fn has(&self, switch: &str) -> bool {
        debug_assert!(
            self.cmd.switches.contains(&switch),
            "{switch} is undeclared"
        );
        self.switches.contains(&switch)
    }

    /// Maps the last value given for `flag` through `read`, which sees
    /// `None` when the command line ended right after the flag; `None`
    /// when the flag is absent.
    fn read<T>(&self, flag: &str, read: impl FnOnce(Option<&str>) -> T) -> Option<T> {
        debug_assert!(self.cmd.valued.contains(&flag), "{flag} is undeclared");
        let (_, value) = self.values.iter().rev().find(|(f, _)| *f == flag)?;
        Some(read(value.as_deref()))
    }

    /// The last value of `flag` parsed as a `T` that passes `ok`; exits
    /// with "`flag` needs `what`" when it is missing or does not.
    fn num_where<T: FromStr>(&self, flag: &str, what: &str, ok: fn(&T) -> bool) -> Option<T> {
        self.read(flag, |v| {
            v.and_then(|v| v.parse().ok())
                .filter(ok)
                .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        })
    }

    fn num<T: FromStr>(&self, flag: &str, what: &str) -> Option<T> {
        self.num_where(flag, what, |_| true)
    }

    fn nodes(&self, default: usize) -> usize {
        self.num("--nodes", "a positive integer").unwrap_or(default)
    }

    fn path(&self, flag: &str) -> Option<String> {
        self.read(flag, |v| {
            v.unwrap_or_else(|| die(&format!("{flag} needs a path")))
                .to_string()
        })
    }

    fn strategy(&self) -> Strategy {
        self.read("--strategy", |name| {
            let name = name.unwrap_or_else(|| die("--strategy needs a value"));
            Strategy::from_cli_name(name)
                .unwrap_or_else(|| die(&format!("unknown strategy '{name}'")))
        })
        .unwrap_or(Strategy::Mashup)
    }

    /// The workflow named by the first positional argument, structurally
    /// validated.
    fn workflow(&self) -> Workflow {
        let spec = self
            .positional
            .first()
            .unwrap_or_else(|| die("missing workflow"));
        let w = load_workflow(spec);
        mashup::dag::validate(&w)
            .unwrap_or_else(|e| die(&format!("invalid workflow '{spec}': {e}")));
        w
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        die(&format!(
            "usage: mashup <{}> [workflow] [flags]",
            names.join("|")
        ))
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| die(&format!("unknown command '{name}'")));
    (cmd.run)(&Args::parse(cmd, argv));
}

fn print_report(label: &str, r: &WorkflowReport) {
    println!(
        "{:<12} {:>10.1}s   ${:<8.4} (vm ${:.4} + faas ${:.4} + storage ${:.4})",
        label,
        r.makespan_secs,
        r.expense.total(),
        r.expense.vm_dollars,
        r.expense.faas_dollars,
        r.expense.storage_dollars
    );
}

/// Writes `body` to `path`, exiting when it cannot.
fn write_file(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| die(&format!("cannot write '{path}': {e}")));
}

/// Pretty JSON with a trailing newline.
fn to_json(value: &impl serde::Serialize) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| die(&format!("serialize: {e}"))) + "\n"
}

fn validate(args: &Args) {
    let w = args.workflow();
    println!(
        "'{}' is valid: {} tasks, {} components, {} phases, peak width {}",
        w.name,
        w.task_count(),
        w.component_count(),
        w.phases.len(),
        w.max_width()
    );
}

fn dot(args: &Args) {
    print!("{}", mashup::dag::to_dot(&args.workflow()));
}

/// `mashup analyze`: every finding of the three check families, by section.
fn analyze(args: &Args) {
    let cfg = MashupConfig::aws(args.nodes(8));
    let plan: Option<PlacementPlan> = args.path("--plan").map(|path| {
        serde_json::from_str(&read_file(&path))
            .unwrap_or_else(|e| die(&format!("invalid plan '{path}': {e}")))
    });
    if args.positional.is_empty() && !args.has("--suite") {
        die("missing workflow");
    }
    let mut targets: Vec<(String, Workflow)> = Vec::new();
    if args.has("--suite") {
        let synthetic = (0..6).map(|seed| {
            mashup::workflows::generate(&mashup::workflows::SyntheticConfig::default(), seed)
        });
        for w in mashup::workflows::paper_workflows()
            .into_iter()
            .chain(synthetic)
        {
            targets.push((w.name.clone(), w));
        }
    }
    for spec in &args.positional {
        targets.push((spec.clone(), load_workflow(spec)));
    }

    /// One `--json` output element: a section plus its findings.
    #[derive(serde::Serialize)]
    struct Section {
        target: String,
        diagnostics: Vec<Diagnostic>,
    }
    let config = analyze_config(
        &cfg.provider,
        &cfg.cluster,
        &mashup::engine::engine_params(&cfg),
    );
    let mut sections = vec![Section {
        target: "config".into(),
        diagnostics: config,
    }];
    for (target, w) in targets {
        let mut diagnostics = analyze_workflow(&w);
        if let Some(plan) = &plan {
            diagnostics.extend(analyze_plan(&w, plan, &mashup::engine::plan_context(&cfg)));
        }
        sections.push(Section {
            target,
            diagnostics,
        });
    }
    if args.has("--json") {
        print!("{}", to_json(&sections));
    } else {
        for s in &sections {
            print!("== {}\n{}", s.target, render_pretty(&s.diagnostics));
        }
    }
    let errors = sections.iter().any(|s| has_errors(&s.diagnostics));
    std::process::exit(i32::from(errors));
}

/// `mashup plan`: the PDC's calibrated factors and per-task decisions.
fn plan(args: &Args) {
    let nodes = args.nodes(8);
    let objective = args
        .read("--objective", |v| match v {
            Some("time") => Objective::ExecutionTime,
            Some("expense") => Objective::Expense,
            Some("both") => Objective::Both,
            other => die(&format!("unknown objective {other:?}")),
        })
        .unwrap_or(Objective::ExecutionTime);
    let w = args.workflow();
    // --probe-sharing collapses serverless probes across tasks of
    // the same code family — one probe per family instead of one
    // per task, the cheap mode for very wide workflows.
    let pdc = Pdc::new(MashupConfig::aws(nodes))
        .with_objective(objective)
        .with_probe_sharing(args.has("--probe-sharing"))
        .try_decide(&w)
        .unwrap_or_else(|e| die_diagnosed(&e));
    let f = &pdc.factors;
    println!(
        "plan for '{}' on {nodes} nodes ({} sub-clusters, alpha={:.4}, beta={:.2}, \
         store={:.2e} B/s):",
        w.name, pdc.subclusters, f.alpha, f.beta, f.store_bps
    );
    for d in &pdc.decisions {
        let reason = d
            .forced_vm_reason
            .as_deref()
            .map(|r| format!("  [{r}]"))
            .unwrap_or_default();
        println!(
            "  {:<20} C={:<5} T_vm={:>9.1}s  T_sl≈{:>9.1}s  probe={:>8.1}s  -> {}{}",
            d.name,
            d.components,
            d.t_vm_secs,
            d.t_serverless_est_secs,
            d.probe_secs,
            d.platform,
            reason
        );
    }
    println!(
        "profiling cost: ${:.4} (amortized over production runs)",
        pdc.profiling_expense.total()
    );
}

fn run(args: &Args) {
    let cfg = MashupConfig::aws(args.nodes(8));
    let strategy = args.strategy();
    let report = run_strategy(strategy, &cfg, &args.workflow(), &Tracer::off());
    print_report(cli_name(strategy), &report);
    for t in &report.tasks {
        println!(
            "  {:<20} {:<10} {:>8.1}s  (cold {:>5.1}s, io {:>7.1}s, {} ckpts)",
            t.name,
            t.platform.to_string(),
            t.makespan_secs(),
            t.cold_start_secs,
            t.io_secs,
            t.checkpoints
        );
    }
    println!("\n{}", report.render_gantt(60));
}

fn trace(args: &Args) {
    let cfg = MashupConfig::aws(args.nodes(8));
    let strategy = args.strategy();
    let format = args
        .read("--format", |v| match v {
            Some("jsonl") => "jsonl",
            Some("chrome") => "chrome",
            other => die(&format!("unknown trace format {other:?}")),
        })
        .unwrap_or("jsonl");
    let out = args.path("--out");
    let w = args.workflow();
    let tracer = if args.has("--verbose") {
        Tracer::verbose()
    } else {
        Tracer::new()
    };
    let report = run_strategy(strategy, &cfg, &w, &tracer);
    let records = tracer.take();
    let body = match format {
        "chrome" => mashup::sim::trace::to_chrome_trace(&records),
        _ => mashup::sim::trace::to_jsonl(&records),
    };
    match &out {
        Some(path) => {
            write_file(path, &body);
            eprintln!(
                "wrote {} records ({format} format) to {path}",
                records.len()
            );
        }
        None => print!("{body}"),
    }
    if args.has("--check") {
        let violations = mashup::engine::trace::check(&cfg, &w, &report, &records);
        if violations.is_empty() {
            eprintln!("trace check: all invariants hold");
        } else {
            for v in &violations {
                eprintln!("trace check: {v}");
            }
            std::process::exit(1);
        }
    }
}

fn compare(args: &Args) {
    let nodes = args.nodes(8);
    let w = args.workflow();
    let cfg = MashupConfig::aws(nodes);
    println!("'{}' on {nodes} nodes:", w.name);
    let reports: Vec<WorkflowReport> = COMPARED
        .into_iter()
        .map(|s| {
            let report = run_strategy(s, &cfg, &w, &Tracer::off());
            print_report(cli_name(s), &report);
            report
        })
        .collect();
    let (traditional, mashup) = (&reports[0], &reports[COMPARED.len() - 1]);
    println!(
        "\nmashup vs traditional: {:.1}% time, {:.1}% expense",
        improvement_pct(mashup.makespan_secs, traditional.makespan_secs),
        improvement_pct(mashup.expense.total(), traditional.expense.total())
    );
}

/// `mashup pareto`: search the fusion × right-sizing plan space and print
/// the time/expense Pareto front (see `mashup-serve`'s `pareto` module).
fn pareto(args: &Args) {
    let nodes = args.nodes(8);
    let budget = args
        .num_where("--budget", "a positive integer", |&b| b >= 1)
        .unwrap_or(200);
    if let Some(jobs) = args.num("--jobs", "a positive integer") {
        mashup::serve::set_jobs(jobs);
    }
    let out = args.path("--out");
    let w = args.workflow();
    let cfg = MashupConfig::aws(nodes);
    let started = std::time::Instant::now();
    let outcome = mashup::serve::pareto_sweep(&cfg, &w, budget);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "Pareto front for '{}' on {nodes} nodes (budget {budget} candidates):",
        w.name
    );
    println!("{:<44} {:>10} {:>11}", "candidate", "makespan", "expense");
    for p in &outcome.front {
        println!(
            "{:<44} {:>9.1}s  ${:<10.4}",
            p.label, p.makespan_secs, p.expense_dollars
        );
    }
    let s = &outcome.stats;
    eprintln!(
        "[pareto] {} generated, {} deduped, {} pruned, {} evaluated, {} coalesced, \
         {} executed in {wall:.2}s ({:.1} candidates/s)",
        s.generated,
        s.deduped,
        s.pruned,
        s.evaluated,
        s.coalesced,
        s.executed,
        s.evaluated as f64 / wall.max(1e-9),
    );
    let c = &s.cache;
    eprintln!(
        "[plan-cache] calibration {}h/{}m  vm-profile {}h/{}m  probes {}h/{}m  \
         phase-profiles {}h/{}m  ({} entries, {:.1}% hits overall)",
        c.calibration.hits,
        c.calibration.misses,
        c.vm_profile.hits,
        c.vm_profile.misses,
        c.probes.hits,
        c.probes.misses,
        c.phase_profiles.hits,
        c.phase_profiles.misses,
        c.entries(),
        c.hit_pct(),
    );
    if let Some(path) = &out {
        // Drop the cache section from the artifact: its miss-side
        // compute_secs are wall-clock timings, so keeping them would make
        // the file vary across worker counts. The front and every search
        // counter are deterministic; cache telemetry lives on stderr.
        let mut value = serde::Serialize::to_value(&outcome);
        if let serde::Value::Object(fields) = &mut value {
            for (k, v) in fields.iter_mut() {
                if k == "stats" {
                    if let serde::Value::Object(stats) = v {
                        stats.retain(|(k, _)| k != "cache");
                    }
                }
            }
        }
        write_file(path, &to_json(&value));
        eprintln!("wrote JSON front to {path}");
    }
}

/// `mashup chaos`: executes the workflow three times — fault-free, then
/// under a seeded fault schedule with the static plan riding the faults
/// out, then with the online replanning controller on — and prints the
/// comparison plus a chaos event summary. `--check` replays both chaos
/// traces through the trace-invariant oracle and exits nonzero on any
/// violation. Everything is derived from the seed: rerunning the command
/// reproduces every fault, retry, and replan bit-identically.
fn chaos(args: &Args) {
    let nodes = args.nodes(16);
    let seed: u64 = args.num("--seed", "an integer").unwrap_or(1);
    let profile = args
        .read("--profile", |v| match v {
            Some(p @ ("preemption" | "storage" | "mixed")) => p.to_string(),
            other => die(&format!("unknown fault profile {other:?}")),
        })
        .unwrap_or_else(|| "preemption".into());
    let horizon: Option<f64> = args.num_where("--horizon", "positive seconds", |&h| h > 0.0);
    let straggler_factor: f64 = args.num("--straggler-factor", "a number").unwrap_or(0.0);
    let strategy = args.strategy();
    let w = args.workflow();
    let cfg = MashupConfig::aws(nodes);
    let run = |cfg: &MashupConfig, tracer: &Tracer| run_strategy(strategy, cfg, &w, tracer);

    // The fault-free reference also sizes the default fault horizon.
    let base = run(&cfg, &Tracer::off());
    let horizon = horizon.unwrap_or(base.makespan_secs);
    let prof = match profile.as_str() {
        "storage" => FaultProfile::storage(horizon),
        "mixed" => FaultProfile::mixed(horizon),
        _ => FaultProfile::preemption(horizon),
    };
    let plan = FaultPlan::generate(seed, &prof, nodes, cfg.cluster.instance.price_per_hour);
    println!(
        "'{}' on {nodes} nodes, {profile} faults (seed {seed}, horizon {horizon:.0}s): \
         {} scheduled",
        w.name,
        plan.faults.len()
    );

    let static_cfg = cfg.clone().with_chaos(ChaosSpec::new(plan.clone()));
    let adaptive_cfg = cfg.clone().with_chaos(
        ChaosSpec::new(plan)
            .with_adaptive(true)
            .with_straggler_factor(straggler_factor),
    );
    let s_tracer = Tracer::new();
    let s_report = run(&static_cfg, &s_tracer);
    let s_records = s_tracer.take();
    let a_tracer = Tracer::new();
    let a_report = run(&adaptive_cfg, &a_tracer);
    let a_records = a_tracer.take();

    print_report("fault-free", &base);
    print_report("static", &s_report);
    print_report("adaptive", &a_report);
    println!(
        "adaptive vs static: {:.1}% time, {:.1}% expense",
        improvement_pct(a_report.makespan_secs, s_report.makespan_secs),
        improvement_pct(a_report.expense.total(), s_report.expense.total())
    );
    for (label, records) in [("static", &s_records), ("adaptive", &a_records)] {
        let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count();
        println!(
            "{label:<9} preemptions {}, fault windows {}, comp retries {}, \
             storage retries {}, replans {}",
            count(|e| matches!(e, TraceEvent::SpotPreempt { .. })),
            count(|e| matches!(e, TraceEvent::FaultInjected { .. })),
            count(|e| matches!(e, TraceEvent::CompRetry { .. })),
            count(|e| matches!(e, TraceEvent::FaultRetry { .. })),
            count(|e| matches!(e, TraceEvent::Replan { .. })),
        );
    }
    if args.has("--check") {
        let mut bad = 0usize;
        for (label, run_cfg, report, records) in [
            ("static", &static_cfg, &s_report, &s_records),
            ("adaptive", &adaptive_cfg, &a_report, &a_records),
        ] {
            for v in mashup::engine::trace::check(run_cfg, &w, report, records) {
                eprintln!("trace check [{label}]: {v}");
                bad += 1;
            }
        }
        if bad > 0 {
            std::process::exit(1);
        }
        eprintln!("trace check: all invariants hold on both chaos traces");
    }
}

/// `mashup serve`: JSONL planning service over stdio. Each stdin line is a
/// `PlanRequest`; replies are written to stdout as JSONL in submission
/// order. Admission rejections and parse errors go to stderr; the process
/// exits once stdin closes and the backlog drains.
fn serve(args: &Args) {
    use mashup::serve::{PlanRequest, PlanService, ServiceConfig, Ticket};
    let workers = workers(args);
    let queue_depth = args
        .num("--queue-depth", "a positive integer")
        .unwrap_or(ServiceConfig::default().queue_depth);
    let service = PlanService::new(ServiceConfig { queue_depth });
    let handles = service.spawn_workers(workers);
    let mut tickets: Vec<Ticket> = Vec::new();
    for (lineno, line) in std::io::stdin().lines().enumerate() {
        let line = line.unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        let req: PlanRequest = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mashup serve: line {}: invalid request: {e}", lineno + 1);
                continue;
            }
        };
        match service.submit(req) {
            Ok(t) => tickets.push(t),
            Err(r) => eprintln!("mashup serve: line {}: rejected: {r}", lineno + 1),
        }
    }
    for t in tickets {
        let reply = t.wait();
        println!(
            "{}",
            serde_json::to_string(&reply).unwrap_or_else(|e| die(&format!("serialize: {e}")))
        );
    }
    service.shutdown();
    for h in handles {
        let _ = h.join();
    }
    let stats = service.stats();
    eprintln!(
        "mashup serve: {} completed, {} rejected, cache {:.1}% hits",
        stats.completed,
        stats.rejected,
        stats.cache.hit_pct()
    );
}

/// `mashup load-test`: the closed-loop sweep (see `mashup-serve`'s
/// `loadtest` module and EXPERIMENTS.md §Planning-service load test).
fn load_test(args: &Args) {
    let request_counts: Vec<usize> = args
        .read("--requests", |list| {
            let list = list.unwrap_or_else(|| die("--requests needs a comma-separated list"));
            list.split(',')
                .map(|v| {
                    v.trim()
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad request count '{v}'")))
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1, 10, 100, 1000]);
    let parallelism = args
        .num("--parallelism", "a positive integer")
        .unwrap_or(100);
    let workers = workers(args);
    let with_scaling = !args.has("--no-scaling");
    let (out, csv) = (args.path("--out"), args.path("--csv"));
    let report = mashup::serve::run_sweep(&request_counts, parallelism, workers, with_scaling);
    println!(
        "closed-loop load test: {} cores, {} workers, up to {} clients",
        report.host_cores, report.workers, report.parallelism
    );
    println!("requests  completed  rejected  throughput     p50      p95      p99");
    for p in &report.points {
        println!(
            "{:>8}  {:>9}  {:>8}  {:>7.1}/s  {:>6.1}ms {:>6.1}ms {:>6.1}ms",
            p.requests, p.completed, p.rejected, p.throughput_rps, p.p50_ms, p.p95_ms, p.p99_ms
        );
    }
    if !report.scaling.is_empty() {
        println!(
            "\nworker scaling (warm cache, {} cores):",
            report.host_cores
        );
        for s in &report.scaling {
            println!(
                "  {:>2} workers  {:>7.1}/s  {:>4.2}x",
                s.workers, s.throughput_rps, s.speedup
            );
        }
    }
    if let Some(path) = &out {
        write_file(path, &to_json(&report));
        eprintln!("wrote JSON report to {path}");
    }
    if let Some(path) = &csv {
        write_file(path, &report.to_csv());
        eprintln!("wrote CSV report to {path}");
    }
}

/// The `--workers` count, by default one per pool job.
fn workers(args: &Args) -> usize {
    args.num("--workers", "a positive integer")
        .unwrap_or_else(mashup::serve::jobs)
}
