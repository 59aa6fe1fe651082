//! Integration tests of the `mashup` CLI binary.

use std::process::Command;

/// The analyzer's fixtures; `bad_workflow.json` is structurally invalid.
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/analyze_fixtures");

fn mashup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mashup"))
}

#[test]
fn validate_reports_structure() {
    let out = mashup()
        .args(["validate", "SRAsearch"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 tasks"));
    assert!(stdout.contains("404 components"));
}

#[test]
fn dot_emits_graphviz() {
    let out = mashup()
        .args(["dot", "1000Genome"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("Individual (1252)"));
}

#[test]
fn plan_prints_decisions() {
    let out = mashup()
        .args(["plan", "SRAsearch", "--nodes", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FasterQ-Dump"));
    assert!(stdout.contains("profiling cost"));
    // The calibrated factors and each task's probe time explain a decision.
    assert!(stdout.contains("alpha=") && stdout.contains("store="));
    assert!(stdout.contains("probe="));
}

#[test]
fn run_executes_a_strategy() {
    let out = mashup()
        .args([
            "run",
            "SRAsearch",
            "--nodes",
            "4",
            "--strategy",
            "traditional",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("traditional"));
    assert!(stdout.contains("Merge2"));
}

#[test]
fn unknown_flags_fail_cleanly() {
    let out = mashup()
        .args(["plan", "SRAsearch", "--bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"));
}

/// Each subcommand refuses what it does not read, naming it on stderr.
#[test]
fn flags_and_arguments_a_subcommand_does_not_read_are_refused() {
    let bad = format!("{FIXTURES}/bad_workflow.json");
    let cases: [(&[&str], &str); 5] = [
        (
            &["analyze", &bad, "--format", "json"],
            "unknown flag '--format'",
        ),
        (
            &["run", "SRAsearch", "--objective", "expense"],
            "unknown flag '--objective'",
        ),
        (
            &["plan", "SRAsearch", "--strategy", "kepler"],
            "unknown flag '--strategy'",
        ),
        (
            &["dot", "SRAsearch", "--nodes", "3"],
            "unknown flag '--nodes'",
        ),
        (
            &["validate", "SRAsearch", "extra"],
            "unexpected argument 'extra'",
        ),
    ];
    for (args, why) in cases {
        let out = mashup().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{args:?}: {stderr}");
    }
}

/// `analyze` reports a workflow the other subcommands refuse as invalid.
#[test]
fn analyze_reports_every_finding_of_a_malformed_workflow() {
    let out = mashup()
        .args(["analyze", &format!("{FIXTURES}/bad_workflow.json")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let golden = std::fs::read_to_string(format!("{FIXTURES}/golden/bad_workflow.pretty"))
        .expect("read golden");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== config\n"), "{stdout}");
    assert!(stdout.ends_with(&golden), "{stdout}");
}

#[test]
fn analyze_suite_is_clean() {
    let out = mashup()
        .args(["analyze", "--suite"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== 1000Genome"), "{stdout}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = mashup()
        .args(["validate", "/nonexistent/wf.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn json_workflow_round_trips_through_the_cli() {
    let w = mashup::workflows::srasearch::workflow();
    let path = std::env::temp_dir().join("mashup-cli-test.json");
    std::fs::write(&path, mashup::dag::to_json(&w)).expect("write temp workflow");
    let out = mashup()
        .args(["validate", path.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("404 components"));
}

/// Every `--strategy` name the CLI accepts.
const CLI_STRATEGIES: [&str; 6] = [
    "mashup",
    "wo-pdc",
    "traditional",
    "serverless",
    "pegasus",
    "kepler",
];

#[test]
fn every_cli_strategy_runs_and_traces_cleanly() {
    for strategy in CLI_STRATEGIES {
        let run = mashup()
            .args(["run", "SRAsearch", "--nodes", "4", "--strategy", strategy])
            .output()
            .expect("binary runs");
        assert!(run.status.success(), "run --strategy {strategy}");
        assert!(String::from_utf8_lossy(&run.stdout).starts_with(strategy));
        let trace = mashup()
            .args([
                "trace",
                "SRAsearch",
                "--nodes",
                "4",
                "--strategy",
                strategy,
                "--check",
            ])
            .output()
            .expect("binary runs");
        assert!(trace.status.success(), "trace --strategy {strategy}");
        let stderr = String::from_utf8_lossy(&trace.stderr);
        assert!(
            stderr.contains("all invariants hold"),
            "{strategy}: {stderr}"
        );
    }
}

#[test]
fn unknown_strategy_fails_cleanly() {
    let out = mashup()
        .args(["run", "SRAsearch", "--strategy", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown strategy"));
}

#[test]
fn over_cap_task_is_refused_with_a_diagnostic() {
    let mut b = mashup::dag::WorkflowBuilder::new("oversized");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    b.add_task(mashup::dag::Task::new(
        "Huge",
        1,
        mashup::dag::TaskProfile::trivial()
            .compute(10.0)
            .memory(8.0),
    ));
    let w = b.build().expect("valid");
    let path = std::env::temp_dir().join("mashup-cli-oversized.json");
    std::fs::write(&path, mashup::dag::to_json(&w)).expect("write temp workflow");
    let path = path.to_str().expect("utf8 path");
    for cmd in ["run", "trace"] {
        let out = mashup()
            .args([cmd, path, "--strategy", "serverless"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("static analysis refused the input"),
            "{cmd}: {stderr}"
        );
        assert!(stderr.contains("M203"), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}
