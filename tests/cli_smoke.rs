//! End-to-end smoke tests of the `greednet` CLI binary: every subcommand
//! is exercised through the real executable.

use std::process::Command;

/// Runs the CLI through `cargo run -p greednet-cli` so the test does not
/// depend on artifact layout.
fn cli_output(args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.arg("run")
        .arg("--quiet")
        .arg("-p")
        .arg("greednet-cli")
        .arg("--");
    cmd.args(args);
    cmd.output().expect("failed to launch cargo run")
}

fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = cli_output(args);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run_cli(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("nash"));
    assert!(stdout.contains("simulate"));
}

#[test]
fn nash_subcommand_works() {
    let (ok, stdout, stderr) = run_cli(&[
        "nash",
        "--discipline",
        "fs",
        "--users",
        "log:0.5,1.0;linear:1.0,0.3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Nash equilibrium under fair share"));
    assert!(stdout.contains("max envy"));
}

#[test]
fn simulate_subcommand_works() {
    let (ok, stdout, stderr) = run_cli(&[
        "simulate",
        "--rates",
        "0.2,0.1",
        "--discipline",
        "fifo",
        "--horizon",
        "5000",
        "--service",
        "D",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Simulated FIFO"));
    assert!(stdout.contains("total mean queue"));
}

#[test]
fn table_and_protect_and_network_work() {
    let (ok, stdout, _) = run_cli(&["table", "--rates", "0.05,0.1,0.2"]);
    assert!(ok);
    assert!(stdout.contains("priority table"));

    let (ok, stdout, _) = run_cli(&["protect", "--n", "4", "--victim", "0.1"]);
    assert!(ok);
    assert!(stdout.contains("PROTECTED"));

    let (ok, stdout, _) = run_cli(&["network", "--switches", "2"]);
    assert!(ok);
    assert!(stdout.contains("through"));
}

#[test]
fn simulate_warmup_windows_and_telemetry_flags_work() {
    let trace = std::env::temp_dir().join("greednet_cli_smoke_trace.jsonl");
    let trace_s = trace.to_string_lossy().into_owned();
    let (ok, stdout, stderr) = run_cli(&[
        "simulate",
        "--rates",
        "0.3,0.3",
        "--horizon",
        "5000",
        "--warmup",
        "500",
        "--windows",
        "8",
        "--trace",
        &trace_s,
        "--metrics",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("total mean queue"));
    assert!(stdout.contains("trace:"), "{stdout}");
    assert!(stdout.contains("delay histogram"), "{stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(body.lines().count() > 100);
    for line in body.lines().take(50) {
        assert!(line.starts_with("{\"seq\":"), "{line}");
        assert!(line.contains("\"type\":\"packet\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    std::fs::remove_file(&trace).ok();

    // Validation errors from the new flags surface as CLI errors.
    let (ok, _, stderr) = run_cli(&["simulate", "--rates", "0.2", "--windows", "2"]);
    assert!(!ok);
    assert!(stderr.contains("at least 4 windows"), "{stderr}");
    let (ok, _, stderr) = run_cli(&[
        "simulate",
        "--rates",
        "0.2",
        "--horizon",
        "1000",
        "--warmup",
        "2000",
    ]);
    assert!(!ok);
    assert!(stderr.contains("horizon"), "{stderr}");
}

#[test]
fn exp_subcommand_smoke_with_metrics_reports_pool_utilization() {
    let (ok, stdout, stderr) = run_cli(&["exp", "e9", "--smoke", "--metrics", "--seed", "1"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("telemetry: log2 histograms"), "{stdout}");
    assert!(stdout.contains("occupancy@arrival"), "{stdout}");
    // Wall-clock pool stats go to stderr, keeping stdout deterministic.
    assert!(stderr.contains("utilization"), "{stderr}");
    assert!(stderr.contains("worker 0"), "{stderr}");
    assert!(!stdout.contains("utilization"), "{stdout}");
}

#[test]
fn bad_input_exits_nonzero_with_message() {
    let (ok, _, stderr) = run_cli(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = run_cli(&["simulate"]);
    assert!(!ok);
    assert!(stderr.contains("--rates"));

    // A misspelt option is a usage error that names it, never a run on
    // the default it failed to set.
    for args in [
        &["simulate", "--rates", "0.2,0.1", "--horizn", "3000"][..],
        &["network", "--switch", "5"][..],
    ] {
        let out = cli_output(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[args.len() - 2]), "{args:?}: {stderr}");
    }
}
