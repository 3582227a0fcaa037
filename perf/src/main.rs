//! `greednet-perf` — the benchmark's command line.
//!
//! ```text
//! greednet-perf bench --workload W [--seed S] [--seconds T] [--trace 0|1] [--out SPANS]
//! greednet-perf trace --workload W [--seed S] [--seconds T] [--out SPANS]
//! greednet-perf run [--seed S] [--repeat K] [--seconds T] [--out REPORT]
//! ```
//!
//! `bench` measures one workload in this process: it prints
//! `name value unit` per metric and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. It exits 1 when an
//! output check failed. `trace` is `bench --trace 1`; with `--out` it
//! also writes the traced pass's spans as JSONL. `run` re-executes itself
//! once per workload and repeat (seeds `S`, `S+1`, …), untraced, and
//! reports each end-to-end metric's median and quartiles.

use greednet_perf::metrics::quartiles;
use greednet_perf::{compact, run, Outcome, Scale, Settings, Workload, END_TO_END};
use greednet_runtime::{available_threads, BenchJson};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Seconds per measurement unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: greednet-perf bench --workload W [--seed S] [--seconds T] [--trace 0|1] [--out SPANS]
       greednet-perf trace --workload W [--seed S] [--seconds T] [--out SPANS]
       greednet-perf run [--seed S] [--repeat K] [--seconds T] [--out REPORT]
workloads: des_stable des_overload largen_fifo largen_fs_heavy serve_mixed";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be >= 1".into());
                }
            }
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let code = match parse_args(argv) {
        Err(e) => {
            eprintln!("greednet-perf: {e}\n{USAGE}");
            2
        }
        Ok(mut args) => match command.as_str() {
            "bench" | "trace" => {
                args.trace |= command == "trace";
                bench(&args)
            }
            "run" => run_all(&args),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// Measures one workload; prints its metrics and the result line.
fn bench(args: &Args) -> i32 {
    let Some(workload) = args.workload else {
        eprintln!("greednet-perf: --workload is required\n{USAGE}");
        return 2;
    };
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
    };
    let outcome = match run(workload, &settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("greednet-perf: {}: {e}", workload.name());
            return 1;
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, outcome.spans.to_jsonl()) {
            eprintln!("greednet-perf: write {path}: {e}");
            return 1;
        }
        eprintln!("wrote {} spans to {path}", outcome.spans.spans().len());
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        0
    } else {
        eprintln!(
            "greednet-perf: {} of {} operations failed their checks",
            outcome.failed, outcome.attempted
        );
        1
    }
}

/// The one-line JSON result.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = BenchJson::new();
    for m in &outcome.metrics {
        let mut entry = BenchJson::new();
        entry.num("value", m.value).str("unit", m.unit);
        metrics.obj(m.name.as_str(), entry);
    }
    let mut line = BenchJson::new();
    line.bool("correct", outcome.correct)
        .uint("attempted", outcome.attempted)
        .uint("failed", outcome.failed)
        .obj("metrics", metrics);
    compact(&line)
}

/// Runs every workload `repeat` times in fresh child processes and
/// reports median and quartiles per end-to-end metric.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("greednet-perf: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut failed_runs = 0u64;
    let mut workloads = BenchJson::new();
    for workload in Workload::ALL {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for k in 0..args.repeat {
            let seed = args.seed.wrapping_add(k as u64);
            let output = Command::new(&exe)
                .args(["bench", "--workload", workload.name(), "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("greednet-perf: cannot run {}: {e}", workload.name());
                    failed_runs += 1;
                    continue;
                }
            };
            if !output.status.success() {
                eprintln!("greednet-perf: {} seed {seed} failed", workload.name());
                failed_runs += 1;
            }
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                if let [name, value, _unit] = fields[..] {
                    if let Ok(v) = value.parse::<f64>() {
                        values.entry(name.to_string()).or_default().push(v);
                    }
                }
            }
        }
        let mut report = BenchJson::new();
        for &(name, unit) in END_TO_END {
            let v = values.get(name).map_or(&[][..], Vec::as_slice);
            let (q1, med, q3) = quartiles(v);
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            println!(
                "{:<16} {name:<15} {med:>12.6} {unit:<3} q1 {q1:.6} q3 {q3:.6} spread {:.1}% n={}",
                workload.name(),
                spread * 100.0,
                v.len()
            );
            let mut entry = BenchJson::new();
            entry
                .num("median", med)
                .num("q1", q1)
                .num("q3", q3)
                .str("unit", unit)
                .uint("runs", v.len() as u64);
            report.obj(name, entry);
        }
        workloads.obj(workload.name(), report);
    }
    let mut json = BenchJson::new();
    json.uint("host_threads", available_threads() as u64)
        .uint("seed", args.seed)
        .uint("repeat", args.repeat as u64)
        .num("seconds", args.seconds)
        .str("commit", commit())
        .uint("failed_runs", failed_runs)
        .obj("workloads", workloads);
    if let Err(e) = json.emit(args.out.as_deref()) {
        eprintln!("greednet-perf: {e}");
        return 1;
    }
    i32::from(failed_runs > 0)
}

/// The checked-out commit, or `unknown` outside a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
