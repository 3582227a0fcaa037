//! Implementations of the CLI commands.
//!
//! A scenario command (`nash`/`simulate`/`table`/`protect`/`largen`)
//! runs the spec that the serve field walk parsed from its flags through
//! the shared data path in `greednet_serve::ops`, and prints the
//! outcome's `render_text()` (pinned byte for byte by the golden tests in
//! `tests/golden_output.rs`). The `greednet serve` service parses the
//! same specs from JSON and renders the same outcomes as JSON, so CLI and
//! service can never drift apart.

use crate::args::{ExpCmdArgs, NetworkArgs, ServeArgs};
use greednet_core::game::NashOptions;
use greednet_core::utility::{BoxedUtility, LogUtility, UtilityExt};
use greednet_des::{MetricsProbe, TraceBuffer};
use greednet_serve::ops::{NashSpec, SimulateSpec};
use greednet_serve::{RequestKind, ServeOptions, Service};

/// Ring-buffer capacity for `--trace`: keeps the most recent events of
/// long runs while bounding memory.
const TRACE_CAP: usize = 65_536;

/// Writes a trace buffer as JSONL and prints a one-line summary.
fn write_trace(path: &str, trace: &TraceBuffer) -> Result<(), String> {
    std::fs::write(path, trace.to_jsonl())
        .map_err(|e| format!("cannot write trace file '{path}': {e}"))?;
    println!(
        "  trace: {} events -> {path} ({} observed, {} evicted)",
        trace.len(),
        trace.observed(),
        trace.evicted()
    );
    Ok(())
}

/// `greednet nash|simulate|table|protect|largen`: computes the parsed
/// scenario and prints it, with the `--trace` file and `--metrics`
/// report where the command has them.
pub fn scenario(kind: RequestKind, trace: Option<&str>, metrics: bool) -> Result<(), String> {
    let text = match kind {
        RequestKind::Nash(spec) => return nash(&spec, trace),
        RequestKind::Simulate(spec) => return simulate(&spec, trace, metrics),
        RequestKind::Table(spec) => spec.outcome().render_text(),
        RequestKind::Protect(spec) => spec.outcome().map_err(|e| e.to_string())?.render_text(),
        RequestKind::Largen(spec) => spec.solve().map_err(|e| e.to_string())?.render_text(),
        _ => return Err("not a scenario command".into()),
    };
    print!("{text}");
    Ok(())
}

fn nash(spec: &NashSpec, trace: Option<&str>) -> Result<(), String> {
    let mut buffer = trace.map(|_| TraceBuffer::new(TRACE_CAP));
    let out = match buffer.as_mut() {
        Some(t) => spec.solve_probed(t),
        None => spec.solve(),
    }
    .map_err(|e| e.to_string())?;
    print!("{}", out.render_text());
    if let (Some(path), Some(t)) = (trace, &buffer) {
        write_trace(path, t)?;
    }
    Ok(())
}

fn simulate(spec: &SimulateSpec, trace: Option<&str>, metrics: bool) -> Result<(), String> {
    // With --trace/--metrics the run is probed; the probe only observes,
    // so every reported number matches the unprobed run bitwise.
    let mut telemetry = None;
    let out = if trace.is_some() || metrics {
        let mut probe = (
            TraceBuffer::new(TRACE_CAP),
            MetricsProbe::new(spec.rates.len()),
        );
        let out = spec.outcome_probed(&mut probe);
        telemetry = Some(probe);
        out
    } else {
        spec.outcome()
    }
    .map_err(|e| e.to_string())?;
    print!("{}", out.render_text());
    if let Some((buffer, probe)) = telemetry {
        if let Some(path) = trace {
            write_trace(path, &buffer)?;
        }
        if metrics {
            print!("{}", probe.metrics().to_text());
        }
    }
    Ok(())
}

/// `greednet serve` — run the long-running scenario service.
pub fn serve(a: ServeArgs) -> Result<(), String> {
    let service = Service::new(ServeOptions {
        threads: a.threads,
        cache_capacity: a.cache,
    });
    match a.tcp {
        Some(addr) => service
            .serve_tcp(&addr, |local| {
                // Announce the bound address (stderr: stdout carries no
                // protocol in TCP mode, but scripts parse stderr for the
                // ephemeral port when binding :0).
                eprintln!("greednet serve: listening on {local}");
            })
            .map_err(|e| e.to_string()),
        None => service.serve_stdio().map_err(|e| e.to_string()),
    }
}

/// `greednet network`.
pub fn network(a: NetworkArgs) -> Result<(), String> {
    use greednet_network::{NetworkGame, Topology};
    if a.switches == 0 || a.switches > 16 {
        return Err("--switches must lie in 1..=16".into());
    }
    let alloc = greednet_serve::ops::build_alloc(&a.discipline).map_err(|e| e.to_string())?;
    let name = alloc.name();
    let k = a.switches;
    let users: Vec<BoxedUtility> = (0..=k).map(|_| LogUtility::new(0.5, 1.0).boxed()).collect();
    let net = NetworkGame::new(
        Topology::parking_lot(k).map_err(|e| e.to_string())?,
        alloc,
        users,
    )
    .map_err(|e| e.to_string())?;
    let nash = net
        .solve_nash(&NashOptions::default())
        .map_err(|e| e.to_string())?;
    println!("Parking-lot network with {k} switches under {name}:");
    println!(
        "  converged: {} in {} sweeps (residual {:.1e})",
        nash.converged, nash.iterations, nash.residual
    );
    println!(
        "  {:<10}{:>8}{:>12}{:>12}{:>12}",
        "user", "hops", "rate", "congestion", "utility"
    );
    for i in 0..net.n() {
        let role = if i == 0 { "through" } else { "local" };
        println!(
            "  {role:<10}{:>8}{:>12.5}{:>12.5}{:>12.5}",
            net.topology().hops(i),
            nash.rates[i],
            nash.congestions[i],
            nash.utilities[i]
        );
    }
    let gain = net
        .max_deviation_gain(&nash.rates, 128)
        .map_err(|e| e.to_string())?;
    println!("  max unilateral deviation gain: {gain:.2e}");
    Ok(())
}

/// `greednet exp` — run one registry experiment (or list them all).
pub fn exp(a: ExpCmdArgs) -> Result<(), String> {
    use greednet_bench::exp_cli::run_experiment;
    use greednet_bench::experiments::registry;
    let Some(id) = a.id else {
        println!("available experiments (greednet exp <ID> [--seed N] [--threads N] [--json|--csv] [--smoke] [--metrics]):");
        for e in registry().iter() {
            println!("  {:<5} {}", e.id(), e.title());
        }
        return Ok(());
    };
    let report = run_experiment(&id, &a.opts.ctx())?;
    print!("{}", report.render(a.opts.format));
    // Wall-clock telemetry is non-deterministic, so it goes to stderr;
    // stdout stays bitwise reproducible for a fixed seed.
    if a.opts.metrics && !report.telemetry().is_empty() {
        eprint!("{}", report.render_telemetry());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, run};

    /// Parses and runs a command line: the words of `line`, then `tail`.
    fn run_line(line: &str, tail: &[&str]) -> Result<(), String> {
        let args: Vec<String> = line
            .split_whitespace()
            .chain(tail.iter().copied())
            .map(String::from)
            .collect();
        run(parse(&args).unwrap())
    }

    #[test]
    fn simulate_with_telemetry_and_explicit_stats_windows() {
        let path = std::env::temp_dir().join("greednet_cli_cmd_trace.jsonl");
        let path_s = path.to_string_lossy().into_owned();
        let line = "simulate --rates 0.2,0.1 --horizon 3000 --seed 5 --warmup 200 --windows 8 --metrics --trace";
        run_line(line, &[&path_s]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 10);
        assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).ok();

        // Invalid window counts surface the simulator's validation error.
        let err = run_line("simulate --rates 0.2,0.1 --horizon 3000 --windows 2", &[]).unwrap_err();
        assert!(err.contains("at least 4 windows"), "{err}");
    }

    #[test]
    fn nash_command_writes_solver_trace() {
        let path = std::env::temp_dir().join("greednet_cli_nash_trace.jsonl");
        let path_s = path.to_string_lossy().into_owned();
        run_line("nash --users log:0.5,1.0 --trace", &[&path_s]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("best_response"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn network_command_end_to_end() {
        network(NetworkArgs {
            switches: 2,
            discipline: "fs".into(),
        })
        .unwrap();
        assert!(network(NetworkArgs {
            switches: 0,
            discipline: "fs".into()
        })
        .is_err());
        assert!(network(NetworkArgs {
            switches: 2,
            discipline: "bogus".into()
        })
        .is_err());
    }

    #[test]
    fn largen_command_end_to_end() {
        let classes = "--classes log:0.6,1.0;log:0.4,1.0";
        run_line(
            &format!("largen --n 1000 {classes} --weights 3,1 --threads 2"),
            &[],
        )
        .unwrap();
        // Continuum mode (n = 0) and validation errors surface cleanly.
        run_line("largen --discipline fifo --n 0 --classes log:0.5,1.0", &[]).unwrap();
        assert!(run_line("largen --n 100 --classes log:0.5,1.0 --weights 1,2", &[]).is_err());
    }

    #[test]
    fn table_and_protect_end_to_end() {
        run_line("table --rates 0.05,0.1,0.2", &[]).unwrap();
        run_line("protect", &[]).unwrap();
        assert!(run_line("protect --n 0", &[]).is_err());
        assert!(run_line("protect --victim 2", &[]).is_err());
    }
}
