//! Implementations of the CLI commands.
//!
//! The scenario commands (`nash`/`simulate`/`table`/`protect`) are thin
//! wrappers over the shared data path in `greednet_serve::ops`: the spec
//! computes an outcome as data, and the command prints the outcome's
//! `render_text()` — byte-identical to the output these commands printed
//! when they formatted results inline (pinned by the golden tests in
//! `tests/golden_output.rs`). The `greednet serve` service renders the
//! same outcomes as JSON, so CLI and service can never drift apart.

use crate::args::{
    ExpCmdArgs, LargenArgs, NashArgs, NetworkArgs, ProtectArgs, ServeArgs, SimulateArgs, TableArgs,
    UtilitySpec,
};
use greednet_core::game::NashOptions;
use greednet_core::utility::{BoxedUtility, LogUtility, UtilityExt};
use greednet_des::{MetricsProbe, TraceBuffer};
use greednet_serve::ops::{
    LargenSpec, NashSpec, ProtectSpec, SimulateSpec, TableSpec, UtilityParam,
};
use greednet_serve::{ServeOptions, Service};

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

/// Converts parsed CLI utility specs to the shared data-path form.
fn to_params(specs: &[UtilitySpec]) -> Vec<UtilityParam> {
    specs
        .iter()
        .map(|s| UtilityParam {
            family: s.family.clone(),
            a: s.a,
            b: s.b,
        })
        .collect()
}

/// `greednet nash`.
pub fn nash(a: NashArgs) -> Result<(), String> {
    let spec = NashSpec {
        discipline: a.discipline.clone(),
        users: to_params(&a.users),
    };
    let mut trace = a.trace.as_ref().map(|_| TraceBuffer::new(TRACE_CAP));
    let out = match trace.as_mut() {
        Some(t) => spec.solve_probed(t),
        None => spec.solve(),
    }
    .map_err(|e| e.to_string())?;
    print!("{}", out.render_text());
    if let (Some(path), Some(t)) = (&a.trace, &trace) {
        write_trace(path, t)?;
    }
    Ok(())
}

/// `greednet simulate`.
pub fn simulate(a: SimulateArgs) -> Result<(), String> {
    let spec = SimulateSpec {
        rates: a.rates.clone(),
        discipline: a.discipline.clone(),
        horizon: a.horizon,
        warmup: a.warmup,
        windows: a.windows,
        seed: a.seed,
        service: a.service.clone(),
    };
    // With --trace/--metrics the run is probed; the probe only observes,
    // so every reported number matches the unprobed run bitwise.
    let mut telemetry = None;
    let out = if a.trace.is_some() || a.metrics {
        let mut probe = (
            TraceBuffer::new(TRACE_CAP),
            MetricsProbe::new(a.rates.len()),
        );
        let out = spec.outcome_probed(&mut probe);
        telemetry = Some(probe);
        out
    } else {
        spec.outcome()
    }
    .map_err(|e| e.to_string())?;
    print!("{}", out.render_text());
    if let Some((trace, probe)) = telemetry {
        if let Some(path) = &a.trace {
            write_trace(path, &trace)?;
        }
        if a.metrics {
            print!("{}", probe.metrics().to_text());
        }
    }
    Ok(())
}

/// `greednet table`.
pub fn table(a: TableArgs) -> Result<(), String> {
    print!("{}", TableSpec { rates: a.rates }.outcome().render_text());
    Ok(())
}

/// `greednet protect`.
pub fn protect(a: ProtectArgs) -> Result<(), String> {
    let out = ProtectSpec {
        n: a.n,
        victim: a.victim,
        discipline: a.discipline,
    }
    .outcome()
    .map_err(|e| e.to_string())?;
    print!("{}", out.render_text());
    Ok(())
}

/// `greednet largen`.
pub fn largen(a: LargenArgs) -> Result<(), String> {
    let out = LargenSpec {
        discipline: a.discipline,
        n: a.n,
        classes: to_params(&a.classes),
        weights: a.weights,
        seed: a.seed,
        threads: a.threads,
    }
    .solve()
    .map_err(|e| e.to_string())?;
    print!("{}", out.render_text());
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

    #[test]
    fn serve_command_stdio_contract_is_exercised_via_service() {
        // The serve command itself blocks on stdin; its data path is the
        // Service type, which the serve crate tests end-to-end. Here we
        // only pin the wrapper's option plumbing.
        let service = Service::new(ServeOptions {
            threads: 2,
            cache_capacity: 8,
        });
        let mut out = Vec::new();
        service
            .serve_stream(
                "{\"kind\":\"table\",\"id\":\"t\",\"rates\":[0.05,0.1,0.2]}\n".as_bytes(),
                &mut out,
            )
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"type\":\"result\""), "{text}");
    }

    #[test]
    fn nash_command_end_to_end() {
        let args = NashArgs {
            discipline: "fs".into(),
            users: vec![
                UtilitySpec {
                    family: "log".into(),
                    a: 0.5,
                    b: 1.0,
                },
                UtilitySpec {
                    family: "linear".into(),
                    a: 1.0,
                    b: 0.4,
                },
            ],
            trace: None,
        };
        nash(args).unwrap();
    }

    fn sim_args() -> SimulateArgs {
        SimulateArgs {
            rates: vec![0.2, 0.1],
            discipline: "fs".into(),
            horizon: 3000.0,
            warmup: None,
            windows: None,
            seed: 5,
            service: "M".into(),
            trace: None,
            metrics: false,
        }
    }

    #[test]
    fn simulate_command_end_to_end() {
        simulate(sim_args()).unwrap();
    }

    #[test]
    fn simulate_with_telemetry_and_explicit_stats_windows() {
        let path = std::env::temp_dir().join("greednet_cli_cmd_trace.jsonl");
        let mut args = sim_args();
        args.warmup = Some(200.0);
        args.windows = Some(8);
        args.trace = Some(path.to_string_lossy().into_owned());
        args.metrics = true;
        simulate(args).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 10);
        assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).ok();

        // Invalid window counts surface the simulator's validation error.
        let mut bad = sim_args();
        bad.windows = Some(2);
        let err = simulate(bad).unwrap_err();
        assert!(err.contains("at least 4 windows"), "{err}");
    }

    #[test]
    fn nash_command_writes_solver_trace() {
        let path = std::env::temp_dir().join("greednet_cli_nash_trace.jsonl");
        let args = NashArgs {
            discipline: "fs".into(),
            users: vec![UtilitySpec {
                family: "log".into(),
                a: 0.5,
                b: 1.0,
            }],
            trace: Some(path.to_string_lossy().into_owned()),
        };
        nash(args).unwrap();
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
        let args = LargenArgs {
            discipline: "fs".into(),
            n: 1_000,
            classes: vec![
                UtilitySpec {
                    family: "log".into(),
                    a: 0.6,
                    b: 1.0,
                },
                UtilitySpec {
                    family: "log".into(),
                    a: 0.4,
                    b: 1.0,
                },
            ],
            weights: vec![3.0, 1.0],
            seed: 1,
            threads: 2,
        };
        largen(args).unwrap();
        // Continuum mode (n = 0) and validation errors surface cleanly.
        largen(LargenArgs {
            discipline: "fifo".into(),
            n: 0,
            classes: vec![UtilitySpec {
                family: "log".into(),
                a: 0.5,
                b: 1.0,
            }],
            weights: Vec::new(),
            seed: 1,
            threads: 1,
        })
        .unwrap();
        assert!(largen(LargenArgs {
            discipline: "fs".into(),
            n: 100,
            classes: vec![UtilitySpec {
                family: "log".into(),
                a: 0.5,
                b: 1.0,
            }],
            weights: vec![1.0, 2.0],
            seed: 1,
            threads: 1,
        })
        .is_err());
    }

    #[test]
    fn table_and_protect_end_to_end() {
        table(TableArgs {
            rates: vec![0.05, 0.1, 0.2],
        })
        .unwrap();
        protect(ProtectArgs {
            n: 4,
            victim: 0.1,
            discipline: "fs".into(),
        })
        .unwrap();
        assert!(protect(ProtectArgs {
            n: 0,
            victim: 0.1,
            discipline: "fs".into()
        })
        .is_err());
        assert!(protect(ProtectArgs {
            n: 4,
            victim: 2.0,
            discipline: "fs".into()
        })
        .is_err());
    }
}
