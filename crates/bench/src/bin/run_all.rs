//! Runs every registered experiment in-process (T1, E1–E18), producing
//! the full paper-reproduction report captured in EXPERIMENTS.md.
//!
//! `cargo run --release -p greednet-bench --bin run_all -- [--seed N]
//! [--threads N] [--json|--csv] [--smoke]`. Per-experiment wall time goes
//! to stderr so it never pollutes piped report output.

use greednet_bench::exp_cli::ExpArgs;
use greednet_bench::experiments::registry;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "progress timings go to stderr, never into the report"
)]
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match ExpArgs::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run_all [--seed N] [--threads N] [--json|--csv|--format F] [--smoke] [--metrics]"
            );
            std::process::exit(2);
        }
    };
    let ctx = args.ctx();
    let reg = registry();
    let total = Instant::now();
    for exp in reg.iter() {
        let start = Instant::now();
        let report = exp.run(&ctx);
        print!("{}", report.render(args.format));
        println!();
        if args.metrics && !report.telemetry().is_empty() {
            eprint!("{}", report.render_telemetry());
        }
        eprintln!("[run_all] {} finished in {:.2?}", exp.id(), start.elapsed());
    }
    eprintln!(
        "[run_all] {} experiments in {:.2?}",
        reg.len(),
        total.elapsed()
    );
}
