//! Regenerates the paper's **Table 1** — the preemptive-priority
//! realization of the Fair Share allocation — for any rate vector, then
//! validates it by simulating packets through the priority table and
//! comparing against the closed-form allocation.
//!
//! Run with: `cargo run --release --example priority_table [r1 r2 ...]`

use greednet::des::{Engine, EngineConfig, FsPriorityTable};
use greednet::queueing::fair_share::priority_table;
use greednet::queueing::AllocationFunction;
use greednet::queueing::FairShare;

fn main() {
    let args: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("rates must be numbers"))
        .collect();
    // Default: the 4-user ascending example shaped like the paper's Table 1.
    let rates = if args.is_empty() {
        vec![0.05, 0.10, 0.20, 0.30]
    } else {
        args
    };
    let n = rates.len();

    println!("Fair Share priority table (paper Table 1) for rates {rates:?}\n");
    let table = priority_table(&rates);
    let letters: Vec<char> = ('A'..='Z').cycle().take(n).collect();

    print!("{:<6}", "user");
    for l in &letters {
        print!("{l:>9}");
    }
    println!("{:>10}", "total");
    for (u, row) in table.iter().enumerate() {
        print!("{u:<6}");
        for &v in row {
            if v > 0.0 {
                print!("{v:>9.3}");
            } else {
                print!("{:>9}", "-");
            }
        }
        println!("{:>10.3}", row.iter().sum::<f64>());
    }

    // Validate by simulation.
    println!("\nValidating against simulated packets (horizon 200k):");
    let expect = FairShare::new().congestion(&rates);
    let engine = Engine::new(EngineConfig::open_loop(&rates, 200_000.0, 7)).expect("config");
    let mut d = FsPriorityTable::new(&rates, 99).expect("table");
    let r = engine.run(&mut d).expect("run").result;
    println!(
        "{:<6}{:>14}{:>14}{:>12}{:>18}",
        "user", "C^FS (closed)", "simulated", "rel.err", "95% CI half-width"
    );
    for (u, &exp_u) in expect.iter().enumerate() {
        let rel = (r.mean_queue[u] - exp_u).abs() / exp_u.max(1e-12);
        println!(
            "{u:<6}{:>14.5}{:>14.5}{:>11.2}%{:>18.5}",
            exp_u,
            r.mean_queue[u],
            rel * 100.0,
            r.queue_ci[u].half_width
        );
    }
    println!("\n({} events simulated)", r.events);
}
