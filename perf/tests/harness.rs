//! Harness tests: the decorators are transparent, every workload emits
//! exactly the metrics `BENCHMARK.json` lists, and the seed moves the
//! serve workload's cold stream but not its hot set.

use greednet_des::SimResult;
use greednet_largen::{solve_finite, FiniteSolution};
use greednet_perf::des::{horizon, prepare_pass, TimedQDisc};
use greednet_perf::largen::{counted, game, THREADS};
use greednet_perf::serve::{pass_lines, HOT};
use greednet_perf::{run, Scale, Settings, Workload};
use greednet_serve::json::{parse, Json};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn sim_bits(r: &SimResult) -> Vec<u64> {
    let mut bits: Vec<u64> = r
        .mean_queue
        .iter()
        .chain(&r.mean_delay)
        .chain(&r.throughput)
        .chain(&r.total_queue_dist)
        .chain(r.queue_ci.iter().map(|ci| &ci.half_width))
        .map(|x| x.to_bits())
        .collect();
    bits.extend(
        r.delay_percentiles
            .iter()
            .flat_map(|p| [p.0, p.1, p.2].map(f64::to_bits)),
    );
    bits.extend(&r.completed);
    bits.push(r.total_mean_queue.to_bits());
    bits.push(r.events);
    bits
}

#[test]
fn timing_qdisc_leaves_every_result_bit_unchanged() {
    for workload in [Workload::DesStable, Workload::DesOverload] {
        let h = horizon(workload, Scale::Tiny);
        let plain = prepare_pass(workload, h, 7).expect("plain pass");
        let decorated = prepare_pass(workload, h, 7).expect("decorated pass");
        for ((run, mut qdisc), (same_run, same_qdisc)) in plain.into_iter().zip(decorated) {
            let a = run.engine.run(qdisc.as_mut()).expect("plain run");
            let mut timed = TimedQDisc::new(same_qdisc);
            let b = same_run.engine.run(&mut timed).expect("timed run");
            assert_eq!(sim_bits(&a.result), sim_bits(&b.result), "{}", run.label);
            assert_eq!(a.flows, b.flows, "{}", run.label);
            assert_eq!(timed.stats.shares_calls, b.result.events, "{}", run.label);
        }
    }
}

fn solution_bits(s: &FiniteSolution) -> Vec<u64> {
    let mut bits: Vec<u64> = s
        .class_x
        .iter()
        .chain(&s.class_phi)
        .map(|x| x.to_bits())
        .collect();
    bits.extend(&s.class_counts);
    bits.extend([s.load.to_bits(), s.residual.to_bits(), u64::from(s.sweeps)]);
    bits.push(u64::from(s.converged));
    bits
}

#[test]
fn counting_utility_leaves_every_solution_bit_unchanged() {
    for workload in [Workload::LargenFifo, Workload::LargenFsHeavy] {
        let g = game(workload, Scale::Tiny);
        let plain = solve_finite(g.disc, &g.classes, g.n, 3, THREADS, &g.opts).expect("plain");
        let evals = Arc::new(AtomicU64::new(0));
        let classes = counted(&g.classes, &evals);
        let decorated = solve_finite(g.disc, &classes, g.n, 3, THREADS, &g.opts).expect("counted");
        assert_eq!(
            solution_bits(&plain),
            solution_bits(&decorated),
            "{workload:?}"
        );
        assert!(evals.load(Ordering::Relaxed) > 0);
    }
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn tiny_runs_emit_every_benchmark_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = listed(&json, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let settings = Settings {
                seed: 1,
                seconds: 0.0,
                trace,
                scale: Scale::Tiny,
            };
            let out = run(workload, &settings).expect("tiny run");
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, listed(&json, key), "{workload:?} trace={trace}");
            assert!(
                out.correct,
                "{workload:?} trace={trace}: {} failed",
                out.failed
            );
            assert!(out.attempted > 0);
            assert_eq!(out.spans.spans().is_empty(), !trace, "{workload:?}");
        }
    }
}

#[test]
fn seed_changes_the_serve_cold_stream_but_not_the_hot_set() {
    let hot: BTreeSet<&str> = HOT.into_iter().collect();
    let split = |seed: u64| -> (BTreeSet<String>, BTreeSet<String>) {
        pass_lines(seed, 0, 50)
            .into_iter()
            .flatten()
            .map(|line| line.body)
            .partition(|body| hot.contains(body.as_str()))
    };
    let (hot_a, cold_a) = split(1);
    let (hot_b, cold_b) = split(2);
    // Both seeds ask for all four hot scenarios.
    assert_eq!(hot_a.len(), HOT.len());
    assert_eq!(hot_a, hot_b);
    assert!(!cold_a.is_empty() && !cold_b.is_empty());
    assert!(cold_a.is_disjoint(&cold_b));
    assert_eq!(pass_lines(1, 0, 50), pass_lines(1, 0, 50));
}
