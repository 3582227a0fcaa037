//! Tier-1 guarantees for `greednet-telemetry`: probes are pure observers
//! (a probed simulation returns bitwise-identical results), the solver
//! layers emit their iterate events, traces export schema-valid JSONL,
//! and metrics gathered under parallel replication merge in task order.

use greednet_des::scenarios::DisciplineKind;
use greednet_des::{Engine, EngineConfig, MetricsProbe, NoopProbe, SimResult, TraceBuffer};
use greednet_telemetry::{Probe, SimMetrics};
use proptest::prelude::*;

fn simulate(
    rates: &[f64],
    seed: u64,
    kind: DisciplineKind,
) -> (Engine, Box<dyn greednet_des::QDisc>) {
    let engine = Engine::new(EngineConfig::open_loop(rates, 8_000.0, seed)).expect("valid config");
    let d = kind.build(rates, seed ^ 0x7e1e).expect("discipline");
    (engine, d)
}

/// Bitwise equality of every numeric field of two simulation results.
fn assert_bitwise_eq(a: &SimResult, b: &SimResult, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.mean_queue),
        bits(&b.mean_queue),
        "{what}: mean_queue"
    );
    assert_eq!(
        bits(&a.mean_delay),
        bits(&b.mean_delay),
        "{what}: mean_delay"
    );
    assert_eq!(
        bits(&a.throughput),
        bits(&b.throughput),
        "{what}: throughput"
    );
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(
        a.total_mean_queue.to_bits(),
        b.total_mean_queue.to_bits(),
        "{what}: total_mean_queue"
    );
    assert_eq!(a.events, b.events, "{what}: events");
    assert_eq!(
        bits(&a.total_queue_dist),
        bits(&b.total_queue_dist),
        "{what}: total_queue_dist"
    );
    for (ca, cb) in a.queue_ci.iter().zip(&b.queue_ci) {
        assert_eq!(
            ca.half_width.to_bits(),
            cb.half_width.to_bits(),
            "{what}: queue_ci"
        );
    }
}

#[test]
fn probes_never_change_simulation_results() {
    let rates = [0.15, 0.3, 0.2];
    for kind in [
        DisciplineKind::Fifo,
        DisciplineKind::LifoPreemptive,
        DisciplineKind::ProcessorSharing,
        DisciplineKind::SerialPriority,
        DisciplineKind::FsTable,
        DisciplineKind::Sfq,
    ] {
        let (engine, mut d) = simulate(&rates, 11, kind);
        let plain = engine.run(d.as_mut()).expect("run").result;

        let (engine, mut d) = simulate(&rates, 11, kind);
        let noop = engine
            .run_probed(d.as_mut(), &mut NoopProbe)
            .expect("noop")
            .result;
        assert_bitwise_eq(&plain, &noop, kind.label());

        let (engine, mut d) = simulate(&rates, 11, kind);
        let mut probe = (TraceBuffer::new(512), MetricsProbe::new(rates.len()));
        let probed = engine
            .run_probed(d.as_mut(), &mut probe)
            .expect("probed")
            .result;
        assert_bitwise_eq(&plain, &probed, kind.label());
        assert!(
            probe.0.observed() > 0,
            "{}: trace saw no events",
            kind.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn run_probed_matches_run_for_random_configs(
        seed in 0u64..1_000_000,
        r0 in 0.02f64..0.4,
        r1 in 0.02f64..0.4,
        kind_ix in 0usize..3,
    ) {
        let kinds = [
            DisciplineKind::Fifo,
            DisciplineKind::FsTable,
            DisciplineKind::LifoPreemptive,
        ];
        let rates = [r0, r1];
        let (engine, mut d) = simulate(&rates, seed, kinds[kind_ix]);
        let plain = engine.run(d.as_mut()).expect("run").result;
        let (engine, mut d) = simulate(&rates, seed, kinds[kind_ix]);
        let mut probe = MetricsProbe::new(rates.len());
        let probed = engine.run_probed(d.as_mut(), &mut probe).expect("probed").result;
        assert_bitwise_eq(&plain, &probed, kinds[kind_ix].label());
    }
}

#[test]
fn sim_trace_is_schema_valid_jsonl() {
    let rates = [0.25, 0.25];
    let (engine, mut d) = simulate(&rates, 5, DisciplineKind::FsTable);
    let mut trace = TraceBuffer::new(100_000);
    engine.run_probed(d.as_mut(), &mut trace).expect("probed");
    let jsonl = trace.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(line.matches('{').count(), 1, "flat object: {line}");
        for key in [
            "\"seq\":",
            "\"type\":\"packet\"",
            "\"kind\":",
            "\"time\":",
            "\"user\":",
            "\"packet\":",
            "\"queue_len\":",
        ] {
            assert!(line.contains(key), "missing {key}: {line}");
        }
        let kind_field = line.split("\"kind\":\"").nth(1).unwrap();
        kinds.insert(kind_field.split('"').next().unwrap().to_string());
    }
    assert!(kinds.contains("arrival"), "{kinds:?}");
    assert!(kinds.contains("departure"), "{kinds:?}");
    assert!(kinds.contains("service_start"), "{kinds:?}");
    // Sequence numbers strictly increase line to line.
    let seqs: Vec<u64> = jsonl
        .lines()
        .map(|l| {
            l.split("\"seq\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn metrics_probe_counts_are_consistent_with_the_result() {
    let rates = [0.2, 0.35];
    let (engine, mut d) = simulate(&rates, 9, DisciplineKind::Fifo);
    let mut probe = MetricsProbe::new(rates.len());
    engine.run_probed(d.as_mut(), &mut probe).expect("probed");
    let m = probe.metrics();
    for u in 0..rates.len() {
        let arr = m.arrivals[u].get();
        let dep = m.departures[u].get();
        assert!(arr >= dep, "user {u}: departures exceed arrivals");
        assert!(arr > 0, "user {u}: no arrivals observed");
        assert_eq!(m.delay[u].count(), dep);
    }
    let total_arrivals: u64 = m
        .arrivals
        .iter()
        .map(greednet_telemetry::Counter::get)
        .sum();
    assert_eq!(
        m.occupancy.count(),
        total_arrivals,
        "PASTA sampling must fire once per arrival"
    );
    assert!(
        m.occupancy.zero_count() > 0,
        "some arrivals must find the system empty at this load"
    );
    assert_eq!(m.drops.get(), 0, "the lossless engine never drops");
    assert!(m.service_starts.get() > 0);
    assert!(m.busy_periods.count() > 0);
}

#[test]
fn solver_layers_emit_iterate_events() {
    use greednet_core::game::{Game, NashOptions};
    use greednet_core::utility::{LinearUtility, LogUtility, UtilityExt};
    use greednet_queueing::FairShare;

    let game = Game::new(
        FairShare::new(),
        vec![
            LogUtility::new(0.5, 1.0).boxed(),
            LinearUtility::new(1.0, 0.4).boxed(),
        ],
    )
    .expect("game");

    // Best-response sweeps.
    let mut trace = TraceBuffer::new(4096);
    let fixed = vec![None; 2];
    let sol = game
        .solve_nash_probed(&fixed, &NashOptions::default(), &mut trace)
        .expect("nash");
    let quiet = game.solve_nash(&NashOptions::default()).expect("nash");
    assert_eq!(sol.rates, quiet.rates, "probe changed the solution");
    let jsonl = trace.to_jsonl();
    assert!(jsonl.contains("\"kind\":\"best_response\""), "{jsonl}");
    assert!(trace.observed() >= 2 * sol.iterations as u64);

    // Newton relaxation steps.
    let mut trace = TraceBuffer::new(4096);
    let stepped = greednet_core::relaxation::newton_step_probed(&game, &[0.1, 0.1], 0, &mut trace);
    assert_eq!(
        stepped,
        greednet_core::relaxation::newton_step(&game, &[0.1, 0.1]),
        "probe changed the relaxation step"
    );
    assert!(trace.to_jsonl().contains("\"kind\":\"relaxation_step\""));

    // Learning automata updates are covered in greednet-learning's own
    // tests; here we only check the shared event type round-trips.
    let mut trace = TraceBuffer::new(4);
    trace.on_solver(&greednet_telemetry::SolverEvent::AutomataUpdate {
        round: 1,
        user: 0,
        action: 2,
        payoff: 0.5,
    });
    assert!(trace.to_jsonl().contains("\"kind\":\"automata_update\""));
}

#[test]
fn replication_metrics_merge_identically_at_any_thread_count() {
    use greednet_runtime::Replications;

    fn merged_metrics(threads: usize) -> SimMetrics {
        let rates = [0.2, 0.25];
        let reps = Replications::new(6, 77);
        let (_, out): (Vec<u64>, Vec<SimMetrics>) = reps
            .run(threads, |_, seed| {
                let (engine, mut d) = simulate(&rates, seed, DisciplineKind::FsTable);
                let mut probe = MetricsProbe::new(rates.len());
                let r = engine
                    .run_probed(d.as_mut(), &mut probe)
                    .expect("probed")
                    .result;
                (r.events, probe.into_metrics())
            })
            .into_iter()
            .unzip();
        let mut merged = SimMetrics::new(rates.len());
        for m in &out {
            merged.merge(m);
        }
        merged
    }

    let serial = merged_metrics(1);
    for threads in [4, 8] {
        let parallel = merged_metrics(threads);
        assert_eq!(serial.to_text(), parallel.to_text(), "{threads} threads");
        assert_eq!(serial.occupancy.count(), parallel.occupancy.count());
    }
}
