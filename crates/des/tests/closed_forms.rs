//! The engine against the closed forms it exists to validate: M/M/1
//! queue, delay and sojourn quantiles, Little's law, the proportional,
//! serial and Fair Share allocations (§3.1, Table 1), Pollaczek–Khinchine
//! totals for non-exponential service, the geometric occupancy law, and
//! the warm-up cut — plus the probe's lifecycle bookkeeping and seed
//! determinism. Everything goes through the public API:
//! `Engine::new(EngineConfig::open_loop(..))`, then `run` or
//! `run_probed`.

use greednet_des::{
    Engine, EngineConfig, Fifo, FsPriorityTable, LifoPreemptive, MetricsProbe, PreemptivePriority,
    ProcessorSharing, QDisc, ServiceDist, SimResult, SimTime, StartTimeFairQueueing,
};
use greednet_queueing::mm1::{CongestionKernel, Mg1Kernel};
use greednet_queueing::{mm1, AllocationFunction, FairShare, Proportional, SerialPriority};
use greednet_telemetry::Counter;

/// Runs `cfg` under `d` and returns the aggregate statistics.
fn run_cfg(cfg: EngineConfig, d: &mut dyn QDisc) -> SimResult {
    Engine::new(cfg).unwrap().run(d).unwrap().result
}

/// Runs the default open-loop configuration under `d`.
fn run(rates: &[f64], horizon: f64, seed: u64, d: &mut dyn QDisc) -> SimResult {
    run_cfg(EngineConfig::open_loop(rates, horizon, seed), d)
}

/// `open_loop(rates, horizon, seed)` with another service law.
fn with_service(rates: &[f64], horizon: f64, seed: u64, service: ServiceDist) -> EngineConfig {
    let mut cfg = EngineConfig::open_loop(rates, horizon, seed);
    cfg.service = service;
    cfg
}

#[test]
fn single_user_mm1_queue_and_delay() {
    // M/M/1 sanity: L = g(rho), W = 1/(1 - rho).
    let rho = 0.5;
    let r = run(&[rho], 200_000.0, 42, &mut Fifo::default());
    assert!(
        (r.mean_queue[0] - mm1::g(rho)).abs() < 0.05,
        "L = {} vs {}",
        r.mean_queue[0],
        mm1::g(rho)
    );
    assert!(
        (r.mean_delay[0] - 2.0).abs() < 0.1,
        "W = {} vs 2.0",
        r.mean_delay[0]
    );
    // Throughput matches the arrival rate in steady state.
    assert!((r.throughput[0] - rho).abs() < 0.01);
    // CI contains the true value.
    assert!(r.queue_ci[0].contains(mm1::g(rho)), "{:?}", r.queue_ci[0]);
}

#[test]
fn little_law_holds_per_user() {
    let rates = [0.2, 0.3];
    let r = run(&rates, 100_000.0, 7, &mut Fifo::default());
    for u in 0..2 {
        let lhs = r.mean_queue[u];
        let rhs = r.throughput[u] * r.mean_delay[u];
        assert!(
            (lhs - rhs).abs() < 0.05 * lhs.max(0.1),
            "Little: {lhs} vs {rhs}"
        );
    }
}

#[test]
fn fifo_lifo_ps_all_match_proportional_allocation() {
    let rates = [0.15, 0.35];
    let expect = Proportional::new().congestion(&rates);
    let horizon = 200_000.0;
    for (name, d) in [
        ("fifo", &mut Fifo::default() as &mut dyn QDisc),
        ("lifo", &mut LifoPreemptive::default()),
        ("ps", &mut ProcessorSharing),
    ] {
        let r = run(&rates, horizon, 1234, d);
        for (u, &exp_u) in expect.iter().enumerate() {
            let rel = (r.mean_queue[u] - exp_u).abs() / exp_u;
            assert!(
                rel < 0.05,
                "{name} user {u}: {} vs {}",
                r.mean_queue[u],
                exp_u
            );
        }
    }
}

#[test]
fn preemptive_priority_matches_serial_allocation() {
    let rates = [0.1, 0.25, 0.3];
    let expect = SerialPriority::new().congestion(&rates);
    let mut d = PreemptivePriority::by_ascending_rate(&rates).unwrap();
    let r = run(&rates, 250_000.0, 99, &mut d);
    for (u, &exp_u) in expect.iter().enumerate() {
        let rel = (r.mean_queue[u] - exp_u).abs() / exp_u;
        assert!(rel < 0.06, "user {u}: {} vs {}", r.mean_queue[u], exp_u);
    }
}

#[test]
fn fs_priority_table_matches_fair_share_allocation() {
    // The headline validation: Table 1 realizes C^FS packet-by-packet.
    let rates = [0.1, 0.2, 0.3];
    let expect = FairShare::new().congestion(&rates);
    let mut d = FsPriorityTable::new(&rates, 5).unwrap();
    let r = run(&rates, 250_000.0, 2024, &mut d);
    for (u, &exp_u) in expect.iter().enumerate() {
        let rel = (r.mean_queue[u] - exp_u).abs() / exp_u;
        assert!(rel < 0.06, "user {u}: {} vs {}", r.mean_queue[u], exp_u);
    }
}

#[test]
fn total_queue_is_discipline_invariant() {
    // Work conservation: sum of mean queues = g(total load) under any
    // discipline (same seed, same workload).
    let rates = [0.2, 0.25];
    let expect = mm1::g(0.45);
    let horizon = 200_000.0;
    let totals: Vec<f64> = vec![
        run(&rates, horizon, 3, &mut Fifo::default()).total_mean_queue,
        run(&rates, horizon, 3, &mut LifoPreemptive::default()).total_mean_queue,
        run(&rates, horizon, 3, &mut ProcessorSharing).total_mean_queue,
        run(
            &rates,
            horizon,
            3,
            &mut StartTimeFairQueueing::new(2).unwrap(),
        )
        .total_mean_queue,
    ];
    for t in totals {
        assert!((t - expect).abs() / expect < 0.05, "total {t} vs {expect}");
    }
}

#[test]
fn sfq_insulates_light_user_better_than_fifo() {
    // §5.2 in miniature: a light user shares with a heavy one; under
    // SFQ its delay is much closer to its solo M/M/1 delay.
    let rates = [0.1, 0.7];
    let horizon = 150_000.0;
    let fifo = run(&rates, horizon, 11, &mut Fifo::default());
    let sfq = run(
        &rates,
        horizon,
        11,
        &mut StartTimeFairQueueing::new(2).unwrap(),
    );
    assert!(
        sfq.mean_delay[0] < 0.6 * fifo.mean_delay[0],
        "SFQ delay {} vs FIFO delay {}",
        sfq.mean_delay[0],
        fifo.mean_delay[0]
    );
}

#[test]
fn overloaded_blaster_cannot_hurt_light_user_under_fs_table() {
    // Protection in packets: the blaster's load alone exceeds capacity,
    // yet the light user's queue stays near its Fair Share value.
    let rates = [0.1, 1.5];
    let mut cfg = EngineConfig::open_loop(&rates, 8_000.0, 21);
    cfg.allow_overload = true;
    let r = run_cfg(cfg, &mut FsPriorityTable::new(&rates, 8).unwrap());
    // FS closed form for the light user: g(2 * 0.1)/2.
    let expect = mm1::g(0.2) / 2.0;
    assert!(
        (r.mean_queue[0] - expect).abs() < 0.05,
        "light user queue {} vs {}",
        r.mean_queue[0],
        expect
    );
    // The blaster's queue grows without bound (order of horizon/4).
    assert!(r.mean_queue[1] > 100.0);
}

#[test]
fn zero_rate_user_is_inert() {
    let r = run(&[0.0, 0.4], 50_000.0, 2, &mut Fifo::default());
    assert_eq!(r.completed[0], 0);
    assert_eq!(r.mean_queue[0], 0.0);
    assert!(r.mean_queue[1] > 0.0);
}

#[test]
fn run_probed_emits_consistent_lifecycle_events() {
    let engine = Engine::new(EngineConfig::open_loop(&[0.2, 0.3], 5_000.0, 17)).unwrap();
    let mut probe = MetricsProbe::new(2);
    let r = engine
        .run_probed(&mut Fifo::default(), &mut probe)
        .unwrap()
        .result;
    let m = probe.metrics();
    let arrivals: u64 = m.arrivals.iter().map(Counter::get).sum();
    let departures: u64 = m.departures.iter().map(Counter::get).sum();
    // Every departure had an arrival; at most the final active set
    // is still in flight at the horizon.
    assert!(arrivals >= departures);
    assert!(arrivals - departures < 100, "{arrivals} vs {departures}");
    // FIFO is non-preemptive: each packet starts service exactly
    // once, and nothing is ever preempted.
    assert_eq!(m.preemptions.get(), 0);
    assert!(m.service_starts.get() >= departures);
    assert!(m.service_starts.get() <= departures + 1);
    // The probe saw at least the completed measurement-window
    // packets the engine reported.
    let completed: u64 = r.completed.iter().sum();
    assert!(departures >= completed);
    // Busy periods and occupancy were populated.
    assert!(m.busy_periods.count() > 0);
    assert_eq!(m.occupancy.count(), arrivals);
    // Calendar bookkeeping: every open-loop arrival is one fired
    // calendar command, and every fire was first scheduled.
    assert_eq!(m.fires.get(), arrivals);
    assert!(m.schedules.get() >= m.fires.get());
}

#[test]
fn preemptive_discipline_emits_preemptions_and_resumes() {
    let engine = Engine::new(EngineConfig::open_loop(&[0.3, 0.3], 5_000.0, 23)).unwrap();
    let mut probe = MetricsProbe::new(2);
    engine
        .run_probed(&mut LifoPreemptive::default(), &mut probe)
        .unwrap();
    let m = probe.metrics();
    let departures: u64 = m.departures.iter().map(Counter::get).sum();
    assert!(m.preemptions.get() > 0, "LIFO-preemptive must preempt");
    // Every preempted packet resumes later (or is still preempted at
    // the horizon), so starts exceed departures by about the
    // preemption count.
    assert!(m.service_starts.get() > departures);
}

#[test]
fn probe_does_not_change_results() {
    let engine = Engine::new(EngineConfig::open_loop(&[0.2, 0.25], 20_000.0, 5)).unwrap();
    let a = engine.run(&mut Fifo::default()).unwrap().result;
    let mut probe = MetricsProbe::new(2);
    let b = engine
        .run_probed(&mut Fifo::default(), &mut probe)
        .unwrap()
        .result;
    assert_eq!(a.mean_queue, b.mean_queue);
    assert_eq!(a.mean_delay, b.mean_delay);
    assert_eq!(a.total_queue_dist, b.total_queue_dist);
    assert_eq!(a.events, b.events);
    assert!(probe.metrics().occupancy.count() > 0);
}

#[test]
fn deterministic_given_seed() {
    let a = run(&[0.2, 0.2], 20_000.0, 77, &mut Fifo::default());
    let b = run(&[0.2, 0.2], 20_000.0, 77, &mut Fifo::default());
    assert_eq!(a.mean_queue, b.mean_queue);
    assert_eq!(a.events, b.events);
    let c = run(&[0.2, 0.2], 20_000.0, 78, &mut Fifo::default());
    assert_ne!(a.mean_queue, c.mean_queue);
}

#[test]
fn md1_total_queue_matches_pollaczek_khinchine() {
    let cfg = with_service(&[0.25, 0.35], 150_000.0, 64, ServiceDist::Deterministic);
    let r = run_cfg(cfg, &mut Fifo::default());
    let expect = Mg1Kernel::new(0.0).g(0.6);
    assert!(
        (r.total_mean_queue - expect).abs() / expect < 0.05,
        "M/D/1 total {} vs P-K {}",
        r.total_mean_queue,
        expect
    );
    // And strictly below the M/M/1 value.
    assert!(r.total_mean_queue < mm1::g(0.6));
}

#[test]
fn hyperexponential_total_queue_matches_pollaczek_khinchine() {
    let cs2 = 4.0;
    let service = ServiceDist::Hyperexponential { cs2 };
    let r = run_cfg(
        with_service(&[0.3, 0.2], 300_000.0, 65, service),
        &mut Fifo::default(),
    );
    let expect = Mg1Kernel::new(cs2).g(0.5);
    assert!(
        (r.total_mean_queue - expect).abs() / expect < 0.08,
        "H2 total {} vs P-K {}",
        r.total_mean_queue,
        expect
    );
    assert!(r.total_mean_queue > mm1::g(0.5));
}

#[test]
fn md1_fair_share_table_is_exact_for_the_lightest_user_only() {
    // For non-exponential service, mean number-in-system is NOT
    // scheduling-invariant, so the preemptive Table 1 realization is
    // exact only under M/M/1 (the paper's setting). The lightest
    // user's level is a standalone M/G/1 — still exact — while
    // preempted heavier users linger partially-served and their
    // mean queue exceeds the P-K serialization slightly.
    use greednet_queueing::kernelized::KernelFairShare;
    use std::sync::Arc;
    let rates = [0.15, 0.35];
    let expect = KernelFairShare::new(Arc::new(Mg1Kernel::new(0.0))).congestion(&rates);
    let cfg = with_service(&rates, 250_000.0, 66, ServiceDist::Deterministic);
    let r = run_cfg(cfg, &mut FsPriorityTable::new(&rates, 3).unwrap());
    // Lightest user: exact (its level is served ahead of everything).
    let rel0 = (r.mean_queue[0] - expect[0]).abs() / expect[0];
    assert!(
        rel0 < 0.04,
        "light user: {} vs {}",
        r.mean_queue[0],
        expect[0]
    );
    // Heavier user: biased HIGH by preemption, but within ~15%.
    assert!(
        r.mean_queue[1] > expect[1],
        "expected preemption inflation: {} <= {}",
        r.mean_queue[1],
        expect[1]
    );
    let rel1 = (r.mean_queue[1] - expect[1]).abs() / expect[1];
    assert!(
        rel1 < 0.15,
        "heavy user: {} vs {}",
        r.mean_queue[1],
        expect[1]
    );
}

#[test]
fn mm1_fifo_delay_percentiles_match_exponential_sojourn() {
    // M/M/1 FIFO sojourn time is Exp(1 - rho): quantile q at
    // -ln(1-q)/(1-rho).
    let rho = 0.5;
    let r = run(&[rho], 200_000.0, 29, &mut Fifo::default());
    let (p50, p95, p99) = r.delay_percentiles[0];
    let e50 = -(0.5f64).ln() / (1.0 - rho);
    let e95 = -(0.05f64).ln() / (1.0 - rho);
    let e99 = -(0.01f64).ln() / (1.0 - rho);
    assert!((p50 - e50).abs() / e50 < 0.1, "p50 {p50} vs {e50}");
    assert!((p95 - e95).abs() / e95 < 0.12, "p95 {p95} vs {e95}");
    assert!((p99 - e99).abs() / e99 < 0.2, "p99 {p99} vs {e99}");
}

#[test]
fn mm1_queue_length_distribution_is_geometric() {
    // P(N = k) = (1 - rho) rho^k for M/M/1 under ANY non-anticipating
    // work-conserving discipline (total count is discipline-invariant).
    let rho = 0.6;
    let r = run(&[rho], 200_000.0, 13, &mut Fifo::default());
    let mass: f64 = r.total_queue_dist.iter().sum();
    assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    for k in 0..8u8 {
        let expect = (1.0 - rho) * rho.powi(i32::from(k));
        let got = r.total_queue_dist[usize::from(k)];
        assert!(
            (got - expect).abs() < 0.015,
            "P(N={k}) = {got} vs geometric {expect}"
        );
    }
    // Same workload under PS gives the same total-count distribution.
    let r2 = run(&[rho], 200_000.0, 13, &mut ProcessorSharing);
    for k in 0..6usize {
        assert!(
            (r2.total_queue_dist[k] - r.total_queue_dist[k]).abs() < 0.02,
            "PS vs FIFO mismatch at {k}"
        );
    }
}

#[test]
fn warmup_is_discarded() {
    // A tiny horizon with most of it warm-up still produces sane output.
    let mut cfg = EngineConfig::open_loop(&[0.3], 1000.0, 5);
    cfg.warmup = SimTime::raw(900.0);
    let r = run_cfg(cfg, &mut Fifo::default());
    assert_eq!(r.measured_time, SimTime::raw(100.0));
    assert!(r.mean_queue[0] >= 0.0);
}
