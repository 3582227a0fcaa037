//! The classic simulator facade: open-loop Poisson sources only.
//!
//! [`Simulator`] is the stable entry point for the paper's experiments:
//! `n` Poisson sources, one work-conserving switch, a
//! [`QDisc`] deciding the share vector. Since the event-calendar
//! rework it is a thin typed facade over [`crate::engine::Engine`] —
//! [`SimConfig`] (typed units, open-loop rates) converts into an
//! all-open-loop [`EngineConfig`] and the run delegates; results are
//! bitwise identical to the pre-calendar drain-loop engine
//! (pinned in `tests/engine_equivalence.rs`).
//!
//! Closed-loop (ACK-clocked) sources and ECN marking are only reachable
//! through [`crate::engine::Engine`] directly, which also returns
//! per-flow records next to the [`SimResult`].

use crate::engine::{Engine, EngineConfig, DEFAULT_WINDOWS};
use crate::qdisc::QDisc;
use crate::service::ServiceDist;
use crate::units::{Rate, SimTime};
use crate::Result;
use greednet_numerics::stats::MeanCi;
use greednet_telemetry::{NoopProbe, Probe};

/// Simulation configuration for the open-loop facade.
///
/// Quantities carry their units in the type: rates are [`Rate`]s, the
/// horizon and warm-up are [`SimTime`]s. The unchecked `From<f64>`
/// conversions keep field mutation ergonomic (`cfg.warmup = 200.0.into()`);
/// validation happens once, at [`Simulator::new`] /
/// [`SimConfigBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Poisson arrival rate per user (packets per unit time; service rate
    /// is 1). Zero-rate users are allowed and simply never send.
    pub rates: Vec<Rate>,
    /// Simulated time horizon (measurement ends here).
    pub horizon: SimTime,
    /// Warm-up period discarded from all statistics.
    pub warmup: SimTime,
    /// Master RNG seed.
    pub seed: u64,
    /// Number of batch windows for confidence intervals (≥ 4).
    pub windows: usize,
    /// Permit total offered load ≥ 1 (protection experiments overload the
    /// switch on purpose; steady-state statistics for the overloading
    /// users are then meaningless, but insulated users remain valid).
    pub allow_overload: bool,
    /// Packet service-time distribution (unit mean). The engine tracks
    /// remaining work explicitly, so any distribution is exact under
    /// preemptive resume; `Exponential` reproduces the paper's M/M/1.
    pub service: ServiceDist,
}

impl SimConfig {
    /// A config with sensible defaults for validation runs.
    ///
    /// This is the legacy `f64` constructor, kept as a thin shim over the
    /// typed fields: rates and horizon are wrapped unvalidated (exactly
    /// like the old bare-float config) and checked at `Simulator::new`.
    pub fn new(rates: Vec<f64>, horizon: f64, seed: u64) -> Self {
        SimConfig {
            rates: rates.into_iter().map(Rate::raw).collect(),
            horizon: SimTime::raw(horizon),
            warmup: SimTime::raw(horizon * 0.1),
            seed,
            windows: DEFAULT_WINDOWS,
            allow_overload: false,
            service: ServiceDist::Exponential,
        }
    }

    /// Starts a validating builder over the given arrival rates.
    ///
    /// Unlike mutating a [`SimConfig`] in place, the builder checks every
    /// invariant (non-empty finite rates, `Σ r < 1` unless overload is
    /// allowed, positive horizon, warm-up before the horizon, ≥ 4 CI
    /// windows) once at [`SimConfigBuilder::build`] time, so an invalid
    /// configuration can never reach the simulator.
    pub fn builder(rates: Vec<f64>) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::new(rates, 100_000.0, 0),
            explicit_warmup: false,
        }
    }

    /// The rates as bare `f64`s (for rate-aware disciplines and
    /// analytical cross-checks).
    #[must_use]
    pub fn rate_values(&self) -> Vec<f64> {
        self.rates.iter().map(|r| r.get()).collect()
    }

    /// The equivalent all-open-loop engine configuration.
    #[must_use]
    pub fn to_engine(&self) -> EngineConfig {
        EngineConfig {
            sources: self
                .rates
                .iter()
                .map(|&rate| crate::entities::SourceSpec::OpenLoop { rate })
                .collect(),
            horizon: self.horizon,
            warmup: self.warmup,
            seed: self.seed,
            windows: self.windows,
            allow_overload: self.allow_overload,
            service: self.service,
            marking_threshold: None,
        }
    }

    fn validate(&self) -> Result<()> {
        self.to_engine().validate()
    }
}

/// Validating builder for [`SimConfig`]; see [`SimConfig::builder`].
///
/// Setter arguments are `impl Into<...>` over the typed units, so both
/// the legacy `f64` call sites and typed callers compile unchanged.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
    explicit_warmup: bool,
}

impl SimConfigBuilder {
    /// Sets the simulated time horizon. Unless a warm-up was set
    /// explicitly, the warm-up follows as 10% of the horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: impl Into<SimTime>) -> Self {
        let horizon = horizon.into();
        self.config.horizon = horizon;
        if !self.explicit_warmup {
            self.config.warmup = SimTime::raw(horizon.get() * 0.1);
        }
        self
    }

    /// Sets the warm-up period discarded from statistics.
    #[must_use]
    pub fn warmup(mut self, warmup: impl Into<SimTime>) -> Self {
        self.config.warmup = warmup.into();
        self.explicit_warmup = true;
        self
    }

    /// Sets the master RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of batch-means windows (≥ 4).
    #[must_use]
    pub fn windows(mut self, windows: usize) -> Self {
        self.config.windows = windows;
        self
    }

    /// Permits total offered load ≥ 1 (overload experiments).
    #[must_use]
    pub fn allow_overload(mut self, allow: bool) -> Self {
        self.config.allow_overload = allow;
        self
    }

    /// Sets the packet service-time distribution.
    #[must_use]
    pub fn service(mut self, service: ServiceDist) -> Self {
        self.config.service = service;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// Any violated invariant listed at [`SimConfig::builder`].
    pub fn build(self) -> Result<SimConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-user time-averaged number of packets in the system (the
    /// paper's `c_i`).
    pub mean_queue: Vec<f64>,
    /// 95% confidence intervals on `mean_queue` (batch means).
    pub queue_ci: Vec<MeanCi>,
    /// Per-user mean packet sojourn time.
    pub mean_delay: Vec<f64>,
    /// Per-user completed-packet throughput over the measurement window.
    pub throughput: Vec<f64>,
    /// Per-user completed packet counts (measurement window).
    pub completed: Vec<u64>,
    /// Total time-averaged queue (should match `g(Σ r)` in steady state).
    pub total_mean_queue: f64,
    /// Number of events processed.
    pub events: u64,
    /// Length of the measurement window.
    pub measured_time: SimTime,
    /// Per-user delay percentiles `(p50, p95, p99)` estimated from a
    /// 4096-sample reservoir per user (`(0, 0, 0)` for users with no
    /// completed packets).
    pub delay_percentiles: Vec<(f64, f64, f64)>,
    /// Time-weighted distribution of the TOTAL number in system:
    /// `total_queue_dist[k]` is the fraction of (measured) time exactly
    /// `k` packets were present, truncated at a fixed cap (the tail mass
    /// is folded into the last bin). For M/M/1 this is geometric,
    /// `(1-rho) rho^k` — validated in tests.
    pub total_queue_dist: Vec<f64>,
}

/// The discrete-event simulator (open-loop facade over the calendar
/// engine).
///
/// ```
/// use greednet_des::{Fifo, SimConfig, Simulator};
///
/// // One M/M/1 source at load 0.5: mean queue ~ 1, mean delay ~ 2.
/// let sim = Simulator::new(SimConfig::new(vec![0.5], 50_000.0, 42)).unwrap();
/// let result = sim.run(&mut Fifo::default()).unwrap();
/// assert!((result.mean_queue[0] - 1.0).abs() < 0.15);
/// assert!((result.mean_delay[0] - 2.0).abs() < 0.3);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    /// See [`SimConfig`] field documentation.
    pub fn new(config: SimConfig) -> Result<Self> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// Runs the simulation under `qdisc`.
    ///
    /// Delegates to [`run_probed`](Simulator::run_probed) with a
    /// [`NoopProbe`], whose statically-disabled instrumentation sites
    /// compile away — this path is exactly the un-instrumented engine.
    ///
    /// # Errors
    /// Returns configuration errors; the run itself is infallible.
    pub fn run(&self, qdisc: &mut dyn QDisc) -> Result<SimResult> {
        self.run_probed(qdisc, &mut NoopProbe)
    }

    /// Runs the simulation under `qdisc`, reporting packet-lifecycle
    /// events (arrival, service start, preemption, departure) and
    /// calendar schedule/fire events to `probe`.
    ///
    /// Observation is purely passive: the returned [`SimResult`] is
    /// bitwise identical for every probe, including [`NoopProbe`]
    /// (property-tested in `tests/telemetry.rs` at the workspace root).
    /// Service starts and preemptions are derived from share
    /// transitions: a packet whose share becomes positive emits
    /// [`ServiceStart`](greednet_telemetry::PacketEventKind::ServiceStart)
    /// (a resume after preemption emits a fresh one), and a packet whose
    /// share drops to zero while it remains in the system emits
    /// [`Preemption`](greednet_telemetry::PacketEventKind::Preemption).
    ///
    /// # Errors
    /// Returns configuration errors; the run itself is infallible.
    pub fn run_probed<P: Probe>(&self, qdisc: &mut dyn QDisc, probe: &mut P) -> Result<SimResult> {
        let engine = Engine::new(self.config.to_engine())?;
        Ok(engine.run_probed(qdisc, probe)?.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DesError;
    use crate::qdisc::{
        Fifo, FsPriorityTable, LifoPreemptive, PreemptivePriority, ProcessorSharing, QDisc,
        StartTimeFairQueueing,
    };
    use greednet_queueing::{mm1, AllocationFunction, FairShare, Proportional, SerialPriority};

    fn run(rates: &[f64], horizon: f64, seed: u64, d: &mut dyn QDisc) -> SimResult {
        let sim = Simulator::new(SimConfig::new(rates.to_vec(), horizon, seed)).unwrap();
        sim.run(d).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Simulator::new(SimConfig::new(vec![], 100.0, 0)).is_err());
        assert!(Simulator::new(SimConfig::new(vec![-0.1], 100.0, 0)).is_err());
        assert!(Simulator::new(SimConfig::new(vec![0.6, 0.6], 100.0, 0)).is_err());
        let mut over = SimConfig::new(vec![0.6, 0.6], 100.0, 0);
        over.allow_overload = true;
        assert!(Simulator::new(over).is_ok());
        let mut bad = SimConfig::new(vec![0.2], 100.0, 0);
        bad.warmup = 200.0.into();
        assert!(Simulator::new(bad).is_err());
        let mut badw = SimConfig::new(vec![0.2], 100.0, 0);
        badw.windows = 2;
        assert!(Simulator::new(badw).is_err());
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
        let mut cfg = SimConfig::new(rates.to_vec(), 8_000.0, 21);
        cfg.allow_overload = true;
        let sim = Simulator::new(cfg).unwrap();
        let mut d = FsPriorityTable::new(&rates, 8).unwrap();
        let r = sim.run(&mut d).unwrap();
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
        use greednet_telemetry::MetricsProbe;
        let sim = Simulator::new(SimConfig::new(vec![0.2, 0.3], 5_000.0, 17)).unwrap();
        let mut probe = MetricsProbe::new(2);
        let r = sim.run_probed(&mut Fifo::default(), &mut probe).unwrap();
        let m = probe.metrics();
        let arrivals: u64 = m
            .arrivals
            .iter()
            .map(greednet_telemetry::Counter::get)
            .sum();
        let departures: u64 = m
            .departures
            .iter()
            .map(greednet_telemetry::Counter::get)
            .sum();
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
        use greednet_telemetry::MetricsProbe;
        let sim = Simulator::new(SimConfig::new(vec![0.3, 0.3], 5_000.0, 23)).unwrap();
        let mut probe = MetricsProbe::new(2);
        sim.run_probed(&mut LifoPreemptive::default(), &mut probe)
            .unwrap();
        let m = probe.metrics();
        let departures: u64 = m
            .departures
            .iter()
            .map(greednet_telemetry::Counter::get)
            .sum();
        assert!(m.preemptions.get() > 0, "LIFO-preemptive must preempt");
        // Every preempted packet resumes later (or is still preempted at
        // the horizon), so starts exceed departures by about the
        // preemption count.
        assert!(m.service_starts.get() > departures);
    }

    #[test]
    fn probe_does_not_change_results() {
        use greednet_telemetry::MetricsProbe;
        let cfg = SimConfig::new(vec![0.2, 0.25], 20_000.0, 5);
        let a = Simulator::new(cfg.clone())
            .unwrap()
            .run(&mut Fifo::default())
            .unwrap();
        let mut probe = MetricsProbe::new(2);
        let b = Simulator::new(cfg)
            .unwrap()
            .run_probed(&mut Fifo::default(), &mut probe)
            .unwrap();
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
        use crate::service::ServiceDist;
        use greednet_queueing::mm1::{CongestionKernel, Mg1Kernel};
        let rates = vec![0.25, 0.35];
        let mut cfg = SimConfig::new(rates.clone(), 150_000.0, 64);
        cfg.service = ServiceDist::Deterministic;
        let sim = Simulator::new(cfg).unwrap();
        let r = sim.run(&mut Fifo::default()).unwrap();
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
        use crate::service::ServiceDist;
        use greednet_queueing::mm1::{CongestionKernel, Mg1Kernel};
        let cs2 = 4.0;
        let rates = vec![0.3, 0.2];
        let mut cfg = SimConfig::new(rates.clone(), 300_000.0, 65);
        cfg.service = ServiceDist::Hyperexponential { cs2 };
        let sim = Simulator::new(cfg).unwrap();
        let r = sim.run(&mut Fifo::default()).unwrap();
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
        use crate::service::ServiceDist;
        use greednet_queueing::kernelized::KernelFairShare;
        use greednet_queueing::mm1::Mg1Kernel;
        use std::sync::Arc;
        let rates = vec![0.15, 0.35];
        let expect = KernelFairShare::new(Arc::new(Mg1Kernel::new(0.0))).congestion(&rates);
        let mut cfg = SimConfig::new(rates.clone(), 250_000.0, 66);
        cfg.service = ServiceDist::Deterministic;
        let sim = Simulator::new(cfg).unwrap();
        let mut d = FsPriorityTable::new(&rates, 3).unwrap();
        let r = sim.run(&mut d).unwrap();
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
        let mut cfg = SimConfig::new(vec![0.3], 1000.0, 5);
        cfg.warmup = 900.0.into();
        let sim = Simulator::new(cfg).unwrap();
        let r = sim.run(&mut Fifo::default()).unwrap();
        assert_eq!(r.measured_time, SimTime::raw(100.0));
        assert!(r.mean_queue[0] >= 0.0);
    }

    #[test]
    fn builder_produces_validated_config() {
        let cfg = SimConfig::builder(vec![0.2, 0.3])
            .horizon(50_000.0)
            .seed(9)
            .windows(16)
            .service(ServiceDist::Erlang(2))
            .build()
            .unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.windows, 16);
        assert!(
            (cfg.warmup.get() - 5_000.0).abs() < 1e-9,
            "warmup tracks horizon"
        );
        assert!(Simulator::new(cfg).is_ok());
    }

    #[test]
    fn builder_rejects_saturated_load_at_construction() {
        let err = SimConfig::builder(vec![0.6, 0.6]).horizon(1000.0).build();
        assert!(matches!(err, Err(DesError::Saturated { .. })));
        // ... unless overload is explicitly allowed.
        assert!(SimConfig::builder(vec![0.6, 0.6])
            .horizon(1000.0)
            .allow_overload(true)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_bad_horizon_and_windows() {
        assert!(SimConfig::builder(vec![0.2]).horizon(-1.0).build().is_err());
        assert!(SimConfig::builder(vec![0.2])
            .horizon(100.0)
            .warmup(200.0)
            .build()
            .is_err());
        assert!(SimConfig::builder(vec![0.2]).windows(2).build().is_err());
    }
}
