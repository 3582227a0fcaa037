//! The two DES workloads: the §5.2 FTP/Telnet mix at stable load, and
//! the same mix under a blaster's overload.
//!
//! One pass runs every discipline of the workload once, each from the
//! pass's own seed (`child_seed(seed, pass)`); one operation is one DES
//! run. The traced pass wraps each discipline in [`TimedQDisc`]; a
//! separate counting pass observes the calendar and the packet stream
//! through [`CountingProbe`], because an enabled probe also switches on
//! the engine's share-transition bookkeeping, which would distort the
//! timed pass. The calendar and RNG costs per operation come from
//! replaying what the counting pass recorded.

use crate::metrics::{self, MetricSet};
use crate::spans::Spans;
use crate::workload::{
    median_setup, secs, timed_passes, Measured, Scale, Settings, Tally, Workload,
};
use greednet_des::calendar::{EventCalendar, EventQueue};
use greednet_des::engine::{Engine, EngineConfig, EngineReport};
use greednet_des::rng::ExpStream;
use greednet_des::scenarios::{ClosedScenario, DisciplineKind, Scenario};
use greednet_des::{
    ActivePacket, CalendarEvent, CalendarEventKind, NoopProbe, PacketEvent, PacketEventKind, Probe,
    QDisc, ServiceDist, SimTime, SourceSpec,
};
use greednet_runtime::{child_seed, ScopedTimer};
use greednet_telemetry::Log2Histogram;
use std::hint::black_box;
use std::time::Duration;

/// Per-source rates of the §5.2 mix: 2 FTP, 3 Telnet, and the blaster.
const FTP_RATE: f64 = 0.30;
const TELNET_RATE: f64 = 0.02;
const BLASTER_RATE: f64 = 1.0;
/// ECN marking threshold of the closed-loop AIMD run.
const MARKING: usize = 5;
/// Discipline seed salt, the one `Scenario::run` uses.
const DISC_SALT: u64 = 0xD15C;
/// Set-up repetitions; the median is reported. The first few
/// repetitions after process start can run slow for ~0.3 s, so the
/// median needs enough repetitions after them.
const SETUP_REPS: usize = 9;
/// The set-up's warm-up pass runs at this fraction of the horizon.
const WARMUP_FRACTION: f64 = 0.1;
/// Calendar operations and RNG draws replayed for the per-op costs.
const REPLAY_CAP: usize = 1 << 20;
/// Replay repetitions; the median is reported.
const REPLAYS: usize = 5;
/// Relative tolerance of the stable-load and AIMD checks.
const TOL: f64 = 0.05;

/// Simulated horizon per run.
#[must_use]
pub fn horizon(workload: Workload, scale: Scale) -> f64 {
    match (workload, scale) {
        (Workload::DesOverload, Scale::Full) => 2_500.0,
        (Workload::DesOverload, Scale::Tiny) => 300.0,
        (_, Scale::Full) => 600_000.0,
        (_, Scale::Tiny) => 200_000.0,
    }
}

/// Metric-name suffix of a discipline.
fn label(kind: DisciplineKind) -> &'static str {
    match kind {
        DisciplineKind::Fifo => "fifo",
        DisciplineKind::LifoPreemptive => "lifo",
        DisciplineKind::ProcessorSharing => "ps",
        DisciplineKind::SerialPriority => "serial",
        DisciplineKind::FsTable => "fs",
        DisciplineKind::Sfq => "sfq",
    }
}

/// One DES operation, ready to run.
#[derive(Debug)]
pub struct PreparedRun {
    /// Metric-name suffix (`fifo` … `sfq`, or `aimd_ecn`).
    pub label: &'static str,
    /// The discipline.
    pub kind: DisciplineKind,
    /// The validated engine.
    pub engine: Engine,
    /// Role per source: `ftp`, `telnet` or `blaster`.
    pub roles: Vec<&'static str>,
}

/// One pass: every run with a fresh discipline instance.
pub type Pass = Vec<(PreparedRun, Box<dyn QDisc>)>;

/// Builds one pass of `workload` at horizon `h` from `seed`: each run's
/// validated engine and a fresh discipline instance.
///
/// # Errors
/// Configuration or discipline construction failed.
pub fn prepare_pass(workload: Workload, h: f64, seed: u64) -> Result<Pass, String> {
    let mut mix = Scenario::ftp_telnet(2, FTP_RATE, 3, TELNET_RATE);
    let kinds: &[DisciplineKind] = if workload == Workload::DesOverload {
        mix = mix.with_blaster(BLASTER_RATE);
        &[
            DisciplineKind::Fifo,
            DisciplineKind::ProcessorSharing,
            DisciplineKind::SerialPriority,
            DisciplineKind::Sfq,
            DisciplineKind::FsTable,
        ]
    } else {
        &DisciplineKind::all()
    };
    let rates = mix.rates();
    let roles: Vec<&'static str> = mix.sources.iter().map(|s| role(&s.label)).collect();
    let mut runs = Vec::with_capacity(kinds.len() + 1);
    for &kind in kinds {
        let mut cfg = EngineConfig::open_loop(&rates, h, seed);
        if workload == Workload::DesOverload {
            // No warm-up cut: every departure counts, so throughput
            // accounting is exact while the backlog grows without bound.
            cfg.warmup = SimTime::ZERO;
            cfg.allow_overload = true;
        }
        let run = PreparedRun {
            label: label(kind),
            kind,
            engine: Engine::new(cfg).map_err(|e| e.to_string())?,
            roles: roles.clone(),
        };
        let qdisc = kind
            .build(&rates, seed ^ DISC_SALT)
            .map_err(|e| e.to_string())?;
        runs.push((run, qdisc));
    }
    if workload == Workload::DesStable {
        let closed = ClosedScenario::aimd_ftp_telnet(2, 3, TELNET_RATE).marking(MARKING);
        let cfg = EngineConfig {
            sources: closed.sources.iter().map(|(_, s)| s.clone()).collect(),
            horizon: SimTime::raw(h),
            warmup: SimTime::raw(h * 0.1),
            seed,
            windows: 32,
            allow_overload: true,
            service: ServiceDist::Exponential,
            marking_threshold: closed.marking_threshold,
        };
        let run = PreparedRun {
            label: "aimd_ecn",
            kind: DisciplineKind::Fifo,
            engine: Engine::new(cfg).map_err(|e| e.to_string())?,
            roles: closed.sources.iter().map(|(l, _)| role(l)).collect(),
        };
        let qdisc = DisciplineKind::Fifo
            .build(&closed.rates(), seed ^ DISC_SALT)
            .map_err(|e| e.to_string())?;
        runs.push((run, qdisc));
    }
    Ok(runs)
}

fn role(source_label: &str) -> &'static str {
    if source_label.starts_with("ftp") {
        "ftp"
    } else if source_label.starts_with("telnet") {
        "telnet"
    } else {
        "blaster"
    }
}

/// Checks one run's output.
///
/// * Stable open-loop runs: the total mean queue is within 5% of
///   `ρ/(1−ρ)` (Kleinrock's conservation law holds for every
///   work-conserving discipline).
/// * The AIMD/ECN run: the switch never serves more than capacity and
///   both transfers move traffic.
/// * Overloaded runs: the server never idles. Every discipline here is
///   blind to the size of the packet it picks and sizes are
///   exponential, so a busy unit-rate server completes a Poisson(`H`)
///   count of packets; the check allows 6 standard deviations, `6/√H`
///   (12% at `H` = 2500, where a fixed 5% would fail one run in 80).
/// * Under Fair Share and SFQ, FTP and Telnet complete at least
///   `(1 + 1/load)/2` of what they sent (Thm 8 protection). A protected
///   class finishes all but its bounded in-flight backlog, an
///   unprotected one (FIFO) only about `1/load` of it.
///
/// # Errors
/// A description of the first violated property.
pub fn check(workload: Workload, run: &PreparedRun, report: &EngineReport) -> Result<(), String> {
    let r = &report.result;
    let name = run.label;
    let config = run.engine.config();
    if config.sources.iter().any(SourceSpec::is_closed_loop) {
        let total: f64 = r.throughput.iter().sum();
        let ftp_acked = sum_role(run, "ftp", |u| report.flows[u].acked as f64);
        if total > 1.0 + TOL || ftp_acked <= 0.0 {
            return Err(format!(
                "{name}: throughput {total:.4}, ftp acks {ftp_acked}"
            ));
        }
        return Ok(());
    }
    let load: f64 = config.rate_values().iter().sum();
    if workload == Workload::DesStable {
        let expect = load / (1.0 - load);
        let got = r.total_mean_queue;
        if (got - expect).abs() > TOL * expect {
            return Err(format!(
                "{name}: total mean queue {got:.4} vs rho/(1-rho) {expect:.4}"
            ));
        }
        return Ok(());
    }
    let h = config.horizon.get();
    let done = r.completed.iter().sum::<u64>() as f64;
    if (done - h).abs() > 6.0 * h.sqrt() {
        return Err(format!(
            "{name}: {done} packets completed in {h} time units"
        ));
    }
    if matches!(run.kind, DisciplineKind::FsTable | DisciplineKind::Sfq) {
        let floor = 0.5 * (1.0 + 1.0 / load);
        for who in ["ftp", "telnet"] {
            let done = sum_role(run, who, |u| r.completed[u] as f64);
            let sent = sum_role(run, who, |u| report.flows[u].sent as f64);
            if done < floor * sent {
                return Err(format!(
                    "{name}: {who} completed {done} of {sent} sent, below {floor:.3}"
                ));
            }
        }
    }
    Ok(())
}

fn sum_role(run: &PreparedRun, who: &str, value: impl Fn(usize) -> f64) -> f64 {
    (0..run.roles.len())
        .filter(|&u| run.roles[u] == who)
        .map(value)
        .sum()
}

/// The deterministic fingerprint of a run: events, and the bits of every
/// mean queue and completion count.
fn fingerprint(report: &EngineReport) -> (u64, Vec<u64>, Vec<u64>) {
    let r = &report.result;
    (
        r.events,
        r.mean_queue.iter().map(|q| q.to_bits()).collect(),
        r.completed.clone(),
    )
}

/// A timing [`QDisc`] decorator: forwards every call to the wrapped
/// discipline and times it from outside. Results are bitwise identical to
/// the undecorated run.
#[derive(Debug)]
pub struct TimedQDisc {
    inner: Box<dyn QDisc>,
    /// What the decorator measured.
    pub stats: QDiscStats,
}

/// Aggregated per-call measurements of a [`TimedQDisc`].
#[derive(Debug, Clone, Default)]
pub struct QDiscStats {
    /// `shares` calls.
    pub shares_calls: u64,
    /// Time inside `shares`.
    pub shares: Duration,
    /// Per-call `shares` time, in ns.
    pub shares_ns: Log2Histogram,
    /// Time inside `on_arrival` and `on_departure`.
    pub notify: Duration,
    /// Sum of active-set sizes over `shares` calls.
    pub active_sum: u64,
    /// Largest active set seen.
    pub active_max: usize,
}

impl TimedQDisc {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn QDisc>) -> TimedQDisc {
        TimedQDisc {
            inner,
            stats: QDiscStats::default(),
        }
    }
}

impl QDisc for TimedQDisc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, pkt: &ActivePacket, now: SimTime) {
        let timer = ScopedTimer::start("");
        self.inner.on_arrival(pkt, now);
        self.stats.notify += timer.elapsed();
    }

    fn on_departure(&mut self, pkt: &ActivePacket, now: SimTime) {
        let timer = ScopedTimer::start("");
        self.inner.on_departure(pkt, now);
        self.stats.notify += timer.elapsed();
    }

    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        let timer = ScopedTimer::start("");
        self.inner.shares(active, now, out);
        let took = timer.elapsed();
        let s = &mut self.stats;
        s.shares += took;
        s.shares_calls += 1;
        s.shares_ns.record(took.as_nanos() as f64);
        s.active_sum += active.len() as u64;
        s.active_max = s.active_max.max(active.len());
    }
}

/// One recorded calendar operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalendarOp {
    /// A command scheduled at this fire time.
    Schedule(f64),
    /// The earliest command popped.
    Pop,
}

/// A counting [`Probe`]: calendar schedules, fires and depth, packet
/// arrivals per source, and a bounded prefix of the calendar operation
/// sequence for replay.
#[derive(Debug, Default)]
pub struct CountingProbe {
    /// Commands scheduled.
    pub schedules: u64,
    /// Commands fired.
    pub fires: u64,
    /// Largest number of pending commands.
    pub depth_max: u64,
    /// Packet arrivals, indexed by source.
    pub arrivals: Vec<u64>,
    /// Recorded operations (at most `cap`).
    pub ops: Vec<CalendarOp>,
    cap: usize,
}

impl CountingProbe {
    /// A probe recording at most `cap` calendar operations.
    #[must_use]
    pub fn new(cap: usize) -> CountingProbe {
        CountingProbe {
            cap,
            ..CountingProbe::default()
        }
    }
}

impl Probe for CountingProbe {
    fn on_calendar(&mut self, event: &CalendarEvent) {
        let op = match event.kind {
            CalendarEventKind::Schedule => {
                self.schedules += 1;
                self.depth_max = self.depth_max.max(self.schedules - self.fires);
                CalendarOp::Schedule(event.time)
            }
            CalendarEventKind::Fire => {
                self.fires += 1;
                CalendarOp::Pop
            }
        };
        if self.ops.len() < self.cap {
            self.ops.push(op);
        }
    }

    fn on_packet(&mut self, event: &PacketEvent) {
        if matches!(event.kind, PacketEventKind::Arrival { .. }) {
            if self.arrivals.len() <= event.user {
                self.arrivals.resize(event.user + 1, 0);
            }
            self.arrivals[event.user] += 1;
        }
    }
}

/// Replays recorded calendar sequences through fresh [`EventCalendar`]s
/// and returns the median cost per operation in ns.
fn calendar_ns_per_op(sequences: &[Vec<CalendarOp>]) -> f64 {
    let ops: usize = sequences.iter().map(Vec::len).sum();
    if ops == 0 {
        return 0.0;
    }
    let times: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let timer = ScopedTimer::start("calendar-replay");
            for seq in sequences {
                let mut cal: EventCalendar<u64> = EventCalendar::new();
                for (i, op) in seq.iter().enumerate() {
                    match *op {
                        CalendarOp::Schedule(t) => {
                            black_box(cal.schedule(SimTime::raw(t), i as u64));
                        }
                        CalendarOp::Pop => {
                            black_box(cal.pop());
                        }
                    }
                }
            }
            timer.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    metrics::median(&times)
}

/// Draws `n` exponential variates through [`ExpStream::sample`] and
/// returns the median cost per draw in ns.
fn rng_ns_per_draw(n: usize, seed: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let times: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let mut stream = ExpStream::new(seed);
            let timer = ScopedTimer::start("rng-replay");
            let mut acc = 0.0;
            for _ in 0..n {
                acc += stream.sample(1.0);
            }
            black_box(acc);
            timer.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    metrics::median(&times)
}

/// Variates one run draws: a size per packet, the next gap per open-loop
/// arrival, and a priority level per packet under the Fair Share table.
fn draws(run: &PreparedRun, arrivals: &[u64]) -> u64 {
    let sources = &run.engine.config().sources;
    let level = u64::from(run.kind == DisciplineKind::FsTable);
    arrivals
        .iter()
        .zip(sources)
        .map(|(&n, src)| n * (1 + u64::from(!src.is_closed_loop()) + level))
        .sum()
}

/// Measures a DES workload.
pub(crate) fn measure(
    workload: Workload,
    settings: &Settings,
    tally: &mut Tally,
    layers: &mut MetricSet,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let seed = settings.seed;
    let h = horizon(workload, settings.scale);
    // Set-up: build a pass, then warm caches and the allocator with every
    // run at a tenth of the horizon.
    let (_, setup_s) = median_setup(
        SETUP_REPS,
        || {
            let built = prepare_pass(workload, h, child_seed(seed, 0))?;
            for (run, mut qdisc) in prepare_pass(workload, h * WARMUP_FRACTION, seed)? {
                black_box(run.engine.run(qdisc.as_mut()).map_err(|e| e.to_string())?);
            }
            Ok(built)
        },
        |_| Ok(()),
    )?;

    // Untraced passes.
    let mut run_s: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut first: Vec<(u64, Vec<u64>, Vec<u64>)> = Vec::new();
    let pass_s = timed_passes(settings.seconds, tally, |pass, tally| {
        for (run, mut qdisc) in prepare_pass(workload, h, child_seed(seed, pass))? {
            let timer = ScopedTimer::start("run");
            let report = run.engine.run(qdisc.as_mut()).map_err(|e| e.to_string())?;
            let took = secs(&timer);
            tally.op(took * 1e3, check(workload, &run, &report));
            match run_s.iter_mut().find(|(l, _)| *l == run.label) {
                Some((_, v)) => v.push(took),
                None => run_s.push((run.label, vec![took])),
            }
            if pass == 0 {
                first.push(fingerprint(&report));
            }
        }
        Ok(())
    })?;
    if !settings.trace {
        return Ok(Measured {
            setup_s,
            pass_s,
            traced_s: 0.0,
        });
    }

    // Traced pass: pass 0 again, each discipline behind the timing
    // decorator, outputs compared bit for bit with the untraced pass.
    let root_start = spans.now_ns();
    let timer = ScopedTimer::start("traced");
    let mut total = QDiscStats::default();
    let mut per_run = Vec::new();
    let mut events = 0u64;
    let mut run_spans = Vec::new();
    for (i, (run, qdisc)) in prepare_pass(workload, h, child_seed(seed, 0))?
        .into_iter()
        .enumerate()
    {
        let start = spans.now_ns();
        let run_timer = ScopedTimer::start("run");
        let mut timed = TimedQDisc::new(qdisc);
        let report = run
            .engine
            .run_probed(&mut timed, &mut NoopProbe)
            .map_err(|e| e.to_string())?;
        let took = secs(&run_timer);
        run_spans.push((format!("des.run.{}", run.label), start, spans.now_ns()));
        tally.op(took * 1e3, check(workload, &run, &report));
        tally.fail_on(same(&run, i, &first, &report));
        events += report.result.events;
        let s = timed.stats;
        per_run.push((
            run.label,
            took,
            s.shares.as_secs_f64() / took.max(f64::MIN_POSITIVE),
        ));
        total.shares_calls += s.shares_calls;
        total.shares += s.shares;
        total.shares_ns.merge(&s.shares_ns);
        total.notify += s.notify;
        total.active_sum += s.active_sum;
        total.active_max = total.active_max.max(s.active_max);
    }
    let traced_s = secs(&timer);
    let root = spans.record("des.pass", 0, None, root_start, spans.now_ns());
    for (name, start, end) in run_spans {
        spans.record(name, root, None, start, end);
    }

    // Counting pass: the same runs observed by the counting probe.
    let (mut schedules, mut fires, mut depth_max, mut total_draws) = (0, 0, 0, 0);
    let mut sequences = Vec::new();
    let prepared = prepare_pass(workload, h, child_seed(seed, 0))?;
    let cap = REPLAY_CAP / prepared.len().max(1);
    for (i, (run, mut qdisc)) in prepared.into_iter().enumerate() {
        let mut probe = CountingProbe::new(cap);
        let report = run
            .engine
            .run_probed(qdisc.as_mut(), &mut probe)
            .map_err(|e| e.to_string())?;
        tally.fail_on(same(&run, i, &first, &report));
        schedules += probe.schedules;
        fires += probe.fires;
        depth_max = depth_max.max(probe.depth_max);
        total_draws += draws(&run, &probe.arrivals);
        sequences.push(probe.ops);
    }

    let shares_s = total.shares.as_secs_f64();
    let notify_s = total.notify.as_secs_f64();
    let calls = total.shares_calls.max(1) as f64;
    layers.set("des.qdisc.shares_calls", total.shares_calls as f64);
    layers.set("des.qdisc.shares_s", shares_s);
    layers.set("des.qdisc.shares_share", shares_s / traced_s);
    layers.set(
        "des.qdisc.shares_ns_p50",
        total.shares_ns.quantile(0.50).unwrap_or(0.0),
    );
    layers.set(
        "des.qdisc.shares_ns_p99",
        total.shares_ns.quantile(0.99).unwrap_or(0.0),
    );
    layers.set("des.qdisc.notify_s", notify_s);
    layers.set("des.qdisc.active_mean", total.active_sum as f64 / calls);
    layers.set("des.qdisc.active_max", total.active_max as f64);
    layers.set("des.calendar.schedules", schedules as f64);
    layers.set("des.calendar.fires", fires as f64);
    layers.set("des.calendar.depth_max", depth_max as f64);
    layers.set("des.calendar.ns_per_op", calendar_ns_per_op(&sequences));
    layers.set("des.rng.draws", total_draws as f64);
    let replay_draws = usize::try_from(total_draws)
        .unwrap_or(usize::MAX)
        .min(REPLAY_CAP);
    layers.set("des.rng.ns_per_draw", rng_ns_per_draw(replay_draws, seed));
    layers.set("des.engine.events", events as f64);
    layers.set(
        "des.engine.events_per_s",
        first.iter().map(|f| f.0).sum::<u64>() as f64 / pass_s[0],
    );
    layers.set("des.engine.rest_s", traced_s - shares_s - notify_s);
    for (label, times) in &run_s {
        layers.set(run_metric(label)?, metrics::median(times));
    }
    eprintln!(
        "{:<10} {:>10} {:>10} {:>13}",
        "run", "untraced_s", "traced_s", "shares_share"
    );
    for (label, traced, share) in per_run {
        let untraced = run_s
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |(_, v)| metrics::median(v));
        eprintln!("{label:<10} {untraced:>10.4} {traced:>10.4} {share:>13.4}");
    }
    Ok(Measured {
        setup_s,
        pass_s,
        traced_s,
    })
}

/// Compares a re-run against the untraced pass 0 fingerprint.
fn same(
    run: &PreparedRun,
    index: usize,
    first: &[(u64, Vec<u64>, Vec<u64>)],
    report: &EngineReport,
) -> Result<(), String> {
    match first.get(index) {
        Some(f) if *f == fingerprint(report) => Ok(()),
        _ => Err(format!(
            "{}: traced output differs from the untraced run",
            run.label
        )),
    }
}

fn run_metric(label: &str) -> Result<&'static str, String> {
    Ok(match label {
        "fifo" => "des.run_s.fifo",
        "lifo" => "des.run_s.lifo",
        "ps" => "des.run_s.ps",
        "serial" => "des.run_s.serial",
        "fs" => "des.run_s.fs",
        "sfq" => "des.run_s.sfq",
        "aimd_ecn" => "des.run_s.aimd_ecn",
        other => return Err(format!("no run metric for {other}")),
    })
}
