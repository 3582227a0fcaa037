//! The event-calendar discrete-event engine, the crate's one simulator
//! API.
//!
//! Callers build an [`EngineConfig`] (usually from
//! [`EngineConfig::open_loop`], then set `warmup`, `windows`, `service`
//! or `allow_overload` as plain fields), validate it once in
//! [`Engine::new`], and read the [`SimResult`] from the returned
//! [`EngineReport`]. Entity reactions (source fires, ACK deliveries)
//! schedule typed [`Cmd`]s through a [`Context`] into an [`EventList`],
//! which the engine commits to the [`EventCalendar`] after each
//! dispatch, in the minim style. Between events, remaining work drains
//! from the packet the `QDisc` serves, from every active packet at
//! `1/k` each when it answers with an even split (processor sharing),
//! or at the rate its share vector assigns otherwise. The bottleneck
//! keeps remaining work packed in its own vector, beside the active set.
//!
//! # Event structure
//!
//! Three things can happen next, and the engine takes the earliest:
//!
//! 1. the earliest **completion** — a *derived* event recomputed from
//!    the bottleneck's `peek_completion` after every state change: the
//!    served packet's completion for single-server disciplines, the
//!    smallest virtual finish tag under an even split, the earliest
//!    under the share vector otherwise (an even split's `1/k` moves at
//!    every arrival and departure, so a scheduled completion would be
//!    stale the moment it was pushed);
//! 2. the earliest **calendar command** (open-loop `Fire`s and
//!    closed-loop `Ack`s);
//! 3. the simulation **horizon** (a clamp, not a calendar entry).
//!
//! # Equivalence with the drain-loop engine
//!
//! For all-open-loop configurations this engine is *bitwise equivalent*
//! to the pre-calendar drain loop: the RNG stream layout (two master
//! splits per source, arrivals then sizes), the completion/arrival
//! scans, the `t_done <= t_arr` departure tie-break, the statistics
//! accumulation order, and every float expression are preserved
//! op-for-op, with two exceptions. Processor sharing's virtual clock
//! rounds differently (same counts, every statistic within 1e-9
//! relative). And the batch windows split at the exact first time past
//! each window, where the old loop split at the nominal end
//! `warmup + (w + 1)·window_len`, which can round back into the window
//! (and then lost time) or forward; the splits agree wherever every
//! window end is exact, as at round horizons. `tests/engine_equivalence.rs`
//! pins this against an embedded copy of the old loop for seeds 0..8
//! across all six disciplines.

use crate::calendar::{EventCalendar, EventQueue};
use crate::entities::{
    Bottleneck, ClosedLoopSource, Cmd, FlowRecord, OpenLoopSource, Served, SourceSpec, SourceState,
};
use crate::error::DesError;
use crate::qdisc::{ActivePacket, QDisc};
use crate::rng::ExpStream;
use crate::service::ServiceDist;
use crate::units::{SimTime, Work};
use crate::Result;
use greednet_numerics::conv;
use greednet_numerics::stats::{batch_means_ci, sorted_quantile, MeanCi, Reservoir, Welford};
use greednet_telemetry::{
    CalendarEvent, CalendarEventKind, NoopProbe, PacketEvent, PacketEventKind, Probe,
};

/// Batch-means windows for the confidence intervals when a caller does
/// not choose: the [`EngineConfig::open_loop`] and scenario defaults,
/// and the `greednet simulate` / serve `simulate` default.
pub const DEFAULT_WINDOWS: usize = 32;

/// Warm-up discarded from the statistics when a caller does not choose,
/// as a fraction of the horizon: the [`EngineConfig::open_loop`] and
/// scenario default, and the serve `simulate` cache key's.
pub const DEFAULT_WARMUP_FRACTION: f64 = 0.1;

/// Full engine configuration: a mix of open- and closed-loop sources
/// plus the horizon and statistics parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The traffic sources, in user order.
    pub sources: Vec<SourceSpec>,
    /// Simulated time horizon (measurement ends here).
    pub horizon: SimTime,
    /// Warm-up period discarded from all statistics.
    pub warmup: SimTime,
    /// Master RNG seed.
    pub seed: u64,
    /// Number of batch windows for confidence intervals (≥ 4).
    pub windows: usize,
    /// Permit total declared open-loop load ≥ 1 (protection experiments
    /// overload the switch on purpose; steady-state statistics for the
    /// overloading users are then meaningless, but insulated users
    /// remain valid).
    pub allow_overload: bool,
    /// Packet service-time distribution (unit mean). The engine tracks
    /// remaining work explicitly, so any distribution is exact under
    /// preemptive resume; `Exponential` reproduces the paper's M/M/1.
    pub service: ServiceDist,
    /// ECN marking threshold: a departing packet's ACK is marked when
    /// the queue (after the departure) is at or above this many packets.
    /// `None` disables marking (open-loop-only runs never consult it).
    pub marking_threshold: Option<usize>,
}

impl EngineConfig {
    /// An all-open-loop configuration with the defaults for
    /// validation runs: a warm-up of [`DEFAULT_WARMUP_FRACTION`] of the
    /// horizon, [`DEFAULT_WINDOWS`] windows, M service, no overload and
    /// no marking. Rates and horizon are wrapped unvalidated and checked
    /// once, at [`Engine::new`]; zero-rate users are allowed and simply
    /// never send.
    pub fn open_loop(rates: &[f64], horizon: f64, seed: u64) -> Self {
        EngineConfig {
            sources: rates.iter().map(|&r| SourceSpec::open(r)).collect(),
            horizon: SimTime::raw(horizon),
            warmup: SimTime::raw(horizon * DEFAULT_WARMUP_FRACTION),
            seed,
            windows: DEFAULT_WINDOWS,
            allow_overload: false,
            service: ServiceDist::Exponential,
            marking_threshold: None,
        }
    }

    /// The one validation of a configuration, run by [`Engine::new`].
    fn validate(&self) -> Result<()> {
        if self.sources.is_empty() {
            return Err(DesError::EmptySystem);
        }
        for (user, src) in self.sources.iter().enumerate() {
            match src {
                SourceSpec::OpenLoop { rate } => {
                    let r = rate.get();
                    if !r.is_finite() || r < 0.0 {
                        return Err(DesError::InvalidRate { user, value: r });
                    }
                }
                SourceSpec::ClosedLoop(spec) => spec.validate(user)?,
            }
        }
        let horizon = self.horizon.get();
        let warmup = self.warmup.get();
        if horizon <= 0.0 || horizon.is_nan() || warmup < 0.0 || warmup >= horizon {
            return Err(DesError::InvalidHorizon {
                detail: format!("horizon {horizon} / warmup {warmup}"),
            });
        }
        if self.windows < 4 {
            return Err(DesError::InvalidWindows {
                windows: self.windows,
            });
        }
        let load: f64 = self.sources.iter().map(SourceSpec::rate_value).sum();
        if load >= 0.999 && !self.allow_overload {
            return Err(DesError::Saturated { load });
        }
        Ok(())
    }

    /// Declared open-loop rates per user (`0.0` for closed-loop
    /// sources), the vector rate-aware disciplines are built from.
    #[must_use]
    pub fn rate_values(&self) -> Vec<f64> {
        self.sources.iter().map(SourceSpec::rate_value).collect()
    }
}

/// Buffer of commands produced by an entity reaction, to be committed to
/// the calendar once the reaction finishes (minim's event-list pattern:
/// reactions never touch the calendar directly).
#[derive(Debug, Default)]
pub struct EventList {
    pending: Vec<(SimTime, Cmd)>,
}

impl EventList {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        EventList {
            pending: Vec::new(),
        }
    }

    /// Appends a command firing at absolute `time`.
    pub fn push(&mut self, time: SimTime, cmd: Cmd) {
        self.pending.push((time, cmd));
    }

    /// Number of buffered commands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drains the buffered commands in insertion order.
    pub fn drain(&mut self) -> impl Iterator<Item = (SimTime, Cmd)> + '_ {
        self.pending.drain(..)
    }
}

/// Scheduling context handed to entity reactions: the current time plus
/// a borrow of the engine's [`EventList`].
#[derive(Debug)]
pub struct Context<'a> {
    /// The current simulation time.
    pub now: SimTime,
    events: &'a mut EventList,
}

impl Context<'_> {
    /// Schedules `cmd` to fire `delay` after now.
    pub fn schedule(&mut self, delay: SimTime, cmd: Cmd) {
        self.events.push(self.now + delay, cmd);
    }

    /// Schedules `cmd` at an absolute time.
    pub fn schedule_at(&mut self, time: SimTime, cmd: Cmd) {
        self.events.push(time, cmd);
    }
}

/// The aggregate statistics of a run.
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
    /// `(1-rho) rho^k` — validated in `tests/closed_forms.rs`.
    pub total_queue_dist: Vec<f64>,
}

/// What a run produces: the aggregate statistics, per-flow records, and
/// the run's peak backlog and calendar depth.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The aggregate statistics.
    pub result: SimResult,
    /// One record per source, in user order (window/ACK/mark fields are
    /// only populated for closed-loop flows).
    pub flows: Vec<FlowRecord>,
    /// Largest number of packets in the switch at any event (the peak
    /// backlog; grows without bound under overload).
    pub max_active: usize,
    /// Largest number of pending calendar commands after any commit.
    pub max_calendar: usize,
}

/// The event-calendar engine.
///
/// ```
/// use greednet_des::{Engine, EngineConfig, Fifo};
///
/// // One M/M/1 source at load 0.5: mean queue ~ 1, mean delay ~ 2.
/// let engine = Engine::new(EngineConfig::open_loop(&[0.5], 50_000.0, 42)).unwrap();
/// let result = engine.run(&mut Fifo::default()).unwrap().result;
/// assert!((result.mean_queue[0] - 1.0).abs() < 0.15);
/// assert!((result.mean_delay[0] - 2.0).abs() < 0.3);
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine after validating the configuration: a
    /// non-empty source list, finite non-negative open-loop rates,
    /// well-formed closed-loop specs, a positive horizon with the
    /// warm-up before it, ≥ 4 CI windows, and declared open-loop load
    /// < 1 unless overload is allowed (closed-loop sources self-regulate
    /// and are exempt from the saturation check).
    ///
    /// # Errors
    /// The specific [`DesError`] for the first violated invariant.
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(Engine { config })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the simulation under `qdisc` without instrumentation.
    ///
    /// # Errors
    /// Returns configuration errors; the run itself is infallible.
    pub fn run(&self, qdisc: &mut dyn QDisc) -> Result<EngineReport> {
        self.run_probed(qdisc, &mut NoopProbe)
    }

    /// Runs the simulation under `qdisc`, reporting packet-lifecycle,
    /// ECN-mark and calendar schedule/fire events to `probe`.
    ///
    /// Observation is purely passive: the returned [`EngineReport`] is
    /// bitwise identical for every probe, including [`NoopProbe`]
    /// (property-tested in `tests/telemetry.rs` at the workspace root).
    /// Service starts and preemptions are derived from share
    /// transitions: a packet whose share becomes positive emits
    /// [`ServiceStart`](PacketEventKind::ServiceStart) (a resume after
    /// preemption emits a fresh one), and a packet whose share drops to
    /// zero while it remains in the system emits
    /// [`Preemption`](PacketEventKind::Preemption).
    ///
    /// # Errors
    /// Returns configuration errors; the run itself is infallible.
    pub fn run_probed<P: Probe>(
        &self,
        qdisc: &mut dyn QDisc,
        probe: &mut P,
    ) -> Result<EngineReport> {
        let cfg = &self.config;
        let n = cfg.sources.len();
        let horizon = cfg.horizon.get();

        // RNG stream layout — identical to the pre-calendar engine: the
        // master stream is split once per source for arrivals (salts
        // 2u+1, in user order), then once per source for sizes (salts
        // 2u+2). Closed-loop sources consume their arrival split for
        // layout stability but never sample it (ACKs clock them).
        let mut master = ExpStream::new(cfg.seed);
        let arrival_streams: Vec<ExpStream> = (0..n)
            .map(|u| master.split(conv::index_to_u64(u) * 2 + 1))
            .collect();
        let size_streams: Vec<ExpStream> = (0..n)
            .map(|u| master.split(conv::index_to_u64(u) * 2 + 2))
            .collect();
        let mut sources: Vec<SourceState> = cfg
            .sources
            .iter()
            .zip(arrival_streams.into_iter().zip(size_streams))
            .map(|(spec, (arrivals, sizes))| match spec {
                SourceSpec::OpenLoop { rate } => SourceState::Open(OpenLoopSource {
                    rate: rate.get(),
                    arrivals,
                    sizes,
                    sent: 0,
                }),
                SourceSpec::ClosedLoop(spec) => {
                    SourceState::Closed(ClosedLoopSource::new(spec.clone(), sizes))
                }
            })
            .collect();

        let mut calendar: EventCalendar<Cmd> = EventCalendar::new();
        let mut pending = EventList::new();
        let mut bottleneck = Bottleneck::new(n, cfg.marking_threshold);
        let mut now = 0.0f64;
        let mut next_id = 0u64;
        let mut events = 0u64;
        // Packets holding a positive share at the previous event — probe
        // bookkeeping only; stays empty (never allocates) when the
        // probe's instrumentation sites are compiled out.
        let mut serving = Serving::default();
        let mut stats = Stats::new(cfg);

        // Initial fires: one per sending source. Open-loop sources fire
        // at their first Poisson arrival (sampled exactly like the old
        // engine's initial `next_arrival`); closed-loop sources fire at
        // t = 0 to fill their initial window.
        {
            let mut ctx = Context {
                now: SimTime::ZERO,
                events: &mut pending,
            };
            for (u, src) in sources.iter_mut().enumerate() {
                match src {
                    SourceState::Open(o) if o.rate > 0.0 => {
                        let gap = o.next_gap();
                        ctx.schedule(gap, Cmd::Fire { source: u });
                    }
                    SourceState::Open(_) => {}
                    SourceState::Closed(_) => {
                        ctx.schedule(SimTime::ZERO, Cmd::Fire { source: u });
                    }
                }
            }
        }
        let mut max_calendar = commit(&mut pending, &mut calendar, false, probe);

        bottleneck.serve(qdisc, SimTime::raw(now));
        if P::ENABLED {
            emit_share_transitions(&bottleneck, &mut serving, next_id, now, probe);
        }
        loop {
            // Earliest completion of the served packets (derived event)
            // vs earliest calendar command, clamped at the horizon.
            let (t_done, done_idx) = bottleneck.peek_completion(now);
            let t_cal = calendar.peek_time().map_or(f64::INFINITY, SimTime::get);
            let t_next = t_done.min(t_cal).min(horizon);

            // Advance work and statistics.
            let dt = t_next - now;
            if dt > 0.0 {
                bottleneck.drain(dt);
                stats.advance(now, t_next, &bottleneck.counts, bottleneck.active.len());
                now = t_next;
            }

            events += 1;
            if now >= horizon {
                break;
            }
            let Some(fired) = self.dispatch(
                (t_done, t_cal, done_idx),
                now,
                &mut sources,
                &mut bottleneck,
                &calendar,
                &mut pending,
                qdisc,
                &mut stats,
                &mut next_id,
                probe,
            ) else {
                break;
            };
            max_calendar = max_calendar.max(commit(&mut pending, &mut calendar, fired, probe));
            bottleneck.serve(qdisc, SimTime::raw(now));
            if P::ENABLED {
                emit_share_transitions(&bottleneck, &mut serving, next_id, now, probe);
            }
        }

        let result = stats.finish(events);
        let flows = sources
            .iter()
            .enumerate()
            .map(|(u, s)| s.flow_record(u))
            .collect();
        Ok(EngineReport {
            result,
            flows,
            max_active: bottleneck.peak,
            max_calendar,
        })
    }

    /// Dispatches the event selected by the main loop: the earliest
    /// completion when `t_done <= t_cal` (ties go to the departure, like
    /// the old engine's `t_done <= t_arr`), otherwise the earliest
    /// calendar command. Extracted verbatim from the `run_probed` loop —
    /// `tests/engine_equivalence.rs` pins the motion bitwise. A fired
    /// command stays on the calendar, for [`commit`] to replace, and the
    /// answer says whether one fired; `None` comes only from the
    /// unreachable empty-calendar guard, which ends the run (keeps the
    /// loop total without panicking).
    // gn:hot(amortized)
    #[expect(
        clippy::too_many_arguments,
        reason = "the main loop's disjoint mutable state, borrowed separately"
    )]
    fn dispatch<P: Probe>(
        &self,
        (t_done, t_cal, done_idx): (f64, f64, usize),
        now: f64,
        sources: &mut [SourceState],
        bottleneck: &mut Bottleneck,
        calendar: &EventCalendar<Cmd>,
        pending: &mut EventList,
        qdisc: &mut dyn QDisc,
        stats: &mut Stats,
        next_id: &mut u64,
        probe: &mut P,
    ) -> Option<bool> {
        let cfg = &self.config;
        if t_done <= t_cal {
            // Departure.
            let pkt = bottleneck.depart(done_idx);
            qdisc.on_departure(&pkt, SimTime::raw(now));
            if P::ENABLED {
                probe.on_packet(&PacketEvent {
                    time: now,
                    user: pkt.user,
                    packet: pkt.id,
                    queue_len: bottleneck.active.len(),
                    kind: PacketEventKind::Departure {
                        delay: now - pkt.arrival.get(),
                    },
                });
            }
            if let SourceState::Closed(c) = &sources[pkt.user] {
                let marked = bottleneck.ecn_mark();
                if P::ENABLED && marked {
                    probe.on_packet(&PacketEvent {
                        time: now,
                        user: pkt.user,
                        packet: pkt.id,
                        queue_len: bottleneck.active.len(),
                        kind: PacketEventKind::Marked,
                    });
                }
                let mut ctx = Context {
                    now: SimTime::raw(now),
                    events: pending,
                };
                ctx.schedule(
                    c.spec.feedback_delay,
                    Cmd::Ack {
                        source: pkt.user,
                        marked,
                    },
                );
            }
            if pkt.arrival.get() >= stats.warmup {
                stats.on_departure(pkt.user, now - pkt.arrival.get());
            }
            Some(false)
        } else {
            // A calendar command fires.
            let Some(ev) = calendar.peek() else {
                // Unreachable: `t_cal` was finite, so the calendar is
                // non-empty; keep the loop total anyway (GN03).
                return None;
            };
            if P::ENABLED {
                probe.on_calendar(&CalendarEvent {
                    time: ev.time.get(),
                    seq: ev.seq,
                    kind: CalendarEventKind::Fire,
                });
            }
            match ev.item {
                Cmd::Fire { source } => match &mut sources[source] {
                    SourceState::Open(o) => {
                        let size = cfg.service.sample(&mut o.sizes);
                        let pkt = ActivePacket {
                            id: *next_id,
                            user: source,
                            arrival: SimTime::raw(now),
                            size: Work::raw(size),
                        };
                        *next_id += 1;
                        o.sent += 1;
                        qdisc.on_arrival(&pkt, SimTime::raw(now));
                        if P::ENABLED {
                            probe.on_packet(&PacketEvent {
                                time: now,
                                user: source,
                                packet: pkt.id,
                                queue_len: bottleneck.active.len(),
                                kind: PacketEventKind::Arrival { size },
                            });
                        }
                        bottleneck.admit(pkt);
                        let gap = o.next_gap();
                        let mut ctx = Context {
                            now: SimTime::raw(now),
                            events: pending,
                        };
                        ctx.schedule(gap, Cmd::Fire { source });
                    }
                    SourceState::Closed(c) => {
                        fill_window(
                            c,
                            source,
                            now,
                            &cfg.service,
                            bottleneck,
                            qdisc,
                            next_id,
                            probe,
                        );
                    }
                },
                Cmd::Ack { source, marked } => {
                    if let SourceState::Closed(c) = &mut sources[source] {
                        c.on_ack(marked);
                        fill_window(
                            c,
                            source,
                            now,
                            &cfg.service,
                            bottleneck,
                            qdisc,
                            next_id,
                            probe,
                        );
                    }
                }
            }
            Some(true)
        }
    }
}

/// Injects packets for a closed-loop source until its window is full.
// gn:hot(amortized)
#[expect(
    clippy::too_many_arguments,
    reason = "the main loop's disjoint mutable state, borrowed separately"
)]
fn fill_window<P: Probe>(
    c: &mut ClosedLoopSource,
    source: usize,
    now: f64,
    service: &ServiceDist,
    bottleneck: &mut Bottleneck,
    qdisc: &mut dyn QDisc,
    next_id: &mut u64,
    probe: &mut P,
) {
    while c.can_send() {
        let size = service.sample(&mut c.sizes);
        let pkt = ActivePacket {
            id: *next_id,
            user: source,
            arrival: SimTime::raw(now),
            size: Work::raw(size),
        };
        *next_id += 1;
        c.on_sent();
        qdisc.on_arrival(&pkt, SimTime::raw(now));
        if P::ENABLED {
            probe.on_packet(&PacketEvent {
                time: now,
                user: source,
                packet: pkt.id,
                queue_len: bottleneck.active.len(),
                kind: PacketEventKind::Arrival { size },
            });
        }
        bottleneck.admit(pkt);
    }
}

/// Commits buffered commands to the calendar (insertion order, so the
/// calendar's tie-breaking sequence numbers follow schedule order) and
/// returns the number of pending commands. When `fired`, the earliest
/// command has fired but still holds its slot: the first buffered command
/// takes that slot in one sift (an open-loop `Fire` schedules its
/// successor), the same sequence numbers and pop order as popping the
/// fired command first, and with nothing buffered it is popped.
// gn:hot(amortized)
fn commit<P: Probe>(
    pending: &mut EventList,
    calendar: &mut EventCalendar<Cmd>,
    mut fired: bool,
    probe: &mut P,
) -> usize {
    for (time, cmd) in pending.drain() {
        let seq = if std::mem::take(&mut fired) {
            calendar.replace_earliest(time, cmd)
        } else {
            calendar.schedule(time, cmd)
        };
        if P::ENABLED {
            probe.on_calendar(&CalendarEvent {
                time: time.get(),
                seq,
                kind: CalendarEventKind::Schedule,
            });
        }
    }
    if fired {
        calendar.pop();
    }
    calendar.len()
}

/// The statistics integrator: per-user queue areas (total and per batch
/// window), Welford delay moments, reservoir-sampled delay percentiles,
/// and the time-weighted total-occupancy distribution.
///
/// A measured time `t` falls in batch window
/// `window_of(t) = ⌊(t − warmup) / window_len⌋`, capped at the last one.
/// That map is monotone in `t`, so `Stats` caches the window the
/// integration has reached and the exact first time past it, and divides
/// only when a segment crosses into the next window. The nominal end
/// `warmup + (w + 1)·window_len` can round to either side of that first
/// time; splitting at the first time itself puts every segment in the
/// window `window_of` names, so the window areas add up to the total.
struct Stats {
    n: usize,
    warmup: f64,
    horizon: f64,
    windows: usize,
    window_len: f64,
    /// The batch window the integration has reached.
    window: usize,
    /// The first time past `window` (`+∞` in the last window).
    window_end: f64,
    /// `window_area[w * n + u]`: user `u`'s queue area in window `w`.
    window_area: Vec<f64>,
    area: Vec<f64>,
    delays: Vec<Welford>,
    completed: Vec<u64>,
    dist_time: Vec<f64>,
    delay_samples: Vec<Reservoir>,
}

/// Truncation cap of the total-occupancy distribution (tail mass folds
/// into the last bin).
const DIST_CAP: usize = 64;

impl Stats {
    fn new(cfg: &EngineConfig) -> Self {
        let n = cfg.sources.len();
        let horizon = cfg.horizon.get();
        let warmup = cfg.warmup.get();
        Stats {
            n,
            warmup,
            horizon,
            windows: cfg.windows,
            window_len: (horizon - warmup) / cfg.windows as f64,
            // No window is cached yet: the first segment enters its own.
            window: 0,
            window_end: f64::NEG_INFINITY,
            window_area: vec![0.0f64; cfg.windows.saturating_mul(n)],
            area: vec![0.0f64; n],
            delays: (0..n).map(|_| Welford::new()).collect(),
            completed: vec![0u64; n],
            dist_time: vec![0.0f64; DIST_CAP + 1],
            delay_samples: (0..n)
                .map(|u| Reservoir::new(4096, cfg.seed ^ (conv::index_to_u64(u) + 1)))
                .collect(),
        }
    }

    /// Integrates the (constant) per-user counts over the measured part
    /// of `[t0, t1)`, in total and per batch window, and charges the
    /// occupancy distribution. Successive calls cover successive
    /// intervals.
    // gn:hot
    #[inline]
    fn advance(&mut self, t0: f64, t1: f64, counts: &[f64], active_len: usize) {
        let lo = t0.max(self.warmup);
        if t1 <= lo {
            return;
        }
        for (a, &c) in self.area.iter_mut().zip(counts) {
            *a += c * (t1 - lo);
        }
        let mut t = lo;
        while t < t1 {
            if t >= self.window_end {
                self.enter_window(t);
            }
            let seg_end = t1.min(self.window_end);
            let row = &mut self.window_area[self.window * self.n..];
            for (wa, &c) in row.iter_mut().zip(counts) {
                *wa += c * (seg_end - t);
            }
            t = seg_end;
        }
        self.dist_time[active_len.min(DIST_CAP)] += t1 - lo;
    }

    /// Moves the cached window on to the one holding `t`, at or past the
    /// cached end: the one division per window.
    #[cold]
    fn enter_window(&mut self, t: f64) {
        self.window = self.window_of(t);
        self.window_end = self.first_past(self.window);
    }

    /// The batch window holding the measured time `t`.
    fn window_of(&self, t: f64) -> usize {
        // `t >= warmup`, so the quotient is non-negative; the `min` caps
        // rounding spillover.
        conv::f64_to_usize((t - self.warmup) / self.window_len).min(self.windows - 1)
    }

    /// The first time past window `w`, the least `t` with
    /// `window_of(t) > w` (`+∞` for the last window): a few ulps' step
    /// from the nominal end `warmup + (w + 1)·window_len`.
    fn first_past(&self, w: usize) -> f64 {
        if w + 1 >= self.windows {
            return f64::INFINITY;
        }
        let mut t = self.warmup + (w + 1) as f64 * self.window_len;
        while t < f64::INFINITY && self.window_of(t) <= w {
            t = t.next_up();
        }
        while self.window_of(t.next_down()) > w {
            t = t.next_down();
        }
        t
    }

    /// Records one measured completion.
    // gn:hot(amortized)
    fn on_departure(&mut self, user: usize, delay: f64) {
        self.delays[user].push(delay);
        self.delay_samples[user].push(delay);
        self.completed[user] += 1;
    }

    /// Assembles the final [`SimResult`].
    fn finish(self, events: u64) -> SimResult {
        let measured = self.horizon - self.warmup;
        let mean_queue: Vec<f64> = self.area.iter().map(|a| a / measured).collect();
        let queue_ci: Vec<MeanCi> = (0..self.n)
            .map(|u| {
                let samples: Vec<f64> = self.window_area[u..]
                    .iter()
                    .step_by(self.n)
                    .map(|a| a / self.window_len)
                    .collect();
                batch_means_ci(&samples, self.windows / 2).unwrap_or(MeanCi {
                    mean: mean_queue[u],
                    half_width: f64::INFINITY,
                    batches: 0,
                })
            })
            .collect();
        let mean_delay: Vec<f64> = self.delays.iter().map(Welford::mean).collect();
        let throughput: Vec<f64> = self
            .completed
            .iter()
            .map(|&c| c as f64 / measured)
            .collect();
        let total_mean_queue: f64 = mean_queue.iter().sum();
        let delay_percentiles: Vec<(f64, f64, f64)> = self
            .delay_samples
            .iter()
            .map(|r| {
                let mut sorted = r.samples().to_vec();
                sorted.sort_by(f64::total_cmp);
                let q = |p| sorted_quantile(&sorted, p).unwrap_or(0.0);
                (q(0.50), q(0.95), q(0.99))
            })
            .collect();
        let total_queue_dist: Vec<f64> = self.dist_time.iter().map(|t| t / measured).collect();

        SimResult {
            mean_queue,
            queue_ci,
            mean_delay,
            throughput,
            completed: self.completed,
            total_mean_queue,
            events,
            measured_time: SimTime::raw(measured),
            delay_percentiles,
            total_queue_dist,
        }
    }
}

/// The packets that held a positive share at the previous event, for
/// [`emit_share_transitions`].
#[derive(Default)]
struct Serving {
    /// `Some(next)` when every packet active then held a share (an even
    /// split), `next` being the first packet id not yet admitted then.
    all_below: Option<u64>,
    /// Otherwise their ids.
    ids: Vec<u64>,
    /// Scratch: per position of the current active set, whether that
    /// packet held a share at the previous event.
    before: Vec<bool>,
    /// Scratch: positions of the packets admitted since then.
    fresh: Vec<usize>,
}

/// Diffs the set of packets holding a positive share against the
/// previous call's set and reports the transitions: newly positive →
/// [`PacketEventKind::ServiceStart`] (resumes re-emit), dropped to zero
/// while still active → [`PacketEventKind::Preemption`]. Packets that
/// left the system are handled by the departure event, not here.
/// Preemptions are emitted before starts; both follow active-set order,
/// so the event stream is deterministic. `next_id` is the first packet
/// id not yet admitted.
///
/// Between two single-packet answers the diff compares the two ids, and
/// between two even splits only the packets admitted in between start,
/// so that diff visits just those. Any other diff finds where each
/// previously served packet sits now through the bottleneck's slot index
/// (every packet the engine numbers is indexed), so it costs `O(k)` for
/// `k` active packets.
// gn:hot(amortized)
fn emit_share_transitions<P: Probe>(
    bottleneck: &Bottleneck,
    serving: &mut Serving,
    next_id: u64,
    now: f64,
    probe: &mut P,
) {
    let active = &bottleneck.active;
    let queue_len = active.len();
    let emit = |probe: &mut P, p: &ActivePacket, kind| {
        probe.on_packet(&PacketEvent {
            time: now,
            user: p.user,
            packet: p.id,
            queue_len,
            kind,
        });
    };
    let all_now = bottleneck.serves_all();
    let single = serving.all_below.is_none() && serving.ids.len() <= 1;
    if let (true, Served::One(i)) = (single, bottleneck.served()) {
        let id = active[i].id;
        if serving.ids.first() != Some(&id) {
            if let Some(j) = serving.ids.first().and_then(|&b| bottleneck.position(b)) {
                emit(probe, &active[j], PacketEventKind::Preemption);
            }
            emit(probe, &active[i], PacketEventKind::ServiceStart);
            serving.ids.clear();
            serving.ids.push(id);
        }
        return;
    }
    if let (true, Some(below)) = (all_now, serving.all_below) {
        let fresh = &mut serving.fresh;
        fresh.clear();
        fresh.extend((below..next_id).filter_map(|id| bottleneck.position(id)));
        fresh.sort_unstable();
        for &i in fresh.iter() {
            emit(probe, &active[i], PacketEventKind::ServiceStart);
        }
        serving.all_below = Some(next_id);
        return;
    }
    let before = &mut serving.before;
    before.clear();
    if let Some(below) = serving.all_below {
        before.extend(active.iter().map(|p| p.id < below));
    } else {
        before.resize(queue_len, false);
        for &id in &serving.ids {
            if let Some(i) = bottleneck.position(id) {
                before[i] = true;
            }
        }
    }
    for (i, p) in active.iter().enumerate() {
        if bottleneck.share(i) <= 0.0 && before[i] {
            emit(probe, p, PacketEventKind::Preemption);
        }
    }
    for (i, p) in active.iter().enumerate() {
        if bottleneck.share(i) > 0.0 && !before[i] {
            emit(probe, p, PacketEventKind::ServiceStart);
        }
    }
    serving.ids.clear();
    if all_now {
        serving.all_below = Some(next_id);
    } else {
        serving.all_below = None;
        serving.ids.extend(
            active
                .iter()
                .enumerate()
                .filter(|&(i, _)| bottleneck.share(i) > 0.0)
                .map(|(_, p)| p.id),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::ClosedLoopSpec;
    use crate::qdisc::{Fifo, StartTimeFairQueueing};

    fn closed_cfg(n_closed: usize, threshold: Option<usize>, horizon: f64) -> EngineConfig {
        EngineConfig {
            sources: (0..n_closed)
                .map(|_| SourceSpec::ClosedLoop(ClosedLoopSpec::new()))
                .collect(),
            horizon: SimTime::raw(horizon),
            warmup: SimTime::raw(horizon * 0.1),
            seed: 7,
            windows: 8,
            allow_overload: false,
            service: ServiceDist::Exponential,
            marking_threshold: threshold,
        }
    }

    #[test]
    fn config_validation_matches_legacy_and_covers_sources() {
        assert!(matches!(
            Engine::new(EngineConfig::open_loop(&[], 100.0, 0)),
            Err(DesError::EmptySystem)
        ));
        assert!(matches!(
            Engine::new(EngineConfig::open_loop(&[-0.1], 100.0, 0)),
            Err(DesError::InvalidRate { user: 0, .. })
        ));
        assert!(matches!(
            Engine::new(EngineConfig::open_loop(&[0.6, 0.6], 100.0, 0)),
            Err(DesError::Saturated { .. })
        ));
        let mut over = EngineConfig::open_loop(&[0.6, 0.6], 100.0, 0);
        over.allow_overload = true;
        assert!(Engine::new(over).is_ok());
        for horizon in [0.0, -1.0] {
            assert!(matches!(
                Engine::new(EngineConfig::open_loop(&[0.2], horizon, 0)),
                Err(DesError::InvalidHorizon { .. })
            ));
        }
        for warmup in [100.0, 200.0] {
            let mut late = EngineConfig::open_loop(&[0.2], 100.0, 0);
            late.warmup = SimTime::raw(warmup);
            assert!(matches!(
                Engine::new(late),
                Err(DesError::InvalidHorizon { .. })
            ));
        }
        let mut few = EngineConfig::open_loop(&[0.2], 100.0, 0);
        few.windows = 2;
        assert!(matches!(
            Engine::new(few),
            Err(DesError::InvalidWindows { windows: 2 })
        ));
        // The default warm-up is 10% of the horizon.
        let mut custom = EngineConfig::open_loop(&[0.2, 0.3], 50_000.0, 9);
        assert_eq!(custom.warmup, SimTime::raw(5_000.0));
        custom.windows = 16;
        custom.service = ServiceDist::Erlang(2);
        let engine = Engine::new(custom).unwrap();
        assert_eq!((engine.config().seed, engine.config().windows), (9, 16));
        let mut bad = closed_cfg(1, Some(4), 100.0);
        if let SourceSpec::ClosedLoop(spec) = &mut bad.sources[0] {
            spec.initial_window = 0.0;
        }
        assert!(matches!(
            Engine::new(bad),
            Err(DesError::InvalidSource { source: 0, .. })
        ));
        // Closed-loop sources don't count toward the saturation check.
        let mut mixed = closed_cfg(3, Some(4), 100.0);
        mixed.sources.push(SourceSpec::open(0.5));
        assert!(Engine::new(mixed).is_ok());
    }

    #[test]
    fn closed_loop_flow_keeps_window_in_flight_and_completes_work() {
        let engine = Engine::new(closed_cfg(1, Some(4), 2_000.0)).unwrap();
        let report = engine.run(&mut Fifo::default()).unwrap();
        let flow = &report.flows[0];
        assert!(flow.sent > 100, "sent {}", flow.sent);
        // ACK-clocked: all but the in-flight window is acknowledged.
        assert!(flow.acked <= flow.sent);
        assert!(flow.sent - flow.acked < 70, "{flow:?}");
        assert!(flow.final_window >= 1.0);
        // A single flow against an empty switch is the sole queue
        // occupant: its throughput approaches the full service rate.
        assert!(
            report.result.throughput[0] > 0.8,
            "throughput {}",
            report.result.throughput[0]
        );
    }

    #[test]
    fn marking_threshold_throttles_the_window() {
        let aggressive = {
            let mut cfg = closed_cfg(2, None, 3_000.0);
            cfg.seed = 11;
            Engine::new(cfg).unwrap().run(&mut Fifo::default()).unwrap()
        };
        let marked = {
            let mut cfg = closed_cfg(2, Some(3), 3_000.0);
            cfg.seed = 11;
            Engine::new(cfg).unwrap().run(&mut Fifo::default()).unwrap()
        };
        // Without marking the windows grow to max; with it, AIMD holds
        // them down and the queue stays shorter.
        let unmarked_w: f64 = aggressive.flows.iter().map(|f| f.final_window).sum();
        let marked_w: f64 = marked.flows.iter().map(|f| f.final_window).sum();
        assert!(marked.flows.iter().all(|f| f.marked > 0));
        assert!(aggressive.flows.iter().all(|f| f.marked == 0));
        assert!(
            marked_w < 0.5 * unmarked_w,
            "marked {marked_w} vs unmarked {unmarked_w}"
        );
        assert!(marked.result.total_mean_queue < aggressive.result.total_mean_queue);
    }

    #[test]
    fn closed_loop_runs_are_deterministic_and_seed_sensitive() {
        let run = |seed: u64| {
            let mut cfg = closed_cfg(2, Some(4), 2_000.0);
            cfg.sources.push(SourceSpec::open(0.1));
            cfg.seed = seed;
            let engine = Engine::new(cfg).unwrap();
            let mut q = StartTimeFairQueueing::new(3).unwrap();
            engine.run(&mut q).unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.result.mean_queue, b.result.mean_queue);
        assert_eq!(a.result.events, b.result.events);
        assert_eq!(a.flows, b.flows);
        let c = run(6);
        assert_ne!(a.flows, c.flows);
    }

    #[test]
    fn probe_does_not_change_closed_loop_results() {
        use greednet_telemetry::MetricsProbe;
        let cfg = closed_cfg(2, Some(3), 1_500.0);
        let a = Engine::new(cfg.clone())
            .unwrap()
            .run(&mut Fifo::default())
            .unwrap();
        let mut probe = MetricsProbe::new(2);
        let b = Engine::new(cfg)
            .unwrap()
            .run_probed(&mut Fifo::default(), &mut probe)
            .unwrap();
        assert_eq!(a.result.mean_queue, b.result.mean_queue);
        assert_eq!(a.result.events, b.result.events);
        assert_eq!(a.flows, b.flows);
        let m = probe.metrics();
        // The probe marks at departure; the flow counts the ACK's
        // delivery, so ACKs still in flight at the horizon leave the
        // probe slightly ahead. The calendar bookkeeping balances too:
        // every fire was first scheduled.
        let marks: u64 = b.flows.iter().map(|f| f.marked).sum();
        assert!(m.marks.get() >= marks, "{} < {marks}", m.marks.get());
        assert!(m.marks.get() - marks < 70, "{} vs {marks}", m.marks.get());
        assert!(m.schedules.get() >= m.fires.get());
        assert!(m.fires.get() > 0);
    }

    #[test]
    fn report_peaks_match_across_probes_and_stay_small_at_stable_load() {
        use greednet_telemetry::MetricsProbe;
        // E9-class mix at load 0.65: one pending Fire per source, and a
        // backlog that stays a few dozen packets at most.
        let cfg = EngineConfig::open_loop(&[0.08, 0.22, 0.35], 20_000.0, 3);
        let engine = Engine::new(cfg).unwrap();
        let mut q = StartTimeFairQueueing::new(3).unwrap();
        let plain = engine.run(&mut q).unwrap();
        let mut q = StartTimeFairQueueing::new(3).unwrap();
        let probed = engine
            .run_probed(&mut q, &mut MetricsProbe::new(3))
            .unwrap();
        assert_eq!(
            (plain.max_active, plain.max_calendar),
            (probed.max_active, probed.max_calendar)
        );
        assert_eq!(plain.max_calendar, 3);
        assert!(
            (5..60).contains(&plain.max_active),
            "max_active {}",
            plain.max_active
        );
    }

    #[test]
    fn report_peaks_track_overload_backlog_and_ack_depth() {
        // A blaster at twice capacity: the backlog grows by about
        // (load - 1) packets per unit time.
        let mut cfg = EngineConfig::open_loop(&[0.1, 1.9], 5_000.0, 4);
        cfg.allow_overload = true;
        let report = Engine::new(cfg).unwrap().run(&mut Fifo::default()).unwrap();
        assert!(
            report.max_active > 4_000,
            "max_active {}",
            report.max_active
        );
        // Closed-loop ACKs in flight deepen the calendar past one entry
        // per source.
        let report = Engine::new(closed_cfg(2, Some(4), 2_000.0))
            .unwrap()
            .run(&mut Fifo::default())
            .unwrap();
        assert!(
            report.max_calendar > 2,
            "max_calendar {}",
            report.max_calendar
        );
    }

    #[test]
    fn each_window_ends_at_the_first_time_past_it() {
        let at = |horizon: f64, warmup: f64, windows: usize| {
            let mut cfg = EngineConfig::open_loop(&[0.3, 0.3], horizon, 7);
            cfg.warmup = SimTime::raw(warmup);
            cfg.windows = windows;
            Stats::new(&cfg)
        };
        let spans = [2_000.0, 50_000.0, 93_950.2, 134_450.807_687_99]
            .map(|h| (h, h * DEFAULT_WARMUP_FRACTION));
        // A measured span of three ulps: most windows hold no float.
        let few_ulps = (1_000.0, 1_000.0f64.next_down().next_down().next_down());
        for (horizon, warmup) in spans.into_iter().chain([few_ulps]) {
            for windows in [4, 16, 32, 64] {
                let stats = at(horizon, warmup, windows);
                for w in 0..windows - 1 {
                    let first = stats.first_past(w);
                    assert!(stats.window_of(first) > w, "{w} of {windows}");
                    assert!(w >= stats.window_of(first.next_down()), "{w} of {windows}");
                }
                assert_eq!(stats.first_past(windows - 1), f64::INFINITY);
            }
        }
    }

    #[test]
    fn batch_means_match_the_mean_queue_where_window_ends_round_back() {
        // Horizons with window ends that divide back into the window
        // before them: the batch means once lost the time past such an
        // end (a relative gap of 1.6e-5 and 4.7e-5 here).
        for (horizon, windows) in [(93_950.2, 32), (134_450.807_687_99, 16)] {
            let mut cfg = EngineConfig::open_loop(&[0.3, 0.3], horizon, 7);
            cfg.windows = windows;
            let r = Engine::new(cfg)
                .unwrap()
                .run(&mut Fifo::default())
                .unwrap()
                .result;
            for (ci, &mean) in r.queue_ci.iter().zip(&r.mean_queue) {
                let gap = (ci.mean - mean).abs() / mean;
                assert!(gap <= 1e-12, "horizon {horizon}: {} vs {mean}", ci.mean);
            }
        }
    }

    /// Records every packet event of a run.
    #[derive(Default)]
    struct PacketLog(Vec<PacketEvent>);

    impl Probe for PacketLog {
        fn on_packet(&mut self, event: &PacketEvent) {
            self.0.push(event.clone());
        }
    }

    #[test]
    fn processor_sharing_starts_each_packet_on_arrival_and_never_preempts() {
        use crate::qdisc::ProcessorSharing;
        use std::collections::BTreeMap;
        // Overloaded, so the even split holds hundreds of packets and the
        // probe's diff runs from one even split to the next.
        let mut cfg = EngineConfig::open_loop(&[0.3, 0.3, 1.0], 2_000.0, 5);
        cfg.allow_overload = true;
        let mut log = PacketLog::default();
        let report = Engine::new(cfg)
            .unwrap()
            .run_probed(&mut ProcessorSharing, &mut log)
            .unwrap();
        assert!(report.max_active > 500, "max_active {}", report.max_active);
        let mut arrivals = BTreeMap::new();
        let mut starts = 0;
        for e in &log.0 {
            match e.kind {
                PacketEventKind::Arrival { .. } => {
                    arrivals.insert(e.packet, e.time);
                }
                PacketEventKind::ServiceStart => {
                    // Each packet starts once, at its own arrival.
                    assert_eq!(arrivals.remove(&e.packet), Some(e.time), "{e:?}");
                    starts += 1;
                }
                PacketEventKind::Preemption => panic!("processor sharing preempted: {e:?}"),
                _ => {}
            }
        }
        assert!(arrivals.is_empty(), "{} never started", arrivals.len());
        assert!(starts > 2_000, "{starts} starts");
    }

    #[test]
    fn event_list_and_context_buffer_commands() {
        let mut list = EventList::new();
        assert!(list.is_empty());
        let mut ctx = Context {
            now: SimTime::raw(10.0),
            events: &mut list,
        };
        ctx.schedule(SimTime::raw(2.5), Cmd::Fire { source: 0 });
        ctx.schedule_at(
            SimTime::raw(11.0),
            Cmd::Ack {
                source: 1,
                marked: true,
            },
        );
        assert_eq!(list.len(), 2);
        let drained: Vec<(SimTime, Cmd)> = list.drain().collect();
        assert_eq!(drained[0], (SimTime::raw(12.5), Cmd::Fire { source: 0 }));
        assert_eq!(
            drained[1],
            (
                SimTime::raw(11.0),
                Cmd::Ack {
                    source: 1,
                    marked: true
                }
            )
        );
        assert!(list.is_empty());
    }
}
