//! Equivalence of the event-calendar engine with the pre-calendar
//! drain-loop engine.
//!
//! The calendar rework (`crates/des/src/engine.rs`) restructured the
//! event loop around an explicit event calendar and entity commands, but
//! promised *bitwise identical* `SimResult`s for every all-open-loop
//! configuration. This test pins that promise mechanically: a faithful
//! copy of the old engine's loop lives below (`reference_run`), and every
//! numeric field of its output is compared bit-for-bit against
//! `Engine::run` across seeds 0..8, all six disciplines, and an
//! overloaded protection case under Fair Share and processor sharing.
//!
//! Processor sharing is the one exception: its even split runs on a GPS
//! virtual clock, whose one shared `v += s·dt` rounds differently from
//! the reference's per-packet drain. It must match `events`, `completed`
//! and the batch counts exactly, and every float within 1e-9 relative.
//!
//! Both implementations share the same RNG, discipline, and statistics
//! code, so any divergence isolates a reordering of float operations
//! introduced by the calendar restructure.

use greednet_des::qdisc::QDisc;
use greednet_des::rng::ExpStream;
use greednet_des::scenarios::DisciplineKind;
use greednet_des::{ActivePacket, Engine, EngineConfig, ServiceDist, SimResult, SimTime, Work};
use greednet_numerics::conv;
use greednet_numerics::stats::{batch_means_ci, MeanCi, Reservoir, Welford};

/// The pre-calendar engine, ported op-for-op from the old
/// `Simulator::run_probed` (probe sites dropped — they never touched
/// simulation state).
fn reference_run(cfg: &EngineConfig, discipline: &mut dyn QDisc) -> SimResult {
    let rates = cfg.rate_values();
    let horizon = cfg.horizon.get();
    let warmup = cfg.warmup.get();
    let n = rates.len();
    let mut master = ExpStream::new(cfg.seed);
    let mut arrival_streams: Vec<ExpStream> = (0..n)
        .map(|u| master.split(conv::index_to_u64(u) * 2 + 1))
        .collect();
    let mut size_streams: Vec<ExpStream> = (0..n)
        .map(|u| master.split(conv::index_to_u64(u) * 2 + 2))
        .collect();

    // Next arrival time per user (infinity for silent users).
    let mut next_arrival: Vec<f64> = (0..n)
        .map(|u| {
            if rates[u] > 0.0 {
                arrival_streams[u].sample(rates[u])
            } else {
                f64::INFINITY
            }
        })
        .collect();

    let mut active: Vec<ActivePacket> = Vec::new();
    // Remaining work of `active[i]`, kept in step with it.
    let mut remaining: Vec<Work> = Vec::new();
    let mut shares: Vec<f64> = Vec::new();
    let mut counts = vec![0usize; n];
    let mut now = 0.0f64;
    let mut next_id = 0u64;
    let mut events = 0u64;

    // Statistics.
    let window_len = (horizon - warmup) / cfg.windows as f64;
    let mut window_area = vec![vec![0.0f64; cfg.windows]; n];
    let mut area = vec![0.0f64; n];
    let mut delays: Vec<Welford> = (0..n).map(|_| Welford::new()).collect();
    let mut completed = vec![0u64; n];
    const DIST_CAP: usize = 64;
    let mut dist_time = vec![0.0f64; DIST_CAP + 1];
    let mut delay_samples: Vec<Reservoir> = (0..n)
        .map(|u| Reservoir::new(4096, cfg.seed ^ (conv::index_to_u64(u) + 1)))
        .collect();

    // Integrates the (constant) per-user counts over [t0, t1).
    let accumulate =
        |t0: f64, t1: f64, counts: &[usize], area: &mut [f64], window_area: &mut [Vec<f64>]| {
            let lo = t0.max(warmup);
            if t1 <= lo {
                return;
            }
            for u in 0..n {
                area[u] += counts[u] as f64 * (t1 - lo);
            }
            let mut t = lo;
            while t < t1 {
                let w = conv::f64_to_usize((t - warmup) / window_len).min(cfg.windows - 1);
                let w_end = warmup + (w + 1) as f64 * window_len;
                let seg_end = t1.min(w_end);
                for u in 0..n {
                    window_area[u][w] += counts[u] as f64 * (seg_end - t);
                }
                if seg_end <= t {
                    break;
                }
                t = seg_end;
            }
        };

    discipline.shares(&active, SimTime::raw(now), &mut shares);
    loop {
        // Earliest completion under current shares.
        let mut t_done = f64::INFINITY;
        let mut done_idx = usize::MAX;
        for (i, r) in remaining.iter().enumerate() {
            let s = shares.get(i).copied().unwrap_or(0.0);
            if s > 0.0 {
                let t = now + r.get() / s;
                if t < t_done {
                    t_done = t;
                    done_idx = i;
                }
            }
        }
        // Earliest arrival.
        let mut t_arr = f64::INFINITY;
        let mut arr_user = usize::MAX;
        for (u, &t) in next_arrival.iter().enumerate() {
            if t < t_arr {
                t_arr = t;
                arr_user = u;
            }
        }
        let t_next = t_done.min(t_arr).min(horizon);

        // Advance work and statistics.
        let dt = t_next - now;
        if dt > 0.0 {
            for (i, r) in remaining.iter_mut().enumerate() {
                let s = shares.get(i).copied().unwrap_or(0.0);
                if s > 0.0 {
                    *r -= Work::raw(s * dt);
                }
            }
            accumulate(now, t_next, &counts, &mut area, &mut window_area);
            let lo = now.max(warmup);
            if t_next > lo {
                let k = active.len().min(DIST_CAP);
                dist_time[k] += t_next - lo;
            }
            now = t_next;
        }

        events += 1;
        if now >= horizon {
            break;
        }
        if t_done <= t_arr {
            // Departure.
            let pkt = active.swap_remove(done_idx);
            remaining.swap_remove(done_idx);
            counts[pkt.user] -= 1;
            discipline.on_departure(&pkt, SimTime::raw(now));
            if pkt.arrival.get() >= warmup {
                delays[pkt.user].push(now - pkt.arrival.get());
                delay_samples[pkt.user].push(now - pkt.arrival.get());
                completed[pkt.user] += 1;
            }
        } else {
            // Arrival.
            let u = arr_user;
            let size = cfg.service.sample(&mut size_streams[u]);
            let pkt = ActivePacket {
                id: next_id,
                user: u,
                arrival: SimTime::raw(now),
                size: Work::raw(size),
            };
            next_id += 1;
            counts[u] += 1;
            discipline.on_arrival(&pkt, SimTime::raw(now));
            remaining.push(pkt.size);
            active.push(pkt);
            next_arrival[u] = now + arrival_streams[u].sample(rates[u]);
        }
        discipline.shares(&active, SimTime::raw(now), &mut shares);
    }

    let measured = horizon - warmup;
    let mean_queue: Vec<f64> = area.iter().map(|a| a / measured).collect();
    let queue_ci: Vec<MeanCi> = (0..n)
        .map(|u| {
            let samples: Vec<f64> = window_area[u].iter().map(|a| a / window_len).collect();
            batch_means_ci(&samples, cfg.windows / 2).unwrap_or(MeanCi {
                mean: mean_queue[u],
                half_width: f64::INFINITY,
                batches: 0,
            })
        })
        .collect();
    let mean_delay: Vec<f64> = delays.iter().map(Welford::mean).collect();
    let throughput: Vec<f64> = completed.iter().map(|&c| c as f64 / measured).collect();
    let total_mean_queue: f64 = mean_queue.iter().sum();
    let delay_percentiles: Vec<(f64, f64, f64)> = delay_samples
        .iter()
        .map(|r| {
            if r.samples().is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                (
                    r.quantile(0.50).unwrap_or(0.0),
                    r.quantile(0.95).unwrap_or(0.0),
                    r.quantile(0.99).unwrap_or(0.0),
                )
            }
        })
        .collect();
    let total_queue_dist: Vec<f64> = dist_time.iter().map(|t| t / measured).collect();

    SimResult {
        mean_queue,
        queue_ci,
        mean_delay,
        throughput,
        completed,
        total_mean_queue,
        events,
        measured_time: SimTime::raw(measured),
        delay_percentiles,
        total_queue_dist,
    }
}

/// Every numeric field: the floats by name, then the counts.
fn fields(r: &SimResult) -> (Vec<(String, f64)>, Vec<u64>) {
    let mut floats: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, values: &[f64]| {
        floats.extend((0..).zip(values).map(|(i, &x)| (format!("{name}[{i}]"), x)));
    };
    push("mean_queue", &r.mean_queue);
    push("mean_delay", &r.mean_delay);
    push("throughput", &r.throughput);
    push("totals", &[r.total_mean_queue, r.measured_time.get()]);
    push("total_queue_dist", &r.total_queue_dist);
    for (u, p) in r.delay_percentiles.iter().enumerate() {
        push(&format!("delay_percentiles[{u}]"), &[p.0, p.1, p.2]);
    }
    for (u, ci) in r.queue_ci.iter().enumerate() {
        push(&format!("ci[{u}]"), &[ci.mean, ci.half_width]);
    }
    let mut counts = r.completed.clone();
    counts.push(r.events);
    counts.extend(r.queue_ci.iter().map(|ci| conv::index_to_u64(ci.batches)));
    (floats, counts)
}

/// Every count exactly, every float bit for bit or within `tolerance`.
fn assert_matches(a: &SimResult, b: &SimResult, tolerance: Option<f64>, what: &str) {
    let (floats_a, counts_a) = fields(a);
    let (floats_b, counts_b) = fields(b);
    assert_eq!(counts_a, counts_b, "{what}: completed, events, batches");
    for ((name, x), (_, y)) in floats_a.iter().zip(&floats_b) {
        let close = tolerance.is_some_and(|tol| (x - y).abs() <= tol * x.abs().max(y.abs()));
        assert!(
            x.to_bits() == y.to_bits() || close,
            "{what}: {name} {x:e} vs {y:e}"
        );
    }
}

fn compare(cfg: &EngineConfig, kind: DisciplineKind, what: &str) {
    let rates = cfg.rate_values();
    let mut d_new = kind.build(&rates, cfg.seed ^ 0xE0).expect("discipline");
    let mut d_ref = kind.build(&rates, cfg.seed ^ 0xE0).expect("discipline");
    let engine = Engine::new(cfg.clone()).expect("valid config");
    let new = engine
        .run(d_new.as_mut())
        .expect("calendar engine runs")
        .result;
    let reference = reference_run(cfg, d_ref.as_mut());
    let tolerance = (kind == DisciplineKind::ProcessorSharing).then_some(1e-9);
    assert_matches(&new, &reference, tolerance, what);
}

#[test]
fn calendar_engine_is_bitwise_equivalent_for_all_disciplines_and_seeds() {
    // E9-class configuration: three users, mixed load 0.65.
    let rates = vec![0.08, 0.22, 0.35];
    for kind in DisciplineKind::all() {
        for seed in 0..9u64 {
            let cfg = EngineConfig::open_loop(&rates, 3_000.0, seed);
            compare(&cfg, kind, &format!("{} seed {seed}", kind.label()));
        }
    }
}

#[test]
fn calendar_engine_is_bitwise_equivalent_under_overload() {
    // The T1-style protection case: a blaster past capacity, Fair Share
    // table, overload allowed. Exercises the unbounded-queue path, and,
    // under processor sharing, a virtual clock over a thousand tags.
    for seed in 0..4u64 {
        let mut cfg = EngineConfig::open_loop(&[0.1, 1.5], 2_000.0, seed);
        cfg.allow_overload = true;
        let (fs, ps) = (DisciplineKind::FsTable, DisciplineKind::ProcessorSharing);
        compare(&cfg, fs, &format!("overload seed {seed}"));
        compare(&cfg, ps, &format!("overload PS seed {seed}"));
    }
}

#[test]
fn calendar_engine_is_bitwise_equivalent_across_service_distributions() {
    // The equivalence must hold for every service law, not just M.
    for (service, name) in [
        (ServiceDist::Deterministic, "D"),
        (ServiceDist::Erlang(3), "E3"),
        (ServiceDist::Hyperexponential { cs2: 4.0 }, "H2"),
    ] {
        let mut cfg = EngineConfig::open_loop(&[0.2, 0.3], 2_500.0, 42);
        cfg.service = service;
        compare(&cfg, DisciplineKind::Sfq, &format!("service {name}"));
    }
}

#[test]
fn zero_rate_users_stay_equivalent() {
    // Silent users exercise the "no initial Fire scheduled" path vs the
    // old engine's infinite next-arrival sentinel.
    let cfg = EngineConfig::open_loop(&[0.0, 0.4, 0.0], 2_000.0, 7);
    compare(&cfg, DisciplineKind::Fifo, "zero-rate users");
}
