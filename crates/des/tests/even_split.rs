//! Processor sharing's even split against its own share vector.
//!
//! `ProcessorSharing` answers `Service::Even`, which the bottleneck
//! serves on a GPS virtual clock without a share vector. `SplitOnly`
//! forwards the hooks and `shares` but keeps the default `service`, so
//! the same discipline answers with a share vector, the path a decorator
//! that forwards only `shares` takes; the bottleneck must recognize
//! that vector as the same even split. Both must give the same run, bit
//! for bit: every `SimResult` field by `to_bits`, the flows and the
//! report's peaks, on random mixes that include overload (total
//! open-loop load 1.2–2.0), with and without a closed-loop AIMD flow.

use greednet_des::qdisc::QDisc;
use greednet_des::{
    ActivePacket, ClosedLoopSpec, Engine, EngineConfig, EngineReport, ProcessorSharing, SimTime,
    SourceSpec,
};
use proptest::prelude::*;

/// Processor sharing served through its share vector.
#[derive(Debug)]
struct SplitOnly(ProcessorSharing);

impl QDisc for SplitOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_arrival(&mut self, pkt: &ActivePacket, now: SimTime) {
        self.0.on_arrival(pkt, now);
    }
    fn on_departure(&mut self, pkt: &ActivePacket, now: SimTime) {
        self.0.on_departure(pkt, now);
    }
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        self.0.shares(active, now, out);
    }
}

/// Every field of a report as `u64` words, floats by their bits.
fn words(report: &EngineReport) -> Vec<u64> {
    let r = &report.result;
    let count = |n: usize| u64::try_from(n).expect("count fits u64");
    let mut w: Vec<u64> = Vec::new();
    w.extend(r.mean_queue.iter().map(|x| x.to_bits()));
    for ci in &r.queue_ci {
        w.extend([
            ci.mean.to_bits(),
            ci.half_width.to_bits(),
            count(ci.batches),
        ]);
    }
    w.extend(r.mean_delay.iter().map(|x| x.to_bits()));
    w.extend(r.throughput.iter().map(|x| x.to_bits()));
    w.extend(&r.completed);
    w.extend([r.total_mean_queue.to_bits(), r.events]);
    w.push(r.measured_time.get().to_bits());
    for p in &r.delay_percentiles {
        w.extend([p.0.to_bits(), p.1.to_bits(), p.2.to_bits()]);
    }
    w.extend(r.total_queue_dist.iter().map(|x| x.to_bits()));
    for f in &report.flows {
        w.extend([count(f.source), f.sent, f.acked, f.marked]);
        w.push(f.final_window.to_bits());
    }
    w.extend([count(report.max_active), count(report.max_calendar)]);
    w
}

/// `(rates, horizon, seed, closed loop, no warm-up)`: 2–6 open-loop users
/// whose rates sum to 1.2–2.0.
fn overloaded_mix() -> impl Strategy<Value = (Vec<f64>, f64, u64, bool, bool)> {
    (2usize..=6)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0.05..1.0f64, n),
                1.2..2.0f64,
                100.0..500.0f64,
                0u64..1_000_000,
                0u8..4,
            )
        })
        .prop_map(|(weights, load, horizon, seed, flags)| {
            let total: f64 = weights.iter().sum();
            let rates = weights.iter().map(|w| w / total * load).collect();
            (rates, horizon, seed, flags & 1 == 1, flags & 2 == 2)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn even_split_runs_equal_share_scan_runs(
        (rates, horizon, seed, closed, no_warmup) in overloaded_mix()
    ) {
        let mut cfg = EngineConfig::open_loop(&rates, horizon, seed);
        cfg.allow_overload = true;
        if no_warmup {
            cfg.warmup = SimTime::ZERO;
        }
        if closed {
            cfg.sources.push(SourceSpec::ClosedLoop(ClosedLoopSpec::new()));
            cfg.marking_threshold = Some(8);
        }
        let engine = Engine::new(cfg).expect("valid config");
        let even = engine.run(&mut ProcessorSharing).expect("even split runs");
        let split = engine
            .run(&mut SplitOnly(ProcessorSharing))
            .expect("share scan runs");
        prop_assert!(even.max_active > 20, "overloaded backlog {}", even.max_active);
        prop_assert!(
            words(&even) == words(&split),
            "rates {rates:?} horizon {horizon} seed {seed} closed {closed}"
        );
    }
}
