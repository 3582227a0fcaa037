//! Counters, gauges, and fixed-bucket log2 histograms, all mergeable
//! **in task order**.
//!
//! The workspace's determinism contract (see `greednet-runtime`) requires
//! that an N-thread replication batch produce bitwise the same output as
//! a serial run. Metrics preserve it by construction: every mergeable
//! field is either an integer count (addition: exactly associative and
//! commutative) or a min/max extreme (also exactly associative and
//! commutative), so folding per-task metric sets in task order — the only
//! order the pool ever merges in — cannot depend on the thread count.
//! There are deliberately *no* floating-point accumulators in the merge
//! path.

use crate::probe::{CalendarEvent, CalendarEventKind, PacketEvent, PacketEventKind, Probe};

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Merges another counter into this one (addition).
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }
}

/// A last-write-wins instantaneous value.
///
/// Merging follows task order: if `other` was ever set, it is the later
/// task and its value wins.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    value: f64,
    set: bool,
}

impl Gauge {
    /// An unset gauge.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Records the current value.
    #[inline]
    pub fn set(&mut self, value: f64) {
        self.value = value;
        self.set = true;
    }

    /// The last recorded value, if any.
    #[must_use]
    pub fn get(&self) -> Option<f64> {
        self.set.then_some(self.value)
    }

    /// Merges in task order: a set `other` (the later task) wins.
    pub fn merge(&mut self, other: &Gauge) {
        if other.set {
            *self = *other;
        }
    }
}

/// Number of power-of-two buckets in a [`Log2Histogram`]: bucket `i`
/// covers `[2^(i-32), 2^(i-31))`, so the span is `[2^-32, 2^32)`.
pub const LOG2_BUCKETS: usize = 64;
const EXP_OFFSET: i32 = 32;

/// A fixed-bucket base-2 logarithmic histogram.
///
/// Positive finite values land in the power-of-two bucket containing
/// them (clamped to the span ends); zero, negative, and NaN values are
/// counted in a dedicated `zero` bucket (queue-occupancy zero is a
/// meaningful observation, not an error). All merge state is integer
/// counts plus min/max extremes, so [`merge`](Log2Histogram::merge) is
/// exactly associative and commutative — the property the task-order
/// determinism contract rests on, verified by proptests.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    zero: u64,
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    min: f64,
    max: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            zero: 0,
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index for `value`, or `None` for the zero bucket.
    /// Exact `floor(log2 v)` via the IEEE-754 exponent field (no
    /// floating-point log), clamped to the bucket span.
    #[must_use]
    pub fn bucket_index(value: f64) -> Option<usize> {
        if value <= 0.0 || value.is_nan() {
            return None;
        }
        if value.is_infinite() {
            return Some(LOG2_BUCKETS - 1);
        }
        let bits = value.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let exp = biased - 1023; // subnormals (biased 0) clamp below anyway
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_possible_wrap,
            reason = "LOG2_BUCKETS is a small constant"
        )]
        let idx = (exp + EXP_OFFSET).clamp(0, LOG2_BUCKETS as i32 - 1);
        #[expect(clippy::cast_sign_loss, reason = "clamped to [0, LOG2_BUCKETS) above")]
        Some(idx as usize)
    }

    /// Lower and upper bound of bucket `i`: `[2^(i-32), 2^(i-31))`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        reason = "bucket indices are below LOG2_BUCKETS"
    )]
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = (i as i32 - EXP_OFFSET).clamp(-1022, 1023);
        ((lo as f64).exp2(), (lo as f64 + 1.0).exp2())
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        match Self::bucket_index(value) {
            Some(i) => {
                self.buckets[i] += n;
                if value < self.min {
                    self.min = value;
                }
                if value > self.max {
                    self.max = value;
                }
            }
            None => self.zero += n,
        }
        self.count += n;
    }

    /// Total observations (including the zero bucket).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations in the zero/negative bucket.
    #[must_use]
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest positive value recorded, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.min.is_finite()).then_some(self.min)
    }

    /// Largest positive value recorded, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.max > f64::NEG_INFINITY).then_some(self.max)
    }

    /// Non-empty buckets as `(lower, upper, count)` in ascending order
    /// (the zero bucket, when non-empty, comes first as `(0.0, 0.0, n)`).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let zero = (self.zero > 0).then_some((0.0, 0.0, self.zero)).into_iter();
        zero.chain(self.buckets.iter().enumerate().filter_map(|(i, &n)| {
            let (lo, hi) = Self::bucket_bounds(i);
            (n > 0).then_some((lo, hi, n))
        }))
    }

    /// The value below which a fraction `q` of observations fall,
    /// estimated as the geometric midpoint of the containing bucket
    /// (the zero bucket reports 0). Returns `None` on an empty histogram
    /// or out-of-range `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        #[expect(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q in [0, 1], so the rank lies in [0, count] before the clamp"
        )]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        if target <= seen {
            return Some(0.0);
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if target <= seen {
                let (lo, hi) = Self::bucket_bounds(i);
                return Some((lo * hi).sqrt());
            }
        }
        self.max()
    }

    /// Merges another histogram into this one. Exactly associative and
    /// commutative: integer bucket additions plus min/max extremes.
    pub fn merge(&mut self, other: &Log2Histogram) {
        self.zero += other.zero;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Renders the histogram as aligned text rows with proportional bars.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.count == 0 {
            out.push_str("  (empty)\n");
            return out;
        }
        let peak = self
            .nonzero_buckets()
            .map(|(_, _, n)| n)
            .max()
            .unwrap_or(1)
            .max(1);
        for (lo, hi, n) in self.nonzero_buckets() {
            #[expect(clippy::cast_possible_truncation, reason = "bar length is at most 40")]
            let bar = ((n * 40).div_ceil(peak)) as usize;
            let label = if lo == 0.0 && hi == 0.0 {
                "         0        ".to_string()
            } else {
                format!("[{:>9}, {:<9})", fmt_bound(lo), fmt_bound(hi))
            };
            let _ = writeln!(out, "  {label} {n:>10}  {}", "#".repeat(bar));
        }
        out
    }
}

/// Formats a bucket bound compactly: plain decimal in the human range,
/// scientific notation outside it.
fn fmt_bound(v: f64) -> String {
    if !(1e-3..1e4).contains(&v) {
        format!("{v:.2e}")
    } else {
        format!("{v:.4}")
    }
}

/// The standard simulator metric set: per-user counters and delay
/// histograms plus system-wide occupancy and busy-period histograms.
///
/// Built by a [`MetricsProbe`] during `Engine::run_probed`; merged
/// across replications in task order (every field is integer-count /
/// min-max mergeable, see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Packet arrivals per user.
    pub arrivals: Vec<Counter>,
    /// Packet departures per user.
    pub departures: Vec<Counter>,
    /// Service-start (or resume) events across all users.
    pub service_starts: Counter,
    /// Preemption events across all users.
    pub preemptions: Counter,
    /// Packet drops across all users (always 0 for the lossless engine).
    pub drops: Counter,
    /// ECN congestion marks applied to departing packets of closed-loop
    /// sources (always 0 without a marking threshold).
    pub marks: Counter,
    /// Commands scheduled onto the event calendar.
    pub schedules: Counter,
    /// Commands popped off the event calendar for dispatch.
    pub fires: Counter,
    /// Per-user packet sojourn times.
    pub delay: Vec<Log2Histogram>,
    /// Total number-in-system sampled at arrival instants. By PASTA
    /// (Poisson arrivals see time averages) this estimates the
    /// time-stationary occupancy distribution; the zero bucket counts
    /// arrivals that found the system empty.
    pub occupancy: Log2Histogram,
    /// Durations of server busy periods (first arrival into an empty
    /// system until the system next empties).
    pub busy_periods: Log2Histogram,
}

impl SimMetrics {
    /// An empty metric set for `users` users.
    #[must_use]
    pub fn new(users: usize) -> SimMetrics {
        SimMetrics {
            arrivals: vec![Counter::new(); users],
            departures: vec![Counter::new(); users],
            service_starts: Counter::new(),
            preemptions: Counter::new(),
            drops: Counter::new(),
            marks: Counter::new(),
            schedules: Counter::new(),
            fires: Counter::new(),
            delay: vec![Log2Histogram::new(); users],
            occupancy: Log2Histogram::new(),
            busy_periods: Log2Histogram::new(),
        }
    }

    /// Number of users this metric set covers.
    #[must_use]
    pub fn users(&self) -> usize {
        self.arrivals.len()
    }

    /// Merges another metric set into this one (task order).
    ///
    /// # Panics
    /// If the user counts differ — merging metrics of different systems
    /// is a logic error.
    pub fn merge(&mut self, other: &SimMetrics) {
        assert_eq!(
            self.users(),
            other.users(),
            "cannot merge SimMetrics of different user counts"
        );
        for (a, b) in self.arrivals.iter_mut().zip(&other.arrivals) {
            a.merge(b);
        }
        for (a, b) in self.departures.iter_mut().zip(&other.departures) {
            a.merge(b);
        }
        self.service_starts.merge(&other.service_starts);
        self.preemptions.merge(&other.preemptions);
        self.drops.merge(&other.drops);
        self.marks.merge(&other.marks);
        self.schedules.merge(&other.schedules);
        self.fires.merge(&other.fires);
        for (a, b) in self.delay.iter_mut().zip(&other.delay) {
            a.merge(b);
        }
        self.occupancy.merge(&other.occupancy);
        self.busy_periods.merge(&other.busy_periods);
    }

    /// Renders the full metric set as human-readable text.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "counters: service_starts={} preemptions={} drops={} marks={}",
            self.service_starts.get(),
            self.preemptions.get(),
            self.drops.get(),
            self.marks.get()
        );
        let _ = writeln!(
            out,
            "calendar: schedules={} fires={}",
            self.schedules.get(),
            self.fires.get()
        );
        for u in 0..self.users() {
            let _ = writeln!(
                out,
                "user {u}: arrivals={} departures={}",
                self.arrivals[u].get(),
                self.departures[u].get()
            );
            let _ = writeln!(out, "user {u} delay histogram (log2 buckets):");
            out.push_str(&self.delay[u].to_text());
        }
        let _ = writeln!(out, "occupancy at arrival instants (PASTA):");
        out.push_str(&self.occupancy.to_text());
        let _ = writeln!(out, "busy-period lengths:");
        out.push_str(&self.busy_periods.to_text());
        out
    }
}

/// A [`Probe`] that assembles a [`SimMetrics`] from packet events.
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    metrics: SimMetrics,
    busy_since: f64,
}

impl MetricsProbe {
    /// A fresh probe for a system of `users` users.
    #[must_use]
    pub fn new(users: usize) -> MetricsProbe {
        MetricsProbe {
            metrics: SimMetrics::new(users),
            busy_since: 0.0,
        }
    }

    /// The metrics gathered so far.
    #[must_use]
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Consumes the probe, returning the gathered metrics.
    #[must_use]
    pub fn into_metrics(self) -> SimMetrics {
        self.metrics
    }
}

impl Probe for MetricsProbe {
    #[inline]
    fn on_packet(&mut self, event: &PacketEvent) {
        match event.kind {
            PacketEventKind::Arrival { .. } => {
                self.metrics.arrivals[event.user].inc();
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "queue lengths are far below 2^53, so the f64 is exact"
                )]
                self.metrics.occupancy.record(event.queue_len as f64);
                if event.queue_len == 0 {
                    self.busy_since = event.time;
                }
            }
            PacketEventKind::ServiceStart => self.metrics.service_starts.inc(),
            PacketEventKind::Preemption => self.metrics.preemptions.inc(),
            PacketEventKind::Departure { delay } => {
                self.metrics.departures[event.user].inc();
                self.metrics.delay[event.user].record(delay);
                if event.queue_len == 0 {
                    self.metrics
                        .busy_periods
                        .record(event.time - self.busy_since);
                }
            }
            PacketEventKind::Drop => self.metrics.drops.inc(),
            PacketEventKind::Marked => self.metrics.marks.inc(),
        }
    }

    #[inline]
    fn on_calendar(&mut self, event: &CalendarEvent) {
        match event.kind {
            CalendarEventKind::Schedule => self.metrics.schedules.inc(),
            CalendarEventKind::Fire => self.metrics.fires.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_merge_semantics() {
        let mut a = Counter::new();
        a.inc();
        a.add(4);
        let mut b = Counter::new();
        b.inc();
        a.merge(&b);
        assert_eq!(a.get(), 6);

        let mut g = Gauge::new();
        assert_eq!(g.get(), None);
        g.set(2.5);
        let mut later = Gauge::new();
        g.merge(&later); // unset later task leaves the value alone
        assert_eq!(g.get(), Some(2.5));
        later.set(7.0);
        g.merge(&later);
        assert_eq!(g.get(), Some(7.0));
    }

    #[test]
    fn bucket_index_is_exact_floor_log2() {
        assert_eq!(Log2Histogram::bucket_index(1.0), Some(32));
        assert_eq!(Log2Histogram::bucket_index(1.999), Some(32));
        assert_eq!(Log2Histogram::bucket_index(2.0), Some(33));
        assert_eq!(Log2Histogram::bucket_index(0.5), Some(31));
        assert_eq!(Log2Histogram::bucket_index(0.0), None);
        assert_eq!(Log2Histogram::bucket_index(-3.0), None);
        assert_eq!(Log2Histogram::bucket_index(f64::NAN), None);
        assert_eq!(
            Log2Histogram::bucket_index(f64::INFINITY),
            Some(LOG2_BUCKETS - 1)
        );
        // Far outside the span: clamped, not lost.
        assert_eq!(Log2Histogram::bucket_index(1e300), Some(LOG2_BUCKETS - 1));
        assert_eq!(Log2Histogram::bucket_index(1e-300), Some(0));
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [0.001, 0.37, 1.0, 2.0, 3.5, 1000.0] {
            let i = Log2Histogram::bucket_index(v).unwrap();
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [0.0, 0.5, 1.5, 1.6, 3.0, 3.0, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.zero_count(), 1);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(100.0));
        // Median lands in the [1, 2) bucket.
        let q50 = h.quantile(0.5).unwrap();
        assert!((1.0..2.0).contains(&q50), "{q50}");
        assert_eq!(h.quantile(0.0), Some(0.0)); // ceil clamps to first obs
        assert!(h.quantile(1.5).is_none());
        assert!(Log2Histogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn histogram_merge_matches_joint_recording() {
        let values_a = [0.1, 2.0, 7.0, 0.0];
        let values_b = [0.2, 2.5, 900.0];
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut joint = Log2Histogram::new();
        for v in values_a {
            a.record(v);
            joint.record(v);
        }
        for v in values_b {
            b.record(v);
            joint.record(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn metrics_probe_tracks_busy_periods_and_counts() {
        let mut p = MetricsProbe::new(2);
        let ev = |time, user, queue_len, kind| PacketEvent {
            time,
            user,
            packet: 0,
            queue_len,
            kind,
        };
        // Busy period [1.0, 4.0): arrival into empty, departure to empty.
        p.on_packet(&ev(1.0, 0, 0, PacketEventKind::Arrival { size: 1.0 }));
        p.on_packet(&ev(1.5, 1, 1, PacketEventKind::Arrival { size: 0.5 }));
        p.on_packet(&ev(2.0, 0, 0, PacketEventKind::ServiceStart));
        p.on_packet(&ev(3.0, 1, 1, PacketEventKind::Departure { delay: 1.5 }));
        p.on_packet(&ev(4.0, 0, 0, PacketEventKind::Departure { delay: 3.0 }));
        p.on_packet(&ev(4.0, 0, 0, PacketEventKind::Marked));
        p.on_calendar(&CalendarEvent {
            time: 5.0,
            seq: 0,
            kind: CalendarEventKind::Schedule,
        });
        p.on_calendar(&CalendarEvent {
            time: 5.0,
            seq: 0,
            kind: CalendarEventKind::Fire,
        });
        let m = p.metrics();
        assert_eq!(m.marks.get(), 1);
        assert_eq!(m.schedules.get(), 1);
        assert_eq!(m.fires.get(), 1);
        assert_eq!(m.arrivals[0].get(), 1);
        assert_eq!(m.arrivals[1].get(), 1);
        assert_eq!(m.departures[0].get(), 1);
        assert_eq!(m.service_starts.get(), 1);
        assert_eq!(m.busy_periods.count(), 1);
        assert_eq!(m.occupancy.count(), 2);
        assert_eq!(m.occupancy.zero_count(), 1); // first arrival saw empty
        assert_eq!(m.delay[0].count(), 1);
        let text = m.to_text();
        assert!(text.contains("busy-period"));
    }

    #[test]
    #[should_panic(expected = "different user counts")]
    fn metrics_merge_rejects_mismatched_shapes() {
        let mut a = SimMetrics::new(2);
        let b = SimMetrics::new(3);
        a.merge(&b);
    }

    #[test]
    fn histogram_text_renders_bars() {
        let mut h = Log2Histogram::new();
        for _ in 0..10 {
            h.record(1.5);
        }
        h.record(0.0);
        let text = h.to_text();
        assert!(text.contains('#'));
        assert!(text.contains("0 "));
        assert!(Log2Histogram::new().to_text().contains("empty"));
    }
}
