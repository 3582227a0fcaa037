//! Wall-clock profiling: scoped timers, stage timings, and per-worker
//! pool statistics.
//!
//! Everything in this module measures real time and is therefore
//! **non-deterministic by nature**. It must never enter a deterministic
//! report payload; the [`Telemetry`] container exists so runners can
//! carry timing data *alongside* their reproducible output (the
//! `RunReport` telemetry side-channel in `greednet-runtime`) without
//! contaminating it.
#![expect(
    clippy::disallowed_methods,
    reason = "the profiler owns the wall clock; its readings stay in the telemetry side channel"
)]

use std::time::{Duration, Instant};

/// A running wall-clock timer for one labelled scope.
///
/// Start with [`ScopedTimer::start`], then either read
/// [`elapsed`](ScopedTimer::elapsed) or hand the final measurement to a
/// [`StageTimings`] with [`finish_into`](ScopedTimer::finish_into).
#[derive(Debug)]
pub struct ScopedTimer {
    label: String,
    start: Instant,
}

impl ScopedTimer {
    /// Starts timing a scope named `label`.
    #[must_use]
    pub fn start(label: impl Into<String>) -> ScopedTimer {
        ScopedTimer {
            label: label.into(),
            start: Instant::now(),
        }
    }

    /// The scope's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Time elapsed since the timer started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops the timer and records its measurement into `timings`.
    pub fn finish_into(self, timings: &mut StageTimings) {
        let elapsed = self.start.elapsed();
        timings.record(self.label, elapsed);
    }
}

/// An ordered list of labelled wall-clock measurements (one per
/// experiment stage, pool invocation, or other scope of interest).
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    entries: Vec<(String, Duration)>,
}

impl StageTimings {
    /// An empty timing list.
    #[must_use]
    pub fn new() -> StageTimings {
        StageTimings::default()
    }

    /// Records a measurement. Labels may repeat; entries keep insertion
    /// order.
    pub fn record(&mut self, label: impl Into<String>, elapsed: Duration) {
        self.entries.push((label.into(), elapsed));
    }

    /// Times the closure `f` under `label` and returns its result.
    pub fn time<T>(&mut self, label: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(label, start.elapsed());
        out
    }

    /// The recorded `(label, elapsed)` entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, Duration)] {
        &self.entries
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends another timing list after this one (task order).
    pub fn merge(&mut self, other: &StageTimings) {
        self.entries.extend(other.entries.iter().cloned());
    }
}

/// Wall-clock work accounting for a single pool worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Total time spent inside task closures.
    pub busy: Duration,
}

impl WorkerStats {
    /// Accounts one executed task that took `elapsed`.
    pub fn record_task(&mut self, elapsed: Duration) {
        self.tasks += 1;
        self.busy += elapsed;
    }
}

/// Per-worker statistics for one pool invocation.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// One entry per worker, in worker-index order. A serial (1-thread)
    /// run reports a single pseudo-worker.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock span of the whole invocation (fork to last join).
    pub wall: Duration,
}

impl PoolStats {
    /// Empty statistics for `workers` workers.
    #[must_use]
    pub fn new(workers: usize) -> PoolStats {
        PoolStats {
            workers: vec![WorkerStats::default(); workers],
            wall: Duration::ZERO,
        }
    }

    /// Total tasks executed across all workers.
    #[must_use]
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total busy time summed across workers.
    #[must_use]
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Aggregate utilization in `[0, 1]`: summed busy time divided by
    /// `workers × wall`. Zero when the wall clock or worker list is
    /// empty.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers.len() as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.total_busy().as_secs_f64() / denom).min(1.0)
    }

    /// Renders one line per worker plus an aggregate line.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, w) in self.workers.iter().enumerate() {
            let share = if self.wall.as_secs_f64() > 0.0 {
                w.busy.as_secs_f64() / self.wall.as_secs_f64()
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  worker {i}: tasks={:>4} busy={:>9.3?} ({:>5.1}% of wall)",
                w.tasks,
                w.busy,
                share * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  total: tasks={} wall={:.3?} utilization={:.1}%",
            self.total_tasks(),
            self.wall,
            self.utilization() * 100.0
        );
        out
    }
}

/// The non-deterministic telemetry side-channel: stage timings plus
/// labelled pool statistics.
///
/// Carried next to — never inside — deterministic run output, so bitwise
/// reproducibility contracts are unaffected by how long anything took.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Labelled wall-clock measurements, insertion order.
    pub timers: StageTimings,
    /// `(label, stats)` per instrumented pool invocation, insertion
    /// order.
    pub pools: Vec<(String, PoolStats)>,
}

impl Telemetry {
    /// An empty telemetry set.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Whether no timing or pool data has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty() && self.pools.is_empty()
    }

    /// Records a labelled wall-clock measurement.
    pub fn timer(&mut self, label: impl Into<String>, elapsed: Duration) {
        self.timers.record(label, elapsed);
    }

    /// Records one pool invocation's statistics under `label`.
    pub fn add_pool(&mut self, label: impl Into<String>, stats: PoolStats) {
        self.pools.push((label.into(), stats));
    }

    /// Appends another telemetry set after this one.
    pub fn merge(&mut self, other: &Telemetry) {
        self.timers.merge(&other.timers);
        self.pools.extend(other.pools.iter().cloned());
    }

    /// Renders the whole side-channel as human-readable text.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            return out;
        }
        out.push_str("== telemetry (wall-clock; non-deterministic) ==\n");
        if !self.timers.is_empty() {
            out.push_str("stage timings:\n");
            for (label, d) in self.timers.entries() {
                let _ = writeln!(out, "  {label}: {d:.3?}");
            }
        }
        for (label, stats) in &self.pools {
            let _ = writeln!(out, "pool [{label}]:");
            out.push_str(&stats.to_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timings_record_and_time() {
        let mut t = StageTimings::new();
        assert!(t.is_empty());
        let out = t.time("work", || 41 + 1);
        assert_eq!(out, 42);
        t.record("manual", Duration::from_millis(5));
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.entries()[0].0, "work");
        assert_eq!(t.entries()[1].1, Duration::from_millis(5));

        let timer = ScopedTimer::start("scoped");
        assert_eq!(timer.label(), "scoped");
        let _ = timer.elapsed();
        timer.finish_into(&mut t);
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.entries()[2].0, "scoped");
    }

    #[test]
    fn pool_stats_utilization_math() {
        let mut stats = PoolStats::new(2);
        stats.workers[0].record_task(Duration::from_millis(100));
        stats.workers[0].record_task(Duration::from_millis(100));
        stats.workers[1].record_task(Duration::from_millis(200));
        stats.wall = Duration::from_millis(250);
        assert_eq!(stats.total_tasks(), 3);
        assert_eq!(stats.total_busy(), Duration::from_millis(400));
        // 400ms busy / (2 workers * 250ms wall) = 0.8
        assert!((stats.utilization() - 0.8).abs() < 1e-9);
        let text = stats.to_text();
        assert!(text.contains("worker 0"));
        assert!(text.contains("utilization=80.0%"));

        // Degenerate cases don't divide by zero.
        assert_eq!(PoolStats::new(0).utilization(), 0.0);
        assert_eq!(PoolStats::new(4).utilization(), 0.0);
    }

    #[test]
    fn telemetry_merges_and_renders() {
        let mut a = Telemetry::new();
        assert!(a.is_empty());
        assert_eq!(a.to_text(), "");
        a.timer("stage-1", Duration::from_millis(3));
        let mut pool = PoolStats::new(1);
        pool.workers[0].record_task(Duration::from_millis(2));
        pool.wall = Duration::from_millis(2);
        a.add_pool("replications", pool);

        let mut b = Telemetry::new();
        b.timer("stage-2", Duration::from_millis(4));
        a.merge(&b);

        assert_eq!(a.timers.entries().len(), 2);
        assert_eq!(a.pools.len(), 1);
        let text = a.to_text();
        assert!(text.contains("stage-1"));
        assert!(text.contains("stage-2"));
        assert!(text.contains("pool [replications]"));
    }
}
