//! The workload table, the measurement loop every workload shares, and
//! the outcome a run reports.

use crate::metrics::{self, Metric, MetricSet, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use greednet_runtime::ScopedTimer;

/// The benchmark's workloads. Why each one exists is in `BENCHMARK.json`
/// and the package README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §5.2 mix at load 0.66 under all six disciplines plus the
    /// marked AIMD variant.
    DesStable,
    /// The same mix plus a blaster at rate 1.0 (load 1.66).
    DesOverload,
    /// Finite-`N` FIFO solve over three log classes.
    LargenFifo,
    /// Finite-`N` Fair Share solve near saturation.
    LargenFsHeavy,
    /// The scenario service over TCP, half hits and half misses.
    ServeMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::DesStable,
        Workload::DesOverload,
        Workload::LargenFifo,
        Workload::LargenFsHeavy,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesStable => "des_stable",
            Workload::DesOverload => "des_overload",
            Workload::LargenFifo => "largen_fifo",
            Workload::LargenFsHeavy => "largen_fs_heavy",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` runs every
/// code path in well under a second, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Root seed; every input is derived from it with `child_seed`.
    pub seed: u64,
    /// Time budget for the untraced passes, in seconds.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked output was correct.
    pub correct: bool,
    /// Operations run (DES runs, solves or requests).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when tracing.
    pub metrics: Vec<Metric>,
    /// Spans recorded by the traced pass (empty when not tracing).
    pub spans: Spans,
}

/// Runs one workload.
///
/// # Errors
/// Set-up or transport failures that stop the workload before it can
/// report (output-check failures are counted in the outcome instead).
pub fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let mut spans = Spans::new(settings.trace);
    let mut tally = Tally::default();
    let mut end_to_end = MetricSet::new();
    let mut layers = MetricSet::new();
    let measured = match workload {
        Workload::DesStable | Workload::DesOverload => {
            crate::des::measure(workload, settings, &mut tally, &mut layers, &mut spans)?
        }
        Workload::LargenFifo | Workload::LargenFsHeavy => {
            crate::largen::measure(workload, settings, &mut tally, &mut layers, &mut spans)?
        }
        Workload::ServeMixed => {
            crate::serve::measure(settings, &mut tally, &mut layers, &mut spans)?
        }
    };
    let metrics = if settings.trace {
        layers.set(
            "trace.overhead_s",
            measured.traced_s - metrics::median(&measured.pass_s),
        );
        layers.finish(PER_LAYER)?
    } else {
        let per_pass = |q: f64| -> Vec<f64> {
            tally
                .passes
                .iter()
                .filter(|ops| !ops.is_empty())
                .map(|ops| {
                    let mut sorted = ops.clone();
                    sorted.sort_by(f64::total_cmp);
                    metrics::quantile(&sorted, q)
                })
                .collect()
        };
        end_to_end.set("setup_s", measured.setup_s);
        end_to_end.set("wall_s", across_passes(&measured.pass_s));
        end_to_end.set("latency_p50_ms", across_passes(&per_pass(0.50)));
        end_to_end.set("latency_p99_ms", across_passes(&per_pass(0.99)));
        end_to_end.set("peak_rss_mb", metrics::peak_rss_mb()?);
        end_to_end.finish(END_TO_END)?
    };
    Ok(Outcome {
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans,
    })
}

/// Quantile of a time statistic across passes that a run reports.
///
/// Each pass is an independent sample of the workload. Interference from
/// other tenants of a shared host only ever slows a pass down, and comes
/// in bursts of seconds, so a run reports a low quantile across passes
/// rather than the median: on a 2-core shared host the median of 25
/// passes moved by 20% between runs, the 10th percentile by 4%.
const PASS_QUANTILE: f64 = 0.10;

fn across_passes(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    metrics::quantile(&sorted, PASS_QUANTILE)
}

/// What a workload's measurement hands back to [`run`].
#[derive(Debug)]
pub(crate) struct Measured {
    /// Median set-up time.
    pub setup_s: f64,
    /// Wall time of each untraced pass.
    pub pass_s: Vec<f64>,
    /// Wall time of the traced pass (0 when not tracing).
    pub traced_s: f64,
}

/// Operation counts, check failures and per-operation latencies, grouped
/// by pass.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub passes: Vec<Vec<f64>>,
}

impl Tally {
    /// Counts one timed operation and its output check.
    pub fn op(&mut self, ms: f64, check: Result<(), String>) {
        match self.passes.last_mut() {
            Some(ops) => ops.push(ms),
            None => self.passes.push(vec![ms]),
        }
        self.attempted += 1;
        self.fail_on(check);
    }

    /// Counts a failed check against an already counted operation.
    pub fn fail_on(&mut self, check: Result<(), String>) {
        if let Err(why) = check {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {why}");
            }
        }
    }
}

/// Runs `pass(i, tally)` for `i = 0, 1, …` and returns each pass's wall
/// time; operations counted during a pass are grouped under it. At least
/// one pass runs; another starts only if it would, at the last pass's
/// pace, still end within `seconds` of the first.
pub(crate) fn timed_passes(
    seconds: f64,
    tally: &mut Tally,
    mut pass: impl FnMut(u64, &mut Tally) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let budget = ScopedTimer::start("passes");
    let mut times = Vec::new();
    let mut index = 0u64;
    loop {
        tally.passes.push(Vec::new());
        let timer = ScopedTimer::start("pass");
        pass(index, tally)?;
        let took = secs(&timer);
        times.push(took);
        index += 1;
        if secs(&budget) + took > seconds {
            return Ok(times);
        }
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// time; earlier results are handed to `discard` untimed.
pub(crate) fn median_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = last.take() {
            discard(previous)?;
        }
        let timer = ScopedTimer::start("setup");
        let built = setup()?;
        times.push(secs(&timer));
        last = Some(built);
    }
    let built = last.ok_or_else(|| "set-up never ran".to_string())?;
    Ok((built, metrics::median(&times)))
}

/// Seconds since `timer` started.
pub(crate) fn secs(timer: &ScopedTimer) -> f64 {
    timer.elapsed().as_secs_f64()
}
