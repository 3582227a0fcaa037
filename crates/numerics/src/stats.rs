//! Streaming and batch statistics.
//!
//! The packet-level simulator produces long time series of per-user queue
//! lengths; experiments report means with confidence intervals computed by
//! the method of batch means (which tolerates the serial correlation of
//! queueing processes). [`Welford`] provides numerically stable streaming
//! moments; [`TimeWeighted`] accumulates time-averages of piecewise
//! constant signals (queue lengths between events).

use crate::error::NumericsError;
use crate::Result;

/// Numerically stable streaming mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. a queue
/// length between simulator events.
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    integral: f64,
    total_time: f64,
    last_value: f64,
    last_time: f64,
    started: bool,
}

impl TimeWeighted {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the signal takes `value` from time `t` onward.
    /// Times must be non-decreasing.
    pub fn record(&mut self, t: f64, value: f64) {
        if self.started {
            debug_assert!(
                t >= self.last_time,
                "time went backwards: {t} < {}",
                self.last_time
            );
            let dt = t - self.last_time;
            self.integral += self.last_value * dt;
            self.total_time += dt;
        }
        self.last_value = value;
        self.last_time = t;
        self.started = true;
    }

    /// Closes the accumulation window at time `t` without changing the value.
    pub fn finish(&mut self, t: f64) {
        if self.started {
            let dt = t - self.last_time;
            self.integral += self.last_value * dt;
            self.total_time += dt;
            self.last_time = t;
        }
    }

    /// Time-averaged value over the accumulated window (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total_time > 0.0 {
            self.integral / self.total_time
        } else {
            0.0
        }
    }

    /// Total observed time.
    pub fn elapsed(&self) -> f64 {
        self.total_time
    }

    /// Resets the accumulator but keeps the current signal value — used to
    /// discard a warm-up period without losing state.
    pub fn reset_at(&mut self, t: f64) {
        self.finish(t);
        self.integral = 0.0;
        self.total_time = 0.0;
        self.last_time = t;
    }
}

/// A mean with a symmetric confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the confidence interval.
    pub half_width: f64,
    /// Number of batches used.
    pub batches: usize,
}

impl MeanCi {
    /// True if `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.half_width
    }
}

/// Two-sided Student-t 97.5% quantile (95% CI) for `df` degrees of freedom.
/// Table for small df, normal approximation beyond.
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[df - 1]
    } else {
        1.96 + 2.4 / df as f64 // smooth approach to the normal quantile
    }
}

/// 95% confidence interval for the steady-state mean of a (possibly
/// autocorrelated) series by the method of batch means.
///
/// # Errors
/// [`NumericsError::InvalidArgument`] if fewer than `2 * batches` samples
/// are supplied or `batches < 2`.
pub fn batch_means_ci(samples: &[f64], batches: usize) -> Result<MeanCi> {
    if batches < 2 || samples.len() < 2 * batches {
        return Err(NumericsError::InvalidArgument {
            detail: format!(
                "batch_means_ci needs >= 2 batches and >= 2*batches samples (got {} samples, {batches} batches)",
                samples.len()
            ),
        });
    }
    let per = samples.len() / batches;
    let mut batch_means = Vec::with_capacity(batches);
    for b in 0..batches {
        let chunk = &samples[b * per..(b + 1) * per];
        batch_means.push(chunk.iter().sum::<f64>() / per as f64);
    }
    let mean = batch_means.iter().sum::<f64>() / batches as f64;
    let var = batch_means
        .iter()
        .map(|m| (m - mean) * (m - mean))
        .sum::<f64>()
        / (batches - 1) as f64;
    let half = t_975(batches - 1) * (var / batches as f64).sqrt();
    Ok(MeanCi {
        mean,
        half_width: half,
        batches,
    })
}

/// Empirical quantile (linear interpolation between order statistics).
///
/// # Errors
/// [`NumericsError::InvalidArgument`] for empty input or `q` outside \[0,1\].
pub fn quantile(samples: &[f64], q: f64) -> Result<f64> {
    let mut sorted = samples.to_vec();
    // Total comparator (GN07): identical to `partial_cmp` on NaN-free
    // samples; any NaN sorts deterministically last instead of scrambling
    // the order statistics.
    sorted.sort_by(f64::total_cmp);
    sorted_quantile(&sorted, q)
}

/// [`quantile`] of samples already sorted by `f64::total_cmp`, so that
/// several quantiles of one sample set share one sort.
///
/// # Errors
/// [`NumericsError::InvalidArgument`] for empty input or `q` outside \[0,1\].
pub fn sorted_quantile(sorted: &[f64], q: f64) -> Result<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return Err(NumericsError::InvalidArgument {
            detail: format!(
                "quantile requires non-empty samples and q in [0,1], got len={} q={q}",
                sorted.len()
            ),
        });
    }
    let pos = q * (sorted.len() - 1) as f64;
    // `pos` is finite and within [0, len-1] by the argument checks above.
    let lo = crate::conv::f64_to_usize(pos.floor());
    let hi = crate::conv::f64_to_usize(pos.ceil());
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert_close(w.mean(), 5.0, 1e-12);
        assert_close(w.variance(), 32.0 / 7.0, 1e-12);
        assert_eq!(w.count(), 8);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in data.iter().enumerate() {
            all.push(x);
            if i < 37 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_close(a.mean(), all.mean(), 1e-12);
        assert_close(a.variance(), all.variance(), 1e-10);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn time_weighted_step_signal() {
        // value 2 on [0, 1), value 4 on [1, 3): mean = (2 + 8)/3.
        let mut tw = TimeWeighted::new();
        tw.record(0.0, 2.0);
        tw.record(1.0, 4.0);
        tw.finish(3.0);
        assert_close(tw.mean(), 10.0 / 3.0, 1e-12);
        assert_close(tw.elapsed(), 3.0, 1e-12);
    }

    #[test]
    fn time_weighted_warmup_reset() {
        let mut tw = TimeWeighted::new();
        tw.record(0.0, 100.0); // warm-up garbage
        tw.reset_at(10.0);
        tw.record(10.0, 1.0);
        tw.finish(20.0);
        assert_close(tw.mean(), 1.0, 1e-12);
    }

    #[test]
    fn time_weighted_empty() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean(), 0.0);
    }

    #[test]
    fn batch_means_iid_covers_truth() {
        // Deterministic LCG noise around mean 5.
        let mut seed = 1u64;
        let data: Vec<f64> = (0..4000)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                5.0 + ((seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5)
            })
            .collect();
        let ci = batch_means_ci(&data, 20).unwrap();
        assert!(ci.contains(5.0), "CI {ci:?} misses 5.0");
        assert!(ci.half_width < 0.05);
    }

    #[test]
    fn batch_means_rejects_tiny_input() {
        assert!(batch_means_ci(&[1.0, 2.0, 3.0], 2).is_err());
        assert!(batch_means_ci(&[1.0; 100], 1).is_err());
    }

    #[test]
    fn quantile_basics() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_close(quantile(&data, 0.0).unwrap(), 1.0, 1e-12);
        assert_close(quantile(&data, 0.5).unwrap(), 3.0, 1e-12);
        assert_close(quantile(&data, 1.0).unwrap(), 5.0, 1e-12);
        assert_close(quantile(&data, 0.25).unwrap(), 2.0, 1e-12);
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&data, 1.5).is_err());
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t_975(1) > t_975(5));
        assert!(t_975(5) > t_975(30));
        assert!((t_975(1000) - 1.96).abs() < 0.01);
    }
}

/// Fixed-capacity uniform reservoir sampler (Algorithm R) for streaming
/// quantile estimation when storing every observation is impractical
/// (e.g. per-packet delays over millions of events).
///
/// Deterministic given the seed; each element of the stream ends up in
/// the reservoir with equal probability.
#[derive(Debug, Clone)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<f64>,
    state: u64,
}

impl Reservoir {
    /// Creates a reservoir holding up to `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (programmer error).
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            samples: Vec::with_capacity(capacity),
            state: seed ^ 0x9E3779B97F4A7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: tiny, fast, adequate for reservoir indices.
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Offers an observation to the reservoir.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else {
            let j = self.next_u64() % self.seen;
            if let Ok(j) = usize::try_from(j) {
                if j < self.capacity {
                    self.samples[j] = x;
                }
            }
        }
    }

    /// Number of observations offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample set.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Estimated quantile `q ∈ [0, 1]` from the reservoir.
    ///
    /// # Errors
    /// [`NumericsError::InvalidArgument`] if empty or `q` out of range.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        quantile(&self.samples, q)
    }
}

#[cfg(test)]
mod reservoir_tests {
    use super::*;

    #[test]
    fn fills_then_samples_uniformly() {
        let mut r = Reservoir::new(100, 42);
        for i in 0..100 {
            r.push(i as f64);
        }
        assert_eq!(r.samples().len(), 100);
        assert_eq!(r.seen(), 100);
        // Stream 100k values from a known uniform ramp; the estimated
        // median should be near the true median.
        let mut r = Reservoir::new(2048, 7);
        let n = 100_000;
        for i in 0..n {
            r.push(i as f64 / n as f64);
        }
        let med = r.quantile(0.5).unwrap();
        assert!((med - 0.5).abs() < 0.05, "median {med}");
        let p95 = r.quantile(0.95).unwrap();
        assert!((p95 - 0.95).abs() < 0.03, "p95 {p95}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Reservoir::new(16, 5);
        let mut b = Reservoir::new(16, 5);
        for i in 0..1000 {
            a.push(i as f64);
            b.push(i as f64);
        }
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn empty_reservoir_quantile_errors() {
        let r = Reservoir::new(8, 0);
        assert!(r.quantile(0.5).is_err());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Reservoir::new(0, 0);
    }
}
