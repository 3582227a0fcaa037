//! Metric records, the metric tables, and the statistics the harness
//! reports.

use std::collections::BTreeMap;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics, reported by every untraced run. An operation is
/// one DES run, one equilibrium solve or one service request.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.qdisc.shares_calls", "count"),
    ("des.qdisc.shares_s", "s"),
    ("des.qdisc.shares_share", "ratio"),
    ("des.qdisc.shares_ns_p50", "ns"),
    ("des.qdisc.shares_ns_p99", "ns"),
    ("des.qdisc.notify_s", "s"),
    ("des.qdisc.active_mean", "packets"),
    ("des.qdisc.active_max", "packets"),
    ("des.calendar.schedules", "count"),
    ("des.calendar.fires", "count"),
    ("des.calendar.depth_max", "count"),
    ("des.calendar.ns_per_op", "ns"),
    ("des.rng.draws", "count"),
    ("des.rng.ns_per_draw", "ns"),
    ("des.engine.events", "count"),
    ("des.engine.events_per_s", "1/s"),
    ("des.engine.rest_s", "s"),
    ("des.run_s.fifo", "s"),
    ("des.run_s.lifo", "s"),
    ("des.run_s.ps", "s"),
    ("des.run_s.serial", "s"),
    ("des.run_s.fs", "s"),
    ("des.run_s.sfq", "s"),
    ("des.run_s.aimd_ecn", "s"),
    ("largen.finite.sweeps", "count"),
    ("largen.finite.rescue_sweeps", "count"),
    ("largen.finite.sweep_s_mean", "s"),
    ("largen.finite.sweep_s_max", "s"),
    ("largen.finite.init_s", "s"),
    ("largen.finite.finalize_s", "s"),
    ("largen.finite.user_sweeps_per_s", "1/s"),
    ("largen.finite.final_residual", "scaled"),
    ("largen.finite.load", "load"),
    ("largen.kernel.newton_evals", "count"),
    ("largen.kernel.newton_evals_per_user_sweep", "count"),
    ("largen.meanfield.load_err", "load"),
    ("largen.meanfield.solve_s", "s"),
    ("serve.request.parse_us", "us"),
    ("serve.canon.key_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.ops.compute_ms.table", "ms"),
    ("serve.ops.compute_ms.protect", "ms"),
    ("serve.ops.compute_ms.nash", "ms"),
    ("serve.ops.compute_ms.simulate", "ms"),
    ("serve.ops.render_us", "us"),
    ("serve.service.stream_us.hit", "us"),
    ("serve.service.stream_us.miss", "us"),
    ("serve.service.records_per_request", "count"),
    ("serve.service.bytes_per_request", "bytes"),
    ("serve.service.transport_ms", "ms"),
    ("serve.client.hit_p50_ms", "ms"),
    ("serve.client.miss_p50_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// Values gathered for one metric table, emitted in table order.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metrics of `table` in order, 0 for names never set.
    ///
    /// # Errors
    /// A name was set that `table` does not list, or a value is not
    /// finite (the result line must hold numbers).
    pub fn finish(self, table: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        if let Some(name) = self
            .values
            .keys()
            .find(|name| !table.iter().any(|(n, _)| n == *name))
        {
            return Err(format!("metric {name} is not in the metric table"));
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                if value.is_finite() {
                    Ok(Metric {
                        name: name.to_string(),
                        value,
                        unit,
                    })
                } else {
                    Err(format!("metric {name} is not finite ({value})"))
                }
            })
            .collect()
    }
}

/// Linear-interpolation quantile of an ascending slice (0 when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor();
            let i = lo as usize;
            let frac = pos - lo;
            if i + 1 < n {
                sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
            } else {
                sorted[n - 1]
            }
        }
    }
}

/// Median of unsorted values (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Mean (0 when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads printed
/// here match the ones Python computes from the same values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Errors
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn metric_set_fills_zeros_and_rejects_unknown_names() {
        let mut set = MetricSet::new();
        set.set("wall_s", 1.5);
        let metrics = set.finish(END_TO_END).expect("known names");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[1].value, 1.5);
        assert_eq!(metrics[0].value, 0.0);
        let mut bad = MetricSet::new();
        bad.set("nope", 1.0);
        assert!(bad.finish(END_TO_END).is_err());
    }
}
