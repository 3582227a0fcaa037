//! `greednet-perf` — one benchmark for the greednet workspace.
//!
//! Five workloads cover the regimes the paper depends on: the §5.2
//! FTP/Telnet mix at stable load and under a blaster's overload (Thm 8),
//! large-`N` equilibria at a comfortable load and near saturation, and
//! the scenario service over TCP with a mix of cache hits and misses.
//! Each workload runs through public APIs only (`Engine`,
//! `ClosedScenario`, `solve_finite_probed`, `solve_mean_field`,
//! `Service::serve_tcp`/`serve_stream` and the request/ops functions);
//! every layer is timed from outside, with the decorators and probes in
//! [`des`] and [`largen`].
//!
//! A measurement has three phases: set-up (repeated, median reported),
//! untraced passes of the workload's fixed work until the time budget is
//! spent (end-to-end metrics), and — only when tracing — one decorated
//! pass plus replays that give the per-layer metrics. End-to-end numbers
//! never come from a traced pass.

#![forbid(unsafe_code)]

pub mod des;
pub mod largen;
pub mod metrics;
pub mod serve;
pub mod spans;
pub mod workload;

pub use metrics::{Metric, END_TO_END, PER_LAYER};
pub use spans::Spans;
pub use workload::{run, Outcome, Scale, Settings, Workload};

use greednet_runtime::BenchJson;

/// Renders a [`BenchJson`] object on one line (the result line and the
/// JSONL span records share the workspace's one report writer).
#[must_use]
pub fn compact(json: &BenchJson) -> String {
    json.render().lines().map(str::trim).collect()
}
