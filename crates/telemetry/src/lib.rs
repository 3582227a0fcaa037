//! Zero-cost instrumentation for the greednet workspace.
//!
//! Three layers, all dependency-free and deterministic:
//!
//! 1. [`probe`] — the [`probe::Probe`] trait: a statically dispatched
//!    observer of packet-lifecycle events from the discrete-event
//!    simulator and of solver iterates (best-response sweeps, Newton
//!    relaxation steps, learning-automata updates). The
//!    [`probe::NoopProbe`] sets `Probe::ENABLED = false`, so every
//!    instrumentation site guarded by `if P::ENABLED` is statically dead
//!    code and the un-instrumented hot loops compile to exactly what they
//!    were before instrumentation existed.
//! 2. [`metrics`] — [`metrics::Counter`], [`metrics::Gauge`], and
//!    [`metrics::Log2Histogram`]: fixed-bucket power-of-two histograms
//!    whose merge is exactly associative and commutative (integer bucket
//!    counts, min/max extremes), so replication batches can fold their
//!    per-task metrics **in task order** without breaking the workspace's
//!    bitwise N-thread determinism contract. [`metrics::SimMetrics`] /
//!    [`metrics::MetricsProbe`] assemble the standard simulator metric
//!    set (per-user delay, queue occupancy, busy periods).
//! 3. [`profile`] — wall-clock instrumentation: [`profile::ScopedTimer`],
//!    [`profile::StageTimings`], and per-worker pool statistics
//!    ([`profile::WorkerStats`] / [`profile::PoolStats`]) aggregated into
//!    a [`profile::Telemetry`] side-channel. Timing data is inherently
//!    non-deterministic and must stay **out** of any deterministic report
//!    payload; `Telemetry` exists precisely so runners can carry it
//!    alongside (not inside) their reproducible output.
//!
//! [`json`] holds the one JSON string escaper every report writer in the
//! workspace shares.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod json;
pub mod metrics;
pub mod probe;
pub mod profile;
pub mod trace;

pub use json::{json_string, push_json_string};
pub use metrics::{Counter, Gauge, Log2Histogram, MetricsProbe, SimMetrics};
pub use probe::{
    CalendarEvent, CalendarEventKind, NoopProbe, PacketEvent, PacketEventKind, Probe, SolverEvent,
};
pub use profile::{PoolStats, ScopedTimer, StageTimings, Telemetry, WorkerStats};
pub use trace::{TraceBuffer, TraceEvent, TraceRecord};
