//! Deterministic parallel experiment runtime for the greednet workspace.
//!
//! Three layers, bottom to top:
//!
//! 1. [`pool`] — a self-scheduling thread pool on `std::thread::scope`
//!    (no external dependencies). Workers pull task indices from a shared
//!    atomic counter, so load balances dynamically like work stealing,
//!    but results are merged back in task-index order, so the output is
//!    independent of scheduling.
//! 2. [`seed`] + [`sweep`] — SplitMix64 seed-stream splitting keyed on
//!    `(root_seed, task_index)` plus the [`sweep::ParallelSweep`] /
//!    [`sweep::Replications`] helpers. Because every task derives its RNG
//!    stream from its *index*, not from which thread ran it, an N-thread
//!    run is bitwise-identical to a 1-thread run.
//! 3. [`experiment`] + [`report`] — the [`experiment::Experiment`] trait,
//!    [`experiment::ExpCtx`] execution context, the central
//!    [`experiment::Registry`], and [`report::RunReport`] with text /
//!    JSON / CSV emitters.

#![forbid(unsafe_code)]

pub mod bench_json;
pub mod experiment;
pub mod pool;
pub mod reduce;
pub mod report;
pub mod seed;
pub mod sweep;

pub use bench_json::BenchJson;
pub use experiment::{Budget, ExpCtx, Experiment, Registry};
pub use pool::{available_threads, parallel_map_indexed, parallel_map_indexed_profiled};
pub use reduce::{det_max, det_mean, det_sum};
pub use report::{Cell, Format, RunReport, Table};
pub use seed::{child_seed, SeedStream};
pub use sweep::{ParallelSweep, Replications};

// Profiling types from greednet-telemetry, re-exported so experiment
// crates can fill the RunReport telemetry side-channel without a direct
// dependency.
pub use greednet_telemetry::{PoolStats, ScopedTimer, StageTimings, Telemetry, WorkerStats};
