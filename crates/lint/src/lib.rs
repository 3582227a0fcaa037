//! **greednet-lint** — the workspace's own static analyzer.
//!
//! PR 2 and PR 3 made *bitwise determinism at any thread count* a
//! headline guarantee: the paper's closed-form allocations are validated
//! against simulated replications, so any nondeterminism silently
//! corrupts the paper-vs-measured tables. Whatever rustc and clippy can
//! check (hash containers, wall clock, panics, `partial_cmp`, lossy
//! casts, `unsafe`) is configured in the root `clippy.toml`, the
//! `[workspace.lints]` table and each library crate root. This crate
//! machine-checks the rest: invariants that need the workspace's own
//! vocabulary (hot paths, RNG splits, merged reductions, telemetry
//! probes).
//!
//! The analyzer is **dependency-free**: the build container has no
//! crates.io access, so it hand-rolls a small Rust lexer
//! ([`lexer`]) instead of using `syn`. The per-file rule ([`rules`])
//! only needs comment/string-stripped tokens with line numbers, which
//! the lexer guarantees; on top of the token stream an item parser
//! ([`parse`]) recovers each file's `fn` items and `use` declarations, a
//! deliberately over-approximate intra-workspace call graph ([`graph`])
//! drives the hot-path rule GN10 ([`hot`]), an expression layer
//! ([`expr`]) drives the dataflow rules GN11/GN12, and a type layer
//! ([`types`]) recovers named struct fields and their types for the
//! type-aware rule ([`typerules`]): probe isolation (GN15).
//!
//! The per-file pass is sharded across the deterministic pool
//! (`greednet_runtime::parallel_map_indexed`) with an in-task-order
//! merge, so reports are byte-identical at any `--threads` count
//! (`tests/workspace_clean.rs` byte-compares them at 1, 4 and 8 threads).
//!
//! Rules are individually suppressible at a site with
//!
//! ```text
//! // greednet-lint: allow(GN08, reason = "best-effort flush; losing it must never fail a run")
//! ```
//!
//! on (or immediately above) the offending line; the reason is
//! mandatory and surfaced in reports. See `LINTS.md` at the workspace
//! root for each rule's rationale.
//!
//! Run it as `cargo run -p greednet-lint` (human table) or with
//! `-- --json` (machine report; CI uploads it as an artifact). The
//! binary exits 0 on a clean workspace, 1 on findings, 2 on usage or
//! I/O errors.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod expr;
pub mod graph;
pub mod hot;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod typerules;
pub mod types;
pub mod workspace;

pub use graph::SourceFile;
pub use report::Analysis;
pub use rules::{check_file, FileContext, FileKind, Finding};
pub use workspace::{analyze, analyze_with, find_root, AnalyzeOptions};
