//! greednet-serve: the long-running scenario service.
//!
//! Turns the workspace's one-shot CLI scenarios into a service: clients
//! send newline-delimited JSON requests (`nash`, `simulate`, `table`,
//! `protect`, `exp`, plus `batch`/`stats`/`shutdown`) over stdin/stdout
//! or TCP, and receive a stream of `accepted` → `progress` → `result`
//! records per request. Everything is hand-rolled on `std` — the JSON
//! parser, the FNV hash, the TCP framing — keeping the workspace
//! dependency-free.
//!
//! The centerpiece is the canonical result cache ([`canon`], [`cache`]):
//! because every engine in this workspace is deterministic (same inputs
//! → same bytes, at any thread count), a request's canonical hash fully
//! determines its result bytes, so the service can answer repeats from a
//! bounded LRU with *bitwise-identical* payloads and spend its cycles
//! only on scenarios it has never seen.
//!
//! The module split mirrors the request's life cycle:
//!
//! * [`json`] — strict, dependency-free JSON parsing and writing;
//! * [`request`] — the wire protocol: typed requests and response
//!   records;
//! * [`canon`] — canonicalization and the FNV-1a cache key;
//! * [`cache`] — the bounded LRU of result payloads;
//! * [`ops`] — the scenario data path shared with the CLI commands;
//! * [`error`] — [`ServeError`] and the exit-code contract;
//! * [`service`] — the serve loop over stdio or TCP.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]

pub mod cache;
pub mod canon;
pub mod error;
pub mod json;
pub mod ops;
pub mod request;
pub mod service;

pub use cache::{CacheStats, ResultCache};
pub use canon::{canonical_key, canonical_string, fnv1a_128, fnv1a_64, key_hex};
pub use error::ServeError;
pub use json::Json;
pub use request::{Request, RequestKind};
pub use service::{ServeOptions, Service};
