//! # greednet-largen — large-`N` mean-field equilibrium engine
//!
//! Solves the switch-sharing game of the paper at populations far beyond
//! the dense-matrix Nash solver in `greednet-core`: `N = 10^4..10^6`
//! users in the finite engine, and the exact `N → ∞` continuum limit as
//! a `K`-class fixed point.
//!
//! Both solvers share one numeric kernel (see DESIGN.md §10 for the
//! formulation and the fixed-point contract):
//!
//! - **share-scale variables** `x = N·r`, `Φ = N·C`, aggregate load
//!   `R = (1/N)·Σ x_i`, so equilibria have a well-defined limit;
//! - a **compensated load sum** — every aggregate load is one TwoSum
//!   pass in member or class index order, within an ulp of the exact
//!   sum, so its rounding sets no noise floor near saturation;
//! - a **sorted-prefix congestion profile** — Fair Share for the whole
//!   population in `O(N log N)` per sweep, built in one place and
//!   searched from each deviator's own rank, so a Newton probe `d` ranks
//!   away costs `O(log d)`; FIFO needs only the load and each user's own
//!   rate, so its sweep skips the sort and costs `O(N)`;
//! - a **safeguarded Newton best response** per user/class against the
//!   frozen previous iterate, damped Jacobi outside.
//!
//! The finite engine shards its `O(N)` best-response sweep across the
//! deterministic `greednet-runtime` pool in fixed-size chunks, so
//! results are bitwise identical at any thread count. Determinism is
//! enforced by `greednet-lint` (this crate is in its deterministic
//! scope).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]

pub mod finite;
pub(crate) mod kernel;
pub mod meanfield;
pub mod model;

pub use finite::{solve_finite, solve_finite_probed, FiniteSolution};
pub use meanfield::{solve_mean_field, solve_mean_field_probed, MeanFieldSolution};
pub use model::{
    weight_fractions, ClassSpec, LargenDiscipline, LargenError, SolveOptions, SFQ_BETA,
};
