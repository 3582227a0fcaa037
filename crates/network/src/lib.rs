//! Networks of switches — the paper's §5.4, made executable.
//!
//! The paper closes by naming the open problem: a *network* of such
//! switches, where each user's packets traverse a route of switches and
//! the user cares only about its **total** congestion
//! `c_i = Σ_α c_i^α`. Two difficulties are flagged:
//!
//! 1. Output processes of nontrivial disciplines are not Poisson. Per the
//!    paper's own suggestion, we adopt the **Poisson approximation**:
//!    each switch is modeled as an independent M/M/1 system fed by the
//!    user's original rate (a Kleinrock-style independence assumption).
//! 2. The game theory must be generalized to total congestion — done in
//!    [`game::NetworkGame`], which applies any single-switch allocation
//!    function at every switch and sums along routes.
//!
//! The paper asserts that "straightforward generalizations of most of the
//! single-switch results remain true" while fairness needs a new
//! definition (users on different routes are not comparable). The test
//! suites and experiment E12 verify exactly that: with Fair Share at
//! every switch the network Nash equilibrium remains unique and
//! reachable, per-switch protection bounds hold, and same-route envy
//! vanishes — while cross-route "envy" is indeed meaningless and can be
//! nonzero.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod game;
pub mod topology;

pub use error::NetworkError;
pub use game::NetworkGame;
pub use topology::Topology;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NetworkError>;
