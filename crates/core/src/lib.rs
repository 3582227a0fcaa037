//! Game-theoretic analysis of switch service disciplines — the primary
//! contribution of *"Making Greed Work in Networks"* (Shenker, SIGCOMM
//! 1994), as a library.
//!
//! Selfish users share an M/M/1 switch (modeled by `greednet-queueing`);
//! each picks its Poisson rate to maximize a private utility. This crate
//! supplies:
//!
//! * [`utility`] — the acceptable utility class `AU` (§3.2): linear,
//!   exponential (Lemma 5), power, log and quadratic-congestion families,
//!   plus monotone-transformation wrappers (utilities are ordinal);
//! * [`game`] — the game itself: best responses, Nash solving, global
//!   equilibrium verification, subsystem (fixed-user) games, envy, and
//!   multi-start uniqueness probes (Definition 1, Theorems 3 & 4);
//! * [`pareto`] — Pareto first-derivative conditions, symmetric Pareto
//!   points, and the uniform-scaling dominance test (Theorems 1 & 2);
//! * [`stackelberg`] — leader/follower equilibria (Definition 5,
//!   Theorem 5);
//! * [`coalition`] — joint-manipulation searches (footnote 14: Fair Share
//!   equilibria are coalition-proof);
//! * [`protection`] — out-of-equilibrium protection bounds (Definition 7,
//!   Theorem 8);
//! * [`relaxation`] — the Newton self-optimization relaxation matrix and
//!   its spectrum (§4.2.3, Theorem 7).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod coalition;
pub mod error;
pub mod game;
pub mod pareto;
pub mod protection;
pub mod relaxation;
pub mod stackelberg;
pub mod utility;

pub use error::CoreError;
pub use game::{Game, NashOptions, NashSolution};
pub use utility::{BoxedUtility, Utility};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
