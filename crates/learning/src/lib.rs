//! Self-optimization dynamics for selfish users (§2.2, §4.2 of the paper).
//!
//! The paper's behavioural premise is that users do *not* know their
//! utility functions in the abstract: they turn the knob, watch what
//! happens, and keep what feels better. This crate implements that world:
//!
//! * [`hill`] — incremental hill climbing against exact allocation
//!   formulas or against *noisy measurements* from the packet simulator
//!   (`greednet-des`), with synchronous or randomized update schedules;
//! * [`newton`] — the synchronous Newton dynamics of §4.2.3 whose
//!   linearization is governed by the relaxation matrix (Theorem 7):
//!   under Fair Share they land on the equilibrium in ≤ N steps, under
//!   FIFO they oscillate and diverge for N ≥ 3;
//! * [`automata`] — pursuit learning automata, the model family of the
//!   paper's reference \[8\] that Theorem 5(1) is imported from;
//! * [`elimination`] — the paper's *generalized hill climbing* (§4.2.2):
//!   each user maintains a set of candidate rates and discards a rate only
//!   when some other candidate is better against **every** profile the
//!   others might still play; under Fair Share the surviving sets collapse
//!   to the unique Nash equilibrium (Theorem 5 via \[8\]), under FIFO they
//!   can stall at fat intervals;
//! * [`leader`] — a sophisticated slow-timescale leader playing against
//!   naive fast hill climbers (the Stackelberg story of §4.2.2).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod automata;
pub mod elimination;
pub mod error;
pub mod hill;
pub mod leader;
pub mod newton;

pub use error::LearningError;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LearningError>;
