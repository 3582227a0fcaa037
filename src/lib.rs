//! # greednet
//!
//! A production-quality Rust reproduction of **Scott Shenker, "Making Greed
//! Work in Networks: A Game-Theoretic Analysis of Switch Service
//! Disciplines" (SIGCOMM 1994)**.
//!
//! The model: `N` selfish users share a single M/M/1 switch. Each user `i`
//! picks a Poisson rate `r_i` to maximize a private utility
//! `U_i(r_i, c_i)`, where `c_i` is the user's time-averaged queue at the
//! switch. The switch's *service discipline* determines the allocation
//! function `c = C(r)`, and therefore the incentives users face. The paper
//! shows that the **Fair Share** discipline (serial cost sharing) — and
//! only it, among monotone disciplines — yields Nash equilibria that are
//! unique, envy-free, robustly and rapidly reachable by naive
//! self-optimization, and protective of users even out of equilibrium,
//! while the traditional **FIFO** discipline guarantees none of these.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`queueing`] — M/M/1 allocation theory: the feasible region and the
//!   allocation functions (Proportional/FIFO, Fair Share, serial priority).
//! * [`core`] — utilities, Nash equilibria, Pareto efficiency, envy,
//!   Stackelberg leadership, protection, relaxation-matrix spectra.
//! * [`des`] — a packet-level discrete-event M/M/1 simulator with the
//!   paper's service disciplines, including the Table 1 priority scheme.
//! * [`learning`] — self-optimization dynamics: hill climbing (exact and
//!   against the simulator), Newton relaxation, elimination dynamics.
//! * [`mechanisms`] — the Fair Share revelation mechanism and generalized
//!   constraint functions.
//! * [`network`] — the §5.4 network-of-switches generalization (routes,
//!   Poisson approximation, network games).
//! * [`numerics`] — the numerical substrate.
//!
//! Cross-layer applications can funnel every crate's error enum into the
//! unified [`Error`] via `?` (each layer keeps its precise error type).
//!
//! ## Quick start
//!
//! ```
//! use greednet::prelude::*;
//!
//! // Three selfish users with linear utilities U = r - gamma * c.
//! let users = vec![
//!     LinearUtility::new(1.0, 2.0).boxed(),
//!     LinearUtility::new(1.0, 4.0).boxed(),
//!     LinearUtility::new(1.0, 8.0).boxed(),
//! ];
//! let game = Game::new(FairShare::new(), users).unwrap();
//! let nash = game.solve_nash(&NashOptions::default()).unwrap();
//! assert!(nash.converged);
//! // At the Fair Share Nash equilibrium nobody envies anybody (Theorem 3).
//! let envy = game.max_envy(&nash.rates).unwrap();
//! assert!(envy <= 1e-6);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

mod error;

pub use error::Error;

pub use greednet_core as core;
pub use greednet_des as des;
pub use greednet_learning as learning;
pub use greednet_mechanisms as mechanisms;
pub use greednet_network as network;
pub use greednet_numerics as numerics;
pub use greednet_queueing as queueing;
pub use greednet_serve as serve;

/// Convenient glob-import surface covering the most common types.
pub mod prelude {
    pub use greednet_core::game::{Game, NashOptions};
    pub use greednet_core::utility::{
        BoxedUtility, ExpExpUtility, LinearUtility, LogUtility, PowerUtility,
        QuadraticCongestionUtility, Utility, UtilityExt,
    };
    pub use greednet_queueing::{AllocationFunction, FairShare, Proportional, SerialPriority};
}
