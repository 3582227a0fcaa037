//! Numerical substrate for the `greednet` workspace.
//!
//! This crate is the self-contained numerical toolbox used by every other
//! crate in the reproduction of *"Making Greed Work in Networks"* (Shenker,
//! SIGCOMM 1994): scalar root finding and maximization (best responses and
//! first-derivative conditions), dense linear algebra and eigenvalue
//! computation (relaxation-matrix spectra of §4.2.3), finite differences
//! (derivatives of allocation functions and utilities), and statistics
//! (confidence intervals for the packet-level simulator).
//!
//! Everything is implemented from scratch on `f64`; no external numerical
//! dependencies are used. Algorithms are classical and chosen for
//! robustness at the small problem sizes of the paper (N up to a few
//! hundred users): Brent's method for roots and maxima, partially pivoted
//! LU, and Hessenberg reduction followed by the Francis double-shift QR
//! iteration for eigenvalues.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod conv;
pub mod diff;
pub mod eig;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod optimize;
pub mod roots;
pub mod stats;

pub use error::NumericsError;
pub use matrix::Matrix;

/// Result alias for fallible numerical routines.
pub type Result<T> = std::result::Result<T, NumericsError>;

/// Maximum iterations used by iterative scalar solvers unless overridden.
pub const DEFAULT_MAX_ITER: usize = 200;
