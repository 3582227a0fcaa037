//! Allocation mechanisms beyond nonstalling service disciplines.
//!
//! Three constructions from §4 of the paper:
//!
//! * [`revelation`] — **Theorem 6**: the direct mechanism `B^FS` (report a
//!   utility function; the switch computes the Fair Share Nash equilibrium
//!   of the *reported* game and assigns the resulting allocation) gives no
//!   user an incentive to lie. The same construction over FIFO is
//!   manipulable, and the module's misreport search finds profitable lies.
//! * [`constraints`] — **Corollary 2**: generalized constraint functions
//!   `Σ c_i = f̂(r)`. When `f̂` decomposes as `(1/(N−1))·Σ h_i` with
//!   `∂h_i/∂r_i = 0` (e.g. `f̂ = Σ r_i²`), the allocation `C_i = f̂ − h_i`
//!   makes *every* Nash equilibrium Pareto optimal; the M/M/1 constraint
//!   admits no such decomposition (its full mixed partial never vanishes),
//!   which is exactly why Theorem 1 is negative.
//! * [`signalling`] — **Corollary 1**: augmenting an allocation function
//!   with cheap-talk parameters `α` (here, weighted-share signalling on
//!   top of FIFO) still cannot make Nash equilibria Pareto optimal.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod constraints;
pub mod error;
pub mod revelation;
pub mod signalling;

pub use error::MechanismError;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MechanismError>;
