//! M/M/1 allocation theory for *"Making Greed Work in Networks"* (Shenker,
//! SIGCOMM 1994), §3.1.
//!
//! A single switch is an exponential server of rate 1 (with preemption)
//! shared by `N` independent Poisson sources with rates `r_i`. A *service
//! discipline* decides the order of service and thereby how the total
//! congestion is divided: it induces an **allocation function**
//! `C : r ↦ c`, where `c_i` is user `i`'s time-averaged queue. Work
//! conservation pins down the total, `Σ c_i = g(Σ r_i)` with
//! `g(x) = x/(1-x)`, and subset feasibility requires every group of users
//! to carry at least its own M/M/1 queue: `Σ_{i∈S} c_i ≥ g(Σ_{i∈S} r_i)`.
//!
//! This crate provides:
//!
//! * [`mm1`] — the M/M/1 closed forms (`g`, its derivatives, occupancy
//!   quantities) that everything else builds on;
//! * [`feasible`] — the feasible allocation region of §3.1 and validation
//!   of candidate allocations against it;
//! * [`alloc`] — the [`AllocationFunction`] trait (with analytic or
//!   finite-difference derivatives) shared by all disciplines;
//! * [`proportional`] — the FIFO/LIFO/PS allocation `C_i = r_i/(1 - Σr)`;
//! * [`fair_share`] — the **Fair Share** allocation (serial cost sharing),
//!   the paper's protagonist, with its exact derivative structure and the
//!   Table 1 priority-level decomposition that realizes it;
//! * [`serial_priority`] — ascending-rate preemptive priority,
//!   `c_(k) = g(Λ_k) - g(Λ_{k-1})`, a non-smooth cousin of Fair Share;
//! * [`kernelized`] — the same allocations over a general (e.g. M/G/1)
//!   congestion kernel, per the paper's footnote 5;
//! * [`blend`] — convex combinations of allocations (used for ablations);
//! * [`weighted`] — weighted serial cost sharing (the WFQ analogue;
//!   extension beyond the paper's anonymous switch);
//! * [`mac`] — numerical checks of the paper's MAC monotonicity conditions
//!   (Definition 2).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod blend;
pub mod error;
pub mod fair_share;
pub mod feasible;
pub mod kernelized;
pub mod mac;
pub mod mm1;
pub mod proportional;
pub mod serial_priority;
pub mod weighted;

pub use alloc::AllocationFunction;
pub use blend::Blend;
pub use error::QueueingError;
pub use fair_share::FairShare;
pub use feasible::Allocation;
pub use kernelized::{KernelFairShare, KernelProportional};
pub use proportional::Proportional;
pub use serial_priority::SerialPriority;
pub use weighted::WeightedFairShare;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, QueueingError>;
