//! The finite engine converges below the rounding floor of a plain load
//! sum.
//!
//! Near saturation the best-response map amplifies any error in the
//! aggregate load by `dBR/dR ~ w/γ`. While the load was a plain f64 sum,
//! its rounding error set a noise floor under both FIFO solves below.
//! The heavy class (w = 1, γ = 1e-3, N = 50,000) stopped at residual
//! 1.26e-9 after 300 sweeps (1.40e-9 after 2,000), and a plain sum in
//! fixed index order stops at 1.40e-9 too. E18's FIFO class (w = 1,
//! γ = 1e-5, N = 10^4) stalled at residual 1.0e-9 for 2,000 sweeps.
//! With the compensated `load_sum`, within an ulp of the exact load, the
//! first reaches tol 5e-10 in 65 sweeps and the second 1e-12 in 119.

use greednet_core::utility::{LogUtility, UtilityExt};
use greednet_largen::{solve_finite, ClassSpec, LargenDiscipline, SolveOptions};

/// Solves one FIFO log class (w = 1) at seed 1 on one thread within 300
/// sweeps, and asserts that it converges.
fn assert_fifo_converges(gamma: f64, n: usize, tol: f64) {
    let classes = vec![ClassSpec::new(LogUtility::new(1.0, gamma).boxed(), 1.0)];
    let opts = SolveOptions {
        tol,
        max_sweeps: 300,
        ..SolveOptions::default()
    };
    let sol = solve_finite(LargenDiscipline::Fifo, &classes, n, 1, 1, &opts).expect("valid solve");
    assert!(
        sol.converged,
        "residual {:e} after {} sweeps",
        sol.residual, sol.sweeps
    );
}

#[test]
fn heavy_fifo_converges_below_the_plain_sum_floor() {
    assert_fifo_converges(1e-3, 50_000, 5e-10);
}

#[test]
fn e18_fifo_class_reaches_tol_1e_12() {
    assert_fifo_converges(1e-5, 10_000, 1e-12);
}
