//! The finite engine converges below the rounding floor of a plain load
//! sum.
//!
//! Near saturation the best-response map amplifies any error in the
//! aggregate load by `dBR/dR ~ w/γ`. While the load was a plain f64 sum,
//! its rounding error kept the heavy FIFO class below from converging:
//! it stopped at residual 1.26e-9 after 300 sweeps (1.40e-9 after
//! 2,000), and a plain sum in fixed index order stops at 1.40e-9 too.
//! With the correctly rounded `load_sum` the same solve converges in 65
//! sweeps.

use greednet_core::utility::{LogUtility, UtilityExt};
use greednet_largen::{solve_finite, ClassSpec, LargenDiscipline, SolveOptions};

#[test]
fn heavy_fifo_converges_below_the_plain_sum_floor() {
    let classes = vec![ClassSpec::new(LogUtility::new(1.0, 1e-3).boxed(), 1.0)];
    let opts = SolveOptions {
        tol: 5e-10,
        max_sweeps: 300,
        ..SolveOptions::default()
    };
    let sol =
        solve_finite(LargenDiscipline::Fifo, &classes, 50_000, 1, 1, &opts).expect("valid solve");
    assert!(
        sol.converged,
        "residual {:e} after {} sweeps",
        sol.residual, sol.sweeps
    );
}
