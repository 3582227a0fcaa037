//! The finite engine's contract with the deterministic pool: the solved
//! equilibrium is **bitwise identical** at any `--threads`, because the
//! chunk decomposition is fixed and results merge in task order. Checked
//! at an `N` spanning several chunks (and not a multiple of the chunk
//! size) for every discipline, and near saturation for Fair Share and
//! SFQ.

use greednet_core::utility::{LogUtility, UtilityExt};
use greednet_largen::{solve_finite, ClassSpec, LargenDiscipline, SolveOptions};

/// 3001 users: two full 2048-chunks minus a remainder — the chunk
/// boundary at 2048 falls inside the population.
const N: usize = 3_001;

fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::new(LogUtility::new(0.6, 1.0).boxed(), 1.0),
        ClassSpec::new(LogUtility::new(0.5, 1.0).boxed(), 1.0),
        ClassSpec::new(LogUtility::new(0.4, 1.0).boxed(), 1.0),
    ]
}

/// Solves at 1, 4 and 8 threads and compares every result bit.
fn assert_thread_invariant(
    disc: LargenDiscipline,
    classes: &[ClassSpec],
    opts: &SolveOptions,
    seed: u64,
) {
    let base = solve_finite(disc, classes, N, seed, 1, opts).expect("single-thread solve");
    assert!(
        base.converged,
        "{}: residual {}",
        disc.name(),
        base.residual
    );
    for threads in [4usize, 8] {
        let sol = solve_finite(disc, classes, N, seed, threads, opts).expect("multi-thread solve");
        assert_eq!(base.sweeps, sol.sweeps, "{} sweeps", disc.name());
        assert_eq!(
            base.residual.to_bits(),
            sol.residual.to_bits(),
            "{} residual at {threads} threads",
            disc.name()
        );
        assert_eq!(
            base.load.to_bits(),
            sol.load.to_bits(),
            "{} load at {threads} threads",
            disc.name()
        );
        for (c, (a, b)) in base.class_x.iter().zip(sol.class_x.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} class {c} rate at {threads} threads: {a} vs {b}",
                disc.name()
            );
        }
        for (c, (a, b)) in base.class_phi.iter().zip(sol.class_phi.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} class {c} phi at {threads} threads",
                disc.name()
            );
        }
    }
}

#[test]
fn mean_field_sweep_is_bitwise_identical_across_thread_counts() {
    for disc in LargenDiscipline::ALL {
        assert_thread_invariant(disc, &classes(), &SolveOptions::default(), 7);
    }
}

/// The heavy class (`w = 1, γ = 10^-3`) settles at load ≈ 0.97, where
/// Fair Share Newton iterates stray farthest from each user's own rank.
#[test]
fn near_saturation_serial_sweep_is_bitwise_identical_across_thread_counts() {
    let heavy = vec![ClassSpec::new(LogUtility::new(1.0, 1e-3).boxed(), 1.0)];
    let opts = SolveOptions {
        tol: 1e-7,
        max_sweeps: 2000,
        ..SolveOptions::default()
    };
    for disc in [LargenDiscipline::FairShare, LargenDiscipline::Sfq] {
        assert_thread_invariant(disc, &heavy, &opts, 1);
    }
}
