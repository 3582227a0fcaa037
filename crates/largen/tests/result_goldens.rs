//! Pinned result goldens for both large-`N` solvers.
//!
//! `thread_determinism.rs` only compares solves with each other, so a
//! kernel change that moved every result the same way at every thread
//! count would pass it. These goldens close that gap: each entry holds
//! the bits of every field of one `FiniteSolution` or
//! `MeanFieldSolution`, recorded before the Fair Share rank search
//! started from the deviator's own rank instead of scanning the whole
//! sorted population. They cover FIFO, Fair Share and SFQ for
//!
//! * the three comfortable log classes (`w = 0.6, 0.5, 0.4`, `γ = 1`)
//!   at `N = 3001`, seed 7, default options, and
//! * the heavy class (`w = 1, γ = 10^-3`, `tol = 10^-7`, 2000 sweeps) at
//!   `N = 2000`, seed 1, load ≈ 0.97, where Fair Share Newton iterates
//!   roam farthest from the deviator's rank.
//!
//! The six `finite` rows were re-pinned once, when the aggregate load
//! became the order-free `load_sum` (the correctly rounded sum) instead
//! of a plain sum in sorted order. The load moved by a few ulps, which
//! nudged the FIFO Newton paths and the Fair Share/SFQ capacity caps;
//! every row kept its sweep count (37, 35, 37, 57, 38, 38) and its
//! convergence, and no `continuum` row moved.
//!
//! Ten rows were re-pinned a second time, when a best response began to
//! stop once an accepted Newton step moves less than `tol·(1 + |x|)`
//! instead of narrowing its bracket to that width. Each best response
//! moved within its tolerance. Both log3 FIFO rows kept their bits, and
//! both heavy FIFO rows moved only in their residual. The log3 Fair
//! Share and SFQ rows moved by at most 28 ulps. Near saturation the
//! best-response slope amplifies every difference, so the heavy Fair
//! Share and SFQ rows moved by up to 9e-10 (relative) in the load and
//! 3e-8 in Φ. Every row kept its sweep or step count and its
//! convergence.
//!
//! A mismatch prints the whole table of fresh words; re-pin only for a
//! deliberate change of solver semantics, and say why.

use greednet_core::utility::{LogUtility, UtilityExt};
use greednet_largen::{
    solve_finite, solve_mean_field, ClassSpec, FiniteSolution, LargenDiscipline, MeanFieldSolution,
    SolveOptions,
};

fn log_classes() -> (Vec<ClassSpec>, SolveOptions) {
    let classes = [0.6, 0.5, 0.4]
        .iter()
        .map(|&w| ClassSpec::new(LogUtility::new(w, 1.0).boxed(), 1.0))
        .collect();
    (classes, SolveOptions::default())
}

fn heavy_class() -> (Vec<ClassSpec>, SolveOptions) {
    let classes = vec![ClassSpec::new(LogUtility::new(1.0, 1e-3).boxed(), 1.0)];
    let opts = SolveOptions {
        tol: 1e-7,
        max_sweeps: 2000,
        ..SolveOptions::default()
    };
    (classes, opts)
}

fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// Every `FiniteSolution` field as words: `sweeps`, `converged`,
/// `residual`, `load`, then `class_x`, `class_phi` and `class_counts`.
fn finite_words(s: &FiniteSolution) -> Vec<u64> {
    let mut w = vec![
        u64::from(s.sweeps),
        u64::from(s.converged),
        s.residual.to_bits(),
        s.load.to_bits(),
    ];
    w.extend(bits(&s.class_x));
    w.extend(bits(&s.class_phi));
    w.extend(&s.class_counts);
    w
}

/// Every `MeanFieldSolution` field as words: `steps`, `converged`,
/// `residual`, `load`, then `x` and `phi`.
fn mean_field_words(s: &MeanFieldSolution) -> Vec<u64> {
    let mut w = vec![
        u64::from(s.steps),
        u64::from(s.converged),
        s.residual.to_bits(),
        s.load.to_bits(),
    ];
    w.extend(bits(&s.x));
    w.extend(bits(&s.phi));
    w
}

/// Finite and continuum solves of one class set under every discipline.
fn cases(
    set: &str,
    (classes, opts): (Vec<ClassSpec>, SolveOptions),
    n: usize,
    seed: u64,
) -> Vec<(String, Vec<u64>)> {
    let mut out = Vec::new();
    for disc in LargenDiscipline::ALL {
        let sol = solve_finite(disc, &classes, n, seed, 1, &opts).expect("finite solve");
        out.push((format!("{set} {} finite", disc.name()), finite_words(&sol)));
        let sol = solve_mean_field(disc, &classes, &opts).expect("continuum solve");
        out.push((
            format!("{set} {} continuum", disc.name()),
            mean_field_words(&sol),
        ));
    }
    out
}

fn assert_goldens(got: &[(String, Vec<u64>)], want: &[(&str, &[u64])]) {
    let table: String = got
        .iter()
        .map(|(label, words)| {
            let words: Vec<String> = words.iter().map(|w| format!("{w:#018x}")).collect();
            format!("    ({label:?}, &[{}]),\n", words.join(", "))
        })
        .collect();
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = want.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels, want_labels,
        "golden labels moved; fresh table:\n{table}"
    );
    let moved: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((_, g), (_, w))| g.as_slice() != *w)
        .map(|((l, _), _)| l.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "result bits moved for {moved:?}; fresh table:\n{table}"
    );
}

#[test]
fn log_classes_match_pinned_goldens() {
    assert_goldens(&cases("log3", log_classes(), 3_001, 7), LOG_GOLDENS);
}

#[test]
fn heavy_class_matches_pinned_goldens() {
    assert_goldens(&cases("heavy", heavy_class(), 2_000, 1), HEAVY_GOLDENS);
}

const LOG_GOLDENS: &[(&str, &[u64])] = &[
    (
        "log3 fifo finite",
        &[
            0x0000000000000025,
            0x0000000000000001,
            0x3d69df8000000000,
            0x3fd554f40c2f1af8,
            0x3fd99884a94cd444,
            0x3fd5549d1b401e8c,
            0x3fd110a2ef344e10,
            0x3fe33237b9e5d048,
            0x3fdffea2b51ff045,
            0x3fd998ba09b5453a,
            0x00000000000003e9,
            0x00000000000003e8,
            0x00000000000003e8,
        ],
    ),
    (
        "log3 fifo continuum",
        &[
            0x0000000000000025,
            0x0000000000000001,
            0x3d699a0000000000,
            0x3fd5555555555556,
            0x3fd9999999998000,
            0x3fd5555555555556,
            0x3fd1111111112aac,
            0x3fe3333333332000,
            0x3fe0000000000001,
            0x3fd999999999c002,
        ],
    ),
    (
        "log3 fs finite",
        &[
            0x0000000000000023,
            0x0000000000000001,
            0x3d70318000000000,
            0x3fd19275d59f96a1,
            0x3fd4355142065428,
            0x3fd1806576766e1f,
            0x3fce01fc09e4930a,
            0x3fdd0e237d6bae5a,
            0x3fd8028ed29b513f,
            0x3fd39933fe05bf6f,
            0x00000000000003e9,
            0x00000000000003e8,
            0x00000000000003e8,
        ],
    ),
    (
        "log3 fs continuum",
        &[
            0x0000000000000023,
            0x0000000000000001,
            0x3d6ff98000000000,
            0x3fd1924b868f7332,
            0x3fd4357616c76b76,
            0x3fd1806e77f4a4c4,
            0x3fce01fc09e492bc,
            0x3fdd0e603af0899a,
            0x3fd8029d9820c56b,
            0x3fd39933fe05bf64,
        ],
    ),
    (
        "log3 sfq finite",
        &[
            0x0000000000000025,
            0x0000000000000001,
            0x3d6bff4000000000,
            0x3fcde8b2f923a9f6,
            0x3fd16eb38808fa15,
            0x3fcdd31140fb4107,
            0x3fc9085bd09d8b73,
            0x3fe0286233909691,
            0x3fdad61c111418f1,
            0x3fd5d13ebd624e59,
            0x00000000000003e9,
            0x00000000000003e8,
            0x00000000000003e8,
        ],
    ),
    (
        "log3 sfq continuum",
        &[
            0x0000000000000025,
            0x0000000000000001,
            0x3d6bde8000000000,
            0x3fcde85aec15485e,
            0x3fd16ecbb95279af,
            0x3fcdd31d80fd5aac,
            0x3fc9085bd09d8b13,
            0x3fe02879496e4fef,
            0x3fdad627dfd53410,
            0x3fd5d13ebd624e2d,
        ],
    ),
];

const HEAVY_GOLDENS: &[(&str, &[u64])] = &[
    (
        "heavy fifo finite",
        &[
            0x0000000000000039,
            0x0000000000000001,
            0x3e5b3b8828000000,
            0x3feff4d325247ea2,
            0x3feff4d325247f97,
            0x4086e0680d287aba,
            0x00000000000007d0,
        ],
    ),
    (
        "heavy fifo continuum",
        &[
            0x000000000000003d,
            0x0000000000000001,
            0x3e662c601b000000,
            0x3feff7d0f16c4ea4,
            0x3feff7d0f16c4ea4,
            0x408f4000007ca228,
        ],
    ),
    (
        "heavy fs finite",
        &[
            0x0000000000000026,
            0x0000000000000001,
            0x3e6805aa45000000,
            0x3fef0102846598f6,
            0x3fef0102846598f0,
            0x403f20714facf449,
            0x00000000000007d0,
        ],
    ),
    (
        "heavy fs continuum",
        &[
            0x0000000000000044,
            0x0000000000000001,
            0x3e700f7bec800000,
            0x3fef01029490fdb2,
            0x3fef01029490fdb2,
            0x403f20735934adf5,
        ],
    ),
    (
        "heavy sfq finite",
        &[
            0x0000000000000026,
            0x0000000000000001,
            0x3e6b24f0c2000000,
            0x3fef00f2f34b3358,
            0x3fef00f2f34b335a,
            0x403f9a7f22c40fb3,
            0x00000000000007d0,
        ],
    ),
    (
        "heavy sfq continuum",
        &[
            0x0000000000000043,
            0x0000000000000001,
            0x3e7a9b1355800000,
            0x3fef00f30dfb9582,
            0x3fef00f30dfb9582,
            0x403f9a827f994b26,
        ],
    ),
];
