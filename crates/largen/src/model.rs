//! Shared model types for the large-N engine: disciplines, utility
//! classes, solver options, apportionment, and errors.
//!
//! # The share-scale formulation
//!
//! The engine works in *share-scale* variables. A user in a population of
//! `N` sends raw rate `r = x/N` and sees raw mean queue `C = Φ/N`; its
//! preferences are `U(x, Φ)` over the scaled pair (see
//! [`greednet_core::utility::ScaledUtility`] for the equivalent raw-rate
//! game). The aggregate offered load is `R = (1/N)·Σ x_i < 1`, and a
//! user's first-derivative condition becomes
//!
//! ```text
//! M(x_i, Φ_i) + dΦ_i/dx_i = 0        (M = U_x / U_Φ < 0)
//! ```
//!
//! because `dΦ/dx = dC/dr` — both numerator and denominator scale by `N`.
//! As `N → ∞` this converges to the continuum (mean-field) game in which
//! each of `K` utility classes with population fraction `w_c` plays one
//! scaled rate `x_c` against the aggregate; the finite-`N` engine and the
//! continuum fixed point share these types.

use greednet_core::utility::BoxedUtility;
use greednet_numerics::conv;
use std::fmt;

/// Packetization slack coefficient for the SFQ large-N model: SFQ is
/// modeled as Fair Share plus a per-unit-rate congestion surcharge
/// `β·x` reflecting the one-packet granularity by which Fair Queueing
/// trails the fluid serial allocation. This is a modeling choice with
/// its own well-defined mean-field limit (DESIGN.md §10), not a theorem
/// of the paper.
pub const SFQ_BETA: f64 = 0.5;

/// The service disciplines the large-N engine solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LargenDiscipline {
    /// FIFO — the proportional allocation `Φ_i = x_i/(1−R)`.
    Fifo,
    /// Fair Share — the serial (sorted-prefix) allocation.
    FairShare,
    /// Stochastic Fair Queueing — Fair Share plus packetization slack
    /// [`SFQ_BETA`]`·x`.
    Sfq,
}

impl LargenDiscipline {
    /// Parses a discipline name: `fifo`, `fs`/`fairshare`/`fair-share`,
    /// `sfq`/`fq`.
    #[must_use]
    pub fn parse(name: &str) -> Option<LargenDiscipline> {
        match name {
            "fifo" => Some(LargenDiscipline::Fifo),
            "fs" | "fairshare" | "fair-share" => Some(LargenDiscipline::FairShare),
            "sfq" | "fq" => Some(LargenDiscipline::Sfq),
            _ => None,
        }
    }

    /// Canonical short name (`fifo`, `fs`, `sfq`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LargenDiscipline::Fifo => "fifo",
            LargenDiscipline::FairShare => "fs",
            LargenDiscipline::Sfq => "sfq",
        }
    }

    /// All three disciplines, in canonical order.
    pub const ALL: [LargenDiscipline; 3] = [
        LargenDiscipline::Fifo,
        LargenDiscipline::FairShare,
        LargenDiscipline::Sfq,
    ];
}

/// One utility class: a shared (share-scale) utility and its population
/// fraction.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// The class utility, evaluated at share-scale `(x, Φ)`.
    pub utility: BoxedUtility,
    /// Population fraction `w_c > 0`. Fractions are normalized to sum to
    /// one by the solvers, so callers may pass any positive weights.
    pub weight: f64,
}

impl ClassSpec {
    /// Creates a class with the given utility and positive weight.
    #[must_use]
    pub fn new(utility: BoxedUtility, weight: f64) -> ClassSpec {
        ClassSpec { utility, weight }
    }
}

/// Options shared by the continuum and finite-`N` solvers.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Damping factor `d ∈ (0, 1]` of the outer Jacobi iteration:
    /// `x ← x + d·(BR(x) − x)`. Both solvers adapt it automatically
    /// when the residual stalls — halving (down to a `10^-6` floor)
    /// while the updates oscillate, growing back toward this configured
    /// ceiling while they creep monotonically. Steep best-response
    /// slopes (heavy traffic, large `w/γ`) need `d` far below any
    /// sensible fixed default.
    pub damping: f64,
    /// Convergence tolerance on the max best-response deviation
    /// `max_i |BR_i − x_i|` (share-scale units).
    pub tol: f64,
    /// Total sweep/step budget.
    pub max_sweeps: u32,
    /// Per-class initial scaled rates (defaults to 0.25 each).
    pub init: Option<Vec<f64>>,
    /// Relative amplitude of the per-user init jitter in the finite
    /// engine (exercises that the fixed point is independent of the
    /// starting point; the continuum solver ignores it).
    pub jitter: f64,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            damping: 0.5,
            tol: 1e-12,
            max_sweeps: 500,
            init: None,
            jitter: 1e-3,
        }
    }
}

/// Errors from the large-N solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LargenError {
    /// The class list was empty.
    NoClasses,
    /// A class weight was non-finite or not positive.
    BadWeight {
        /// Offending class index.
        class: usize,
        /// The weight as given.
        weight: f64,
    },
    /// `opts.init` was present but its length differs from the class
    /// count, or an entry was non-finite/negative. The finite engine
    /// also rejects an entry whose largest jittered start,
    /// `init·(1 + jitter)`, is not finite; the continuum solver does not
    /// jitter and accepts every finite entry.
    BadInit(String),
    /// A solver option was out of range.
    BadOptions(String),
    /// The finite engine was asked for a population of zero users.
    ZeroUsers,
    /// A best response grew without bound (the utility rewards rate
    /// faster than the discipline ever charges for it).
    Unbounded {
        /// Class whose best response diverged.
        class: usize,
    },
}

impl fmt::Display for LargenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LargenError::NoClasses => write!(f, "need at least one utility class"),
            LargenError::BadWeight { class, weight } => {
                write!(f, "class {class} weight {weight} must be finite and > 0")
            }
            LargenError::BadInit(msg) => write!(f, "bad init: {msg}"),
            LargenError::BadOptions(msg) => write!(f, "bad options: {msg}"),
            LargenError::ZeroUsers => write!(f, "population must have at least one user"),
            LargenError::Unbounded { class } => {
                write!(f, "best response of class {class} is unbounded")
            }
        }
    }
}

impl std::error::Error for LargenError {}

/// Validates classes + options; returns the normalized weights.
pub(crate) fn validate(
    classes: &[ClassSpec],
    opts: &SolveOptions,
) -> Result<Vec<f64>, LargenError> {
    if classes.is_empty() {
        return Err(LargenError::NoClasses);
    }
    for (c, spec) in classes.iter().enumerate() {
        if !(spec.weight.is_finite() && spec.weight > 0.0) {
            return Err(LargenError::BadWeight {
                class: c,
                weight: spec.weight,
            });
        }
    }
    if !(opts.damping.is_finite() && opts.damping > 0.0 && opts.damping <= 1.0) {
        return Err(LargenError::BadOptions(format!(
            "damping {} must be in (0, 1]",
            opts.damping
        )));
    }
    if !(opts.tol.is_finite() && opts.tol > 0.0) {
        return Err(LargenError::BadOptions(format!(
            "tol {} must be finite and > 0",
            opts.tol
        )));
    }
    if opts.max_sweeps == 0 {
        return Err(LargenError::BadOptions("max_sweeps must be > 0".into()));
    }
    if !(opts.jitter.is_finite() && opts.jitter >= 0.0 && opts.jitter < 1.0) {
        return Err(LargenError::BadOptions(format!(
            "jitter {} must be in [0, 1)",
            opts.jitter
        )));
    }
    if let Some(init) = &opts.init {
        if init.len() != classes.len() {
            return Err(LargenError::BadInit(format!(
                "{} entries for {} classes",
                init.len(),
                classes.len()
            )));
        }
        for (c, &x) in init.iter().enumerate() {
            if !(x.is_finite() && x >= 0.0) {
                return Err(LargenError::BadInit(format!(
                    "class {c} init {x} must be finite and >= 0"
                )));
            }
        }
    }
    let raw: Vec<f64> = classes.iter().map(|s| s.weight).collect();
    Ok(weight_fractions(&raw))
}

/// Each weight divided by the weights' sum. A sum that overflows is taken
/// after dividing every weight by the largest, so weights near
/// `f64::MAX` get the fractions of their ratios; a finite sum keeps the
/// plain division, bit for bit.
#[must_use]
pub fn weight_fractions(weights: &[f64]) -> Vec<f64> {
    let mut scale = 1.0;
    let mut total: f64 = weights.iter().sum();
    if !total.is_finite() {
        scale = weights.iter().fold(0.0, |m: f64, &w| m.max(w));
        total = weights.iter().map(|w| w / scale).sum();
    }
    weights.iter().map(|w| w / scale / total).collect()
}

/// Splits a population of `n` users across classes by normalized weight
/// (see [`weight_fractions`]): `floor(w_c·n)` each, remainder distributed
/// one user at a time to the first classes in order.
///
/// The remainder rule is deliberate: for fixed weights the class-fraction
/// deviation from `w_c` keeps the same sign at every `n` (the first
/// classes are always the rounded-up ones), so the finite-`N` equilibrium
/// error decays monotonically in `n` instead of oscillating with the
/// rounding (experiment E17 depends on this).
///
/// Callers pass the weights [`validate`] returned (finite and positive);
/// other weights give counts that need not sum to `n`.
#[must_use]
pub(crate) fn apportion(n: u64, weights: &[f64]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let mut counts: Vec<u64> = weight_fractions(weights)
        .iter()
        .map(|&w| conv::f64_to_u64((w * n as f64).floor()))
        .collect();
    let assigned: u64 = counts.iter().sum();
    let remainder = n.saturating_sub(assigned);
    for k in 0..remainder {
        // More remainder slots than classes cannot happen (floor drops
        // < 1 user per class), but cycle defensively instead of indexing
        // out of bounds.
        let idx = conv::f64_to_usize(k as f64 % counts.len() as f64);
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_core::utility::{LogUtility, UtilityExt};

    #[test]
    fn parse_and_name_round_trip() {
        for d in LargenDiscipline::ALL {
            assert_eq!(LargenDiscipline::parse(d.name()), Some(d));
        }
        assert_eq!(
            LargenDiscipline::parse("fairshare"),
            Some(LargenDiscipline::FairShare)
        );
        assert_eq!(LargenDiscipline::parse("fq"), Some(LargenDiscipline::Sfq));
        assert_eq!(LargenDiscipline::parse("ps"), None);
    }

    #[test]
    fn apportion_floors_and_gives_remainder_to_first_classes() {
        // Thirds at n ≡ 1 (mod 3): first class takes the extra user.
        assert_eq!(apportion(100, &[1.0, 1.0, 1.0]), vec![34, 33, 33]);
        assert_eq!(apportion(10_000, &[1.0, 1.0, 1.0]), vec![3334, 3333, 3333]);
        // Exact splits stay exact.
        assert_eq!(apportion(90, &[1.0, 2.0]), vec![30, 60]);
        // Total is always preserved.
        for n in [1u64, 7, 97, 1000] {
            let counts = apportion(n, &[0.6, 0.5, 0.4]);
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn overflowing_weight_sums_solve_like_their_ratios() {
        use crate::{solve_finite, solve_mean_field};
        assert_eq!(weight_fractions(&[1e308, 1e308]), vec![0.5, 0.5]);
        assert_eq!(
            weight_fractions(&[f64::MAX, 1.0]),
            vec![1.0, 1.0 / f64::MAX]
        );
        assert_eq!(apportion(1001, &[1e308, 1e308]), vec![501, 500]);
        let classes = |w: f64| {
            vec![
                ClassSpec::new(LogUtility::new(0.6, 1.0).boxed(), w),
                ClassSpec::new(LogUtility::new(0.4, 1.0).boxed(), w),
            ]
        };
        let opts = SolveOptions::default();
        let disc = LargenDiscipline::FairShare;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let [a, b] =
            [1.0, 1e308].map(|w| solve_mean_field(disc, &classes(w), &opts).expect("solves"));
        assert_eq!(bits(&[a.load, a.residual]), bits(&[b.load, b.residual]));
        assert_eq!(
            (bits(&a.x), bits(&a.phi), a.steps),
            (bits(&b.x), bits(&b.phi), b.steps)
        );
        let [a, b] = [1.0, 1e308]
            .map(|w| solve_finite(disc, &classes(w), 1000, 1, 1, &opts).expect("solves"));
        assert_eq!(bits(&[a.load, a.residual]), bits(&[b.load, b.residual]));
        assert_eq!(
            (bits(&a.class_x), bits(&a.class_phi)),
            (bits(&b.class_x), bits(&b.class_phi))
        );
        assert_eq!((&a.class_counts, a.sweeps), (&b.class_counts, b.sweeps));
    }

    #[test]
    fn finite_inits_that_overflow_under_jitter_are_bad() {
        use crate::{solve_finite, solve_mean_field};
        let classes = vec![ClassSpec::new(LogUtility::new(1.0, 1.0).boxed(), 1.0)];
        let with_init = |x: f64| SolveOptions {
            init: Some(vec![x]),
            ..SolveOptions::default()
        };
        // Some of these starts, `init·(1 + 1e-3·(2u − 1))`, overflow.
        for (disc, init) in [
            (LargenDiscipline::Fifo, f64::MAX),
            (LargenDiscipline::FairShare, f64::MAX / 1.0005),
        ] {
            assert!(matches!(
                solve_finite(disc, &classes, 10, 1, 1, &with_init(init)),
                Err(LargenError::BadInit(_))
            ));
        }
        // Below the jitter's reach the start is finite and solves.
        let disc = LargenDiscipline::FairShare;
        let opts = with_init(f64::MAX / 1.002);
        assert!(solve_finite(disc, &classes, 10, 1, 1, &opts).is_ok());
        // The continuum does not jitter.
        let opts = with_init(f64::MAX);
        assert!(solve_mean_field(LargenDiscipline::Fifo, &classes, &opts).is_ok());
    }

    #[test]
    fn validate_normalizes_weights_and_rejects_bad_input() {
        let classes = vec![
            ClassSpec::new(LogUtility::new(1.0, 1.0).boxed(), 2.0),
            ClassSpec::new(LogUtility::new(0.5, 1.0).boxed(), 2.0),
        ];
        let w = validate(&classes, &SolveOptions::default()).expect("valid");
        assert_eq!(w, vec![0.5, 0.5]);
        assert_eq!(
            validate(&[], &SolveOptions::default()),
            Err(LargenError::NoClasses)
        );
        let bad = vec![ClassSpec::new(LogUtility::new(1.0, 1.0).boxed(), 0.0)];
        assert!(matches!(
            validate(&bad, &SolveOptions::default()),
            Err(LargenError::BadWeight { class: 0, .. })
        ));
        let opts = SolveOptions {
            damping: 1.5,
            ..SolveOptions::default()
        };
        assert!(matches!(
            validate(&classes, &opts),
            Err(LargenError::BadOptions(_))
        ));
        let opts = SolveOptions {
            init: Some(vec![0.1]),
            ..SolveOptions::default()
        };
        assert!(matches!(
            validate(&classes, &opts),
            Err(LargenError::BadInit(_))
        ));
    }
}
