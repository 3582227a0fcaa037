//! All 20 paper-reproduction experiments as [`Experiment`]
//! implementations, plus the central [`registry`].
//!
//! Each module ports one former ad-hoc binary to the structured
//! [`greednet_runtime::RunReport`] API: the computation is identical, but
//! output goes into tables/notes/metrics instead of `println!`, stochastic
//! stages derive their seeds from the [`greednet_runtime::ExpCtx`] root seed via
//! index-keyed splitting, and embarrassingly-parallel stages (replication
//! batches, profile sweeps, multi-start solves) run on the deterministic
//! thread pool — so `--threads N` never changes any number in the report.

use greednet_runtime::{Experiment, Registry};

pub mod e1;
pub mod e10a;
pub mod e10b;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod t1;

/// The central registry of every experiment, in reporting order
/// (T1, E1..E18).
#[must_use]
pub fn registry() -> Registry {
    let mut r = Registry::new();
    let all: Vec<Box<dyn Experiment>> = vec![
        Box::new(t1::T1PriorityTable),
        Box::new(e1::E1Efficiency),
        Box::new(e2::E2Envy),
        Box::new(e3::E3Uniqueness),
        Box::new(e4::E4Stackelberg),
        Box::new(e5::E5Revelation),
        Box::new(e6::E6Convergence),
        Box::new(e7::E7Protection),
        Box::new(e8::E8AltConstraint),
        Box::new(e9::E9DesValidation),
        Box::new(e10a::E10aDynamics),
        Box::new(e10b::E10bFtpTelnet),
        Box::new(e11::E11Elimination),
        Box::new(e12::E12Network),
        Box::new(e13::E13Mg1),
        Box::new(e14::E14Coalitions),
        Box::new(e15::E15BlendAblation),
        Box::new(e16::E16ClosedLoop),
        Box::new(e17::E17LargeN),
        Box::new(e18::E18HeavyTraffic),
    ];
    for e in all {
        r.register(e);
    }
    r
}

/// Appends one `[histogram, bucket, count]` row per non-empty bucket of
/// a telemetry histogram. Bucket bounds and counts are exact (integer
/// counts, power-of-two bounds), so these rows are part of the
/// deterministic report payload.
pub(crate) fn histogram_rows(
    t: &mut greednet_runtime::Table,
    label: &str,
    h: &greednet_telemetry::Log2Histogram,
) {
    for (lo, hi, n) in h.nonzero_buckets() {
        let bucket = if lo == 0.0 && hi == 0.0 {
            "0".to_string()
        } else {
            format!("[{lo:.4e}, {hi:.4e})")
        };
        t.row(vec![
            label.into(),
            bucket.into(),
            i64::try_from(n).unwrap_or(i64::MAX).into(),
        ]);
    }
}

/// Statistics of a batch of replication estimates: mean and the 95%
/// normal-approximation half-width across replications.
#[must_use]
pub(crate) fn mean_and_hw(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, f64::NAN);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_runtime::{Budget, ExpCtx};

    #[test]
    fn registry_has_all_twenty_unique_ids() {
        let reg = registry();
        assert_eq!(reg.len(), 20);
        let ids = reg.ids();
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "ids must be unique");
        for id in ["t1", "e1", "e9", "e10a", "e10b", "e15", "e16", "e17", "e18"] {
            assert!(reg.get(id).is_some(), "missing {id}");
        }
    }

    #[test]
    fn mean_and_hw_basics() {
        let (m, hw) = mean_and_hw(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!(hw > 0.0);
        assert!(mean_and_hw(&[]).0.is_nan());
    }

    #[test]
    fn smoke_budget_context_is_cheap() {
        let ctx = ExpCtx::new(1, 2).with_budget(Budget::smoke());
        assert!(ctx.budget.horizon(400_000.0) < 400_000.0);
        assert!(ctx.budget.count(60) >= 2);
    }
}
