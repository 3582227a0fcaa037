//! Equivalence guard for the `total_cmp` comparator migration (the
//! workspace's `clippy.toml` now disallows `partial_cmp`): every sort that
//! moved from `partial_cmp(..).unwrap()` (or `.unwrap_or(Equal)`) to
//! `f64::total_cmp` must order NaN-free data **bitwise identically** to
//! the comparator it replaced. The two comparators differ only on NaN
//! (which `total_cmp` orders deterministically instead of panicking)
//! and on the `-0.0` vs `+0.0` tie — and this workspace's sorted data
//! (rates, congestion levels, |eigenvalue| magnitudes, sample batches)
//! is NaN-free by validation and sign-stable. These tests pin that
//! equivalence over seeded pseudo-random batches so the migration is a
//! safety change, not a behavioral one.

use greednet_numerics::stats::quantile;
use std::cmp::Ordering;

/// The comparator the workspace used before the migration.
#[expect(
    clippy::disallowed_methods,
    reason = "the legacy comparator is the reference these tests compare against"
)]
fn legacy(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).unwrap_or(Ordering::Equal)
}

/// Deterministic pseudo-random f64s in (0, 1): SplitMix64 bit mixer, so
/// the test needs no RNG dependency and every run sees the same data.
fn batch(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // 53 mantissa bits onto (0, 1); duplicates land often enough
            // at short lengths to exercise the Equal branch via the
            // modulo fold below.
            ((z >> 11) % 1024) as f64 / 1024.0
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn ascending_sorts_match_the_legacy_comparator_bitwise() {
    for seed in 0..8u64 {
        let data = batch(seed, 257);
        let mut with_total = data.clone();
        with_total.sort_by(f64::total_cmp);
        let mut with_legacy = data.clone();
        with_legacy.sort_by(legacy);
        assert_eq!(
            bits(&with_total),
            bits(&with_legacy),
            "seed {seed}: total_cmp changed a NaN-free ascending sort"
        );
    }
}

#[test]
fn descending_magnitude_sorts_match_eig_style_ordering() {
    // `eigenvalues()` sorts by descending |λ|; pin the migrated
    // comparator against the legacy one on signed data.
    for seed in 0..8u64 {
        let signed: Vec<f64> = batch(seed, 129)
            .into_iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { x } else { -x })
            .collect();
        let mut with_total = signed.clone();
        with_total.sort_by(|x, y| y.abs().total_cmp(&x.abs()));
        let mut with_legacy = signed.clone();
        with_legacy.sort_by(|x, y| legacy(&y.abs(), &x.abs()));
        assert_eq!(
            bits(&with_total),
            bits(&with_legacy),
            "seed {seed}: total_cmp changed a |magnitude| sort"
        );
    }
}

#[test]
fn min_max_selection_matches_the_legacy_comparator() {
    for seed in 0..8u64 {
        let data = batch(seed, 63);
        let min_total = data.iter().copied().min_by(f64::total_cmp);
        let min_legacy = data.iter().copied().min_by(legacy);
        let max_total = data.iter().copied().max_by(f64::total_cmp);
        let max_legacy = data.iter().copied().max_by(legacy);
        assert_eq!(min_total.map(f64::to_bits), min_legacy.map(f64::to_bits));
        assert_eq!(max_total.map(f64::to_bits), max_legacy.map(f64::to_bits));
    }
}

#[test]
fn quantiles_are_unchanged_by_the_migration() {
    // `stats::quantile` sorts internally with total_cmp now; recompute
    // each quantile through a legacy-sorted copy and compare bitwise.
    for seed in 0..8u64 {
        let data = batch(seed, 101);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let now = quantile(&data, q).expect("non-empty, q in range");
            let mut sorted = data.clone();
            sorted.sort_by(legacy);
            let pos = q * ((sorted.len() - 1) as f64);
            let (lo, hi) = (pos.floor(), pos.ceil());
            let frac = pos - lo;
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "the legacy quantile's own indexing: pos lies in [0, len - 1]"
            )]
            let legacy_val = sorted[lo as usize] * (1.0 - frac) + sorted[hi as usize] * frac;
            assert_eq!(
                now.to_bits(),
                legacy_val.to_bits(),
                "seed {seed}, q {q}: quantile changed"
            );
        }
    }
}

#[test]
fn total_cmp_is_what_makes_nan_inputs_survivable() {
    // Not equivalence — the reason for the migration: with a NaN in the
    // batch the legacy comparator is non-total (panics under unwrap,
    // permutation-dependent under unwrap_or), while total_cmp still
    // produces one deterministic order with NaN sorted last.
    let mut a = vec![0.3, f64::NAN, 0.1, 0.2];
    let mut b = vec![f64::NAN, 0.2, 0.3, 0.1];
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    assert_eq!(
        bits(&a),
        bits(&b),
        "total_cmp order must not depend on input order"
    );
    assert!(a[3].is_nan(), "positive NaN sorts last under total_cmp");
    assert_eq!(bits(&a[..3]), bits(&[0.1, 0.2, 0.3]));
}
