//! Checked numeric conversions for the deterministic crates.
//!
//! `as` casts silently truncate, wrap, or change sign; the workspace's
//! clippy cast lints (`cast_possible_truncation`, `cast_sign_loss`,
//! `cast_possible_wrap`) reject them because a wrapped index or seed
//! corrupts the paper-vs-measured tables without a diagnostic. This
//! module concentrates the conversions the workspace actually needs into
//! named, documented helpers:
//!
//! * the integer↔integer helpers are implemented with `try_from` and are
//!   lossless on every platform Rust supports (the fallback arms are
//!   unreachable there and merely make the functions total);
//! * the float→integer helpers clamp instead of truncating arbitrarily,
//!   and carry the workspace's only library `#[expect]`s on the cast
//!   lints, each with its range proof.
//!
//! Keeping the two audited casts *here* (rather than at call sites)
//! means every new lossy cast elsewhere is a clippy error by default.
//! Every helper is `#[inline]`: without LTO a non-generic function is an
//! out-of-line call from other crates, and the DES engine converts on
//! per-event paths.

/// Converts a container index or count to a `u64` seed/stream index.
///
/// Lossless: `usize` is at most 64 bits on every supported platform, so
/// the fallback arm is unreachable; it exists only to keep the function
/// total without a panic path.
#[must_use]
#[inline]
pub fn index_to_u64(i: usize) -> u64 {
    u64::try_from(i).unwrap_or(u64::MAX)
}

/// Converts a `u32` (e.g. a `count_ones` popcount) to a `usize`.
///
/// Lossless on every supported platform (`usize` is at least 32 bits);
/// the fallback arm keeps the function total without a panic path.
#[must_use]
#[inline]
pub fn u32_to_usize(x: u32) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// Converts a signed bookkeeping index back to `usize`, clamping
/// negatives to zero.
///
/// Callers use this where a loop invariant keeps the index non-negative
/// (debug-asserted); the clamp makes release builds total instead of
/// wrapping to a huge index.
#[must_use]
#[inline]
pub fn isize_to_usize(i: isize) -> usize {
    debug_assert!(i >= 0, "negative index {i} converted to usize");
    usize::try_from(i).unwrap_or(0)
}

/// Validates that `x` is a finite, non-negative quantity, returning it
/// unchanged or `None`.
///
/// The typed-unit constructors in `greednet-des` (`SimTime`, `Rate`,
/// `Work`) route their checked entry points through here so the
/// "physical quantity" validation lives next to the other numeric
/// boundary checks rather than being re-derived per newtype.
#[must_use]
#[inline]
pub fn checked_nonneg(x: f64) -> Option<f64> {
    (x.is_finite() && x >= 0.0).then_some(x)
}

/// Validates that `x` is finite and strictly positive, returning it
/// unchanged or `None`.
#[must_use]
#[inline]
pub fn checked_pos(x: f64) -> Option<f64> {
    (x.is_finite() && x > 0.0).then_some(x)
}

/// Truncates a non-negative float to a `usize`, clamping to
/// `[0, usize::MAX]`. NaN (debug-asserted against) maps to 0.
#[must_use]
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "clamped to [0, usize::MAX] first and NaN maps to 0 via clamp; truncation toward zero is the documented contract"
)]
pub fn f64_to_usize(x: f64) -> usize {
    debug_assert!(!x.is_nan(), "NaN converted to usize");
    let clamped = x.clamp(0.0, usize::MAX as f64);
    clamped as usize
}

/// Truncates a non-negative float to a `u64`, clamping to
/// `[0, u64::MAX]`. NaN (debug-asserted against) maps to 0.
#[must_use]
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "clamped to [0, u64::MAX] first and NaN maps to 0 via clamp; truncation toward zero is the documented contract"
)]
pub fn f64_to_u64(x: f64) -> u64 {
    debug_assert!(!x.is_nan(), "NaN converted to u64");
    let clamped = x.clamp(0.0, u64::MAX as f64);
    clamped as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_conversions_are_identity_in_range() {
        assert_eq!(index_to_u64(0), 0);
        assert_eq!(index_to_u64(usize::MAX), usize::MAX as u64);
        assert_eq!(u32_to_usize(u32::MAX), u32::MAX as usize);
        assert_eq!(isize_to_usize(42), 42);
        assert_eq!(isize_to_usize(0), 0);
    }

    #[test]
    fn float_conversions_truncate_and_clamp() {
        assert_eq!(f64_to_usize(3.99), 3);
        assert_eq!(f64_to_usize(0.0), 0);
        assert_eq!(f64_to_usize(-0.0), 0);
        assert_eq!(f64_to_usize(f64::INFINITY), usize::MAX);
        assert_eq!(f64_to_u64(3.99), 3);
        assert_eq!(f64_to_u64(1e6), 1_000_000);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn checked_quantities_accept_finite_and_reject_the_rest() {
        assert_eq!(checked_nonneg(0.0), Some(0.0));
        assert_eq!(checked_nonneg(1.5), Some(1.5));
        assert_eq!(checked_nonneg(-1e-9), None);
        assert_eq!(checked_nonneg(f64::INFINITY), None);
        assert_eq!(checked_nonneg(f64::NAN), None);
        assert_eq!(checked_pos(1.5), Some(1.5));
        assert_eq!(checked_pos(0.0), None);
        assert_eq!(checked_pos(f64::NEG_INFINITY), None);
        assert_eq!(checked_pos(f64::NAN), None);
    }

    #[test]
    fn float_conversions_clamp_negatives_in_release() {
        // debug_assert traps in test builds only for NaN; negatives clamp.
        assert_eq!(f64_to_usize(-7.5), 0);
        assert_eq!(f64_to_u64(-1.0), 0);
    }
}
