//! Typed simulation units.
//!
//! The engine's public API used to pass bare `f64`s for three physically
//! distinct quantities — simulated time, arrival rate, and service work —
//! and nothing stopped a caller from handing a rate where a horizon was
//! expected. [`SimTime`], [`Rate`] and [`Work`] are `#[repr(transparent)]`
//! newtypes over `f64` that make those mix-ups type errors while staying
//! bit-for-bit identical to the raw floats at runtime:
//!
//! * **Checked construction** goes through [`SimTime::checked`] /
//!   [`Rate::checked`] / [`Work::checked`], which route the domain test
//!   (finite, non-negative) through `greednet_numerics::conv` and return
//!   [`DesError::InvalidUnit`] on NaN/∞/negative input.
//! * **Unchecked construction** (`From<f64>` and the `const` [`raw`]
//!   constructors) exists for engine-internal arithmetic where values are
//!   already validated at the config boundary; the engine does its
//!   drain-loop math on [`get`]-extracted raws so the generated float ops
//!   are exactly the ones the pre-calendar engine executed.
//! * **Dimensional arithmetic** is restricted to combinations that make
//!   sense: `SimTime ± SimTime`, `Work - Work`, `Work / share → SimTime`
//!   (a unit-rate server at a fractional share), `Rate * SimTime → Work`.
//!
//! None of the units implement `Ord` (they are `f64`s and admit NaN
//! through the unchecked path); ordered containers key on
//! `f64::total_cmp` of [`get`], as the event calendar does.
//!
//! [`raw`]: SimTime::raw
//! [`get`]: SimTime::get
// `#[derive(PartialOrd)]` expands to `partial_cmp` calls, and an
// item-level `#[expect]` does not reach derive output.
#![expect(
    clippy::disallowed_methods,
    reason = "derived PartialOrd on the f64 newtypes; ordered containers use total_cmp of get()"
)]

use crate::error::DesError;
use crate::Result;
use greednet_numerics::conv;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! unit_common {
    ($name:ident, $doc_noun:literal) => {
        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            #[doc = concat!("Validated constructor: accepts any finite, non-negative ", $doc_noun, ".")]
            ///
            /// # Errors
            /// [`DesError::InvalidUnit`] for NaN, infinite or negative input.
            pub fn checked(value: f64) -> Result<$name> {
                conv::checked_nonneg(value)
                    .map($name)
                    .ok_or(DesError::InvalidUnit {
                        unit: stringify!($name),
                        value,
                    })
            }

            /// Unchecked constructor for engine-internal arithmetic on
            /// already-validated values.
            #[must_use]
            pub const fn raw(value: f64) -> $name {
                $name(value)
            }

            /// The underlying `f64`.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Whether the value is finite (unchecked paths can carry ∞,
            /// e.g. an unreachable event time).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                $name(value)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }
    };
}

/// A point in (or duration of) simulated time, in the paper's natural
/// unit where the switch serves one mean-size packet per time unit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct SimTime(f64);

unit_common!(SimTime, "time");

impl SimTime {
    /// The unreachable event time (used for "never fires").
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// The earlier of two times (IEEE `min`: ignores a NaN operand).
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

/// A packet arrival rate (packets per unit time; the server rate is 1,
/// so rates are also loads).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Rate(f64);

unit_common!(Rate, "rate");

impl Mul<SimTime> for Rate {
    type Output = Work;
    /// Expected work offered over an interval: `rate × duration`.
    fn mul(self, rhs: SimTime) -> Work {
        Work(self.0 * rhs.0)
    }
}

/// An amount of service work (packet size or remaining size), in units
/// of mean packet service time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Work(f64);

unit_common!(Work, "work amount");

impl Sub for Work {
    type Output = Work;
    fn sub(self, rhs: Work) -> Work {
        Work(self.0 - rhs.0)
    }
}

impl SubAssign for Work {
    fn sub_assign(&mut self, rhs: Work) {
        self.0 -= rhs.0;
    }
}

impl Div<f64> for Work {
    type Output = SimTime;
    /// Time to drain this work at a dimensionless service share of the
    /// unit-rate server.
    fn div(self, share: f64) -> SimTime {
        SimTime(self.0 / share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_accepts_the_domain_and_rejects_the_rest() {
        assert_eq!(SimTime::checked(0.0).unwrap(), SimTime::ZERO);
        assert_eq!(Rate::checked(0.35).unwrap().get(), 0.35);
        assert_eq!(Work::checked(2.5).unwrap().get(), 2.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1] {
            assert!(matches!(
                SimTime::checked(bad),
                Err(DesError::InvalidUnit {
                    unit: "SimTime",
                    ..
                })
            ));
            assert!(matches!(
                Rate::checked(bad),
                Err(DesError::InvalidUnit { unit: "Rate", .. })
            ));
            assert!(matches!(
                Work::checked(bad),
                Err(DesError::InvalidUnit { unit: "Work", .. })
            ));
        }
    }

    #[test]
    fn arithmetic_is_bit_identical_to_raw_f64() {
        // The engine's bitwise-determinism contract rests on the newtypes
        // compiling to the same float ops as the raw code they replaced.
        let t = SimTime::raw(123.456);
        let dt = SimTime::raw(0.789);
        assert_eq!((t + dt).get().to_bits(), (123.456f64 + 0.789).to_bits());
        assert_eq!((t - dt).get().to_bits(), (123.456f64 - 0.789).to_bits());
        let w = Work::raw(1.75);
        assert_eq!((w / 0.3).get().to_bits(), (1.75f64 / 0.3).to_bits());
        assert_eq!(
            (Rate::raw(0.2) * t).get().to_bits(),
            (0.2f64 * 123.456).to_bits()
        );
    }

    #[test]
    fn time_min_max_and_infinity() {
        let a = SimTime::raw(1.0);
        assert_eq!(a.min(SimTime::INFINITY), a);
        assert_eq!(a.max(SimTime::raw(2.0)), SimTime::raw(2.0));
        assert!(!SimTime::INFINITY.is_finite());
        assert!(a.is_finite());
    }

    #[test]
    fn work_drains() {
        let mut w = Work::raw(2.0);
        w -= Work::raw(0.5);
        assert_eq!(w, Work::raw(1.5));
        assert_eq!(w - Work::raw(1.5), Work::ZERO);
    }

    #[test]
    fn display_matches_f64() {
        assert_eq!(format!("{}", SimTime::raw(1.25)), "1.25");
        assert_eq!(format!("{:.1}", Rate::raw(0.35)), "0.3");
    }
}
