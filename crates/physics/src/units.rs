//! Newtype units used throughout the simulator.
//!
//! Times and voltages cross many module boundaries; newtypes keep microseconds
//! from being confused with seconds and volts from being confused with either.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! scalar_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps to the inclusive range `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` if the value is finite (not NaN or infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_newtype!(
    /// A voltage in volts.
    Volts,
    "V"
);

scalar_newtype!(
    /// A duration in microseconds.
    ///
    /// Partial-erase times in the paper are on the order of tens of
    /// microseconds, so this is the natural unit for cell dynamics.
    Micros,
    "µs"
);

scalar_newtype!(
    /// A duration in seconds.
    ///
    /// Used by the simulated wall clock; imprint times in the paper are on
    /// the order of hundreds to thousands of seconds.
    Seconds,
    "s"
);

impl Micros {
    /// Converts to [`Seconds`].
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 * 1e-6)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self(ms * 1e3)
    }
}

impl Seconds {
    /// Converts to [`Micros`].
    #[must_use]
    pub fn to_micros(self) -> Micros {
        Micros::new(self.0 * 1e6)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self(ms * 1e-3)
    }
}

impl From<Micros> for Seconds {
    fn from(us: Micros) -> Self {
        us.to_seconds()
    }
}

impl From<Seconds> for Micros {
    fn from(s: Seconds) -> Self {
        s.to_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volts_arithmetic() {
        let a = Volts::new(3.0);
        let b = Volts::new(1.5);
        assert_eq!((a + b).get().to_bits(), 4.5_f64.to_bits());
        assert_eq!((a - b).get().to_bits(), 1.5_f64.to_bits());
        assert_eq!((a * 2.0).get().to_bits(), 6.0_f64.to_bits());
        assert_eq!((a / 2.0).get().to_bits(), 1.5_f64.to_bits());
        assert_eq!((a / b).to_bits(), 2.0_f64.to_bits());
        assert_eq!((-a).get().to_bits(), (-3.0_f64).to_bits());
    }

    #[test]
    fn micros_seconds_roundtrip() {
        let t = Micros::new(25_000.0);
        let s = t.to_seconds();
        assert!((s.get() - 0.025).abs() < 1e-12);
        assert!((s.to_micros().get() - 25_000.0).abs() < 1e-9);
        assert_eq!(Seconds::from(t), s);
        assert!((Micros::from(s).get() - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn millis_helpers() {
        assert_eq!(Micros::from_millis(25.0), Micros::new(25_000.0));
        assert!((Seconds::from_millis(170.0).get() - 0.17).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_minmax() {
        let v = Volts::new(5.0);
        assert_eq!(v.clamp(Volts::new(0.0), Volts::new(4.0)), Volts::new(4.0));
        assert_eq!(v.min(Volts::new(4.0)), Volts::new(4.0));
        assert_eq!(v.max(Volts::new(6.0)), Volts::new(6.0));
        assert_eq!(Volts::new(-2.0).abs(), Volts::new(2.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Volts::new(3.2).to_string(), "3.2 V");
        assert_eq!(Micros::new(23.0).to_string(), "23 µs");
        assert_eq!(Seconds::new(1.5).to_string(), "1.5 s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Micros = [1.0, 2.0, 3.5].iter().map(|&v| Micros::new(v)).sum();
        assert_eq!(total, Micros::new(6.5));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Volts::default()).is_empty());
    }
}
