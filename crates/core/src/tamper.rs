//! Tamper detection (paper Section V).
//!
//! Wear is one-way: an attacker with the chip in hand can stress *more*
//! cells (turn good → bad) but can never refresh a worn cell (bad → good).
//! Two defenses make that one-way capability useless:
//!
//! * **balance constraints** ([`BalancePolicy`]) — the watermark is encoded
//!   with a known good/bad ratio (e.g. Manchester-balanced, exactly 50 %);
//!   any added stress skews the ratio;
//! * **signatures** — a CRC over the payload is imprinted alongside it (see
//!   [`WatermarkRecord`](crate::watermark::WatermarkRecord)); flipping any
//!   payload bit breaks the signature, and the attacker cannot flip
//!   signature bits in the bad→good direction to compensate.

use crate::error::CoreError;
use crate::watermark::Watermark;

/// A constraint on the fraction of 1-bits ("good" cells) in a watermark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancePolicy {
    /// Expected fraction of 1-bits.
    pub expected_ones_fraction: f64,
    /// Allowed absolute deviation.
    pub tolerance: f64,
}

impl BalancePolicy {
    /// An exact-half policy with the given tolerance — what a
    /// Manchester-balanced watermark satisfies by construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if the tolerance is not in `(0, 0.5)`.
    pub fn half(tolerance: f64) -> Result<Self, CoreError> {
        if !(0.0 < tolerance && tolerance < 0.5) {
            return Err(CoreError::Config("balance tolerance must be in (0, 0.5)"));
        }
        Ok(Self {
            expected_ones_fraction: 0.5,
            tolerance,
        })
    }

    /// Whether a bit string satisfies the policy.
    #[must_use]
    pub fn check(&self, bits: &[bool]) -> bool {
        if bits.is_empty() {
            return false;
        }
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        (ones - self.expected_ones_fraction).abs() <= self.tolerance
    }

    /// Whether a watermark satisfies the policy.
    #[must_use]
    pub fn check_watermark(&self, wm: &Watermark) -> bool {
        self.check(wm.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_watermark_passes_half_policy() {
        let wm = Watermark::from_ascii("SUPPLYCHAIN").unwrap().balanced();
        let policy = BalancePolicy::half(0.05).unwrap();
        assert!(policy.check_watermark(&wm));
    }

    #[test]
    fn stress_attack_breaks_balance() {
        let wm = Watermark::from_ascii("OK").unwrap().balanced();
        let mut attacked = wm.bits().to_vec();
        // Attacker stresses 8 of the good cells (1 -> 0).
        let mut flipped = 0;
        for b in &mut attacked {
            if *b && flipped < 8 {
                *b = false;
                flipped += 1;
            }
        }
        let policy = BalancePolicy::half(0.05).unwrap();
        assert!(!policy.check(&attacked));
    }

    #[test]
    fn policy_rejects_empty() {
        assert!(!BalancePolicy::half(0.1).unwrap().check(&[]));
    }

    #[test]
    fn policy_tolerance_validated() {
        assert!(BalancePolicy::half(0.0).is_err());
        assert!(BalancePolicy::half(0.5).is_err());
    }
}
