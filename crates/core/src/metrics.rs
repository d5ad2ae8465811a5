//! Extraction-quality metrics: BER and error asymmetry.

pub use flashmark_ecc::bits::bit_error_rate;

/// Error breakdown of extracted bits against the imprinted reference.
///
/// The paper observes (Fig. 10) that errors are asymmetric: a stressed
/// "bad" (0) cell is misread as "good" (1) far more often than the reverse,
/// because wear-activated traps make some worn cells erase anomalously
/// fast. `bad_to_good` / `good_to_bad` quantify exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionErrors {
    /// Reference 1-bits read back as 0 ("good" misread as "bad").
    pub good_to_bad: usize,
    /// Reference 0-bits read back as 1 ("bad" misread as "good").
    pub bad_to_good: usize,
    /// Reference 1-bits total.
    pub good_total: usize,
    /// Reference 0-bits total.
    pub bad_total: usize,
}

impl ExtractionErrors {
    /// Compares extracted bits against the reference.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn compare(reference: &[bool], extracted: &[bool]) -> Self {
        assert_eq!(reference.len(), extracted.len(), "length mismatch");
        let mut e = Self::default();
        for (&r, &x) in reference.iter().zip(extracted) {
            if r {
                e.good_total += 1;
                if !x {
                    e.good_to_bad += 1;
                }
            } else {
                e.bad_total += 1;
                if x {
                    e.bad_to_good += 1;
                }
            }
        }
        e
    }

    /// Total bit errors.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.good_to_bad + self.bad_to_good
    }

    /// Total bits compared.
    #[must_use]
    pub fn total(&self) -> usize {
        self.good_total + self.bad_total
    }

    /// Overall bit error rate.
    #[must_use]
    pub fn ber(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.errors() as f64 / self.total() as f64
    }

    /// Merges two breakdowns (e.g. across replicas or chips).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            good_to_bad: self.good_to_bad + other.good_to_bad,
            bad_to_good: self.bad_to_good + other.bad_to_good,
            good_total: self.good_total + other.good_total,
            bad_total: self.bad_total + other.bad_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_counts_both_directions() {
        let reference = [true, true, false, false, true];
        let extracted = [true, false, true, false, true];
        let e = ExtractionErrors::compare(&reference, &extracted);
        assert_eq!(e.good_to_bad, 1);
        assert_eq!(e.bad_to_good, 1);
        assert_eq!(e.good_total, 3);
        assert_eq!(e.bad_total, 2);
        assert_eq!(e.errors(), 2);
        assert!((e.ber() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn clean_extraction_has_zero_ber() {
        let bits = [true, false, true];
        let e = ExtractionErrors::compare(&bits, &bits);
        assert_eq!(e.errors(), 0);
        assert!(e.ber().abs() < 1e-12);
    }

    #[test]
    fn merged_adds_counts() {
        let a = ExtractionErrors {
            good_to_bad: 1,
            bad_to_good: 2,
            good_total: 10,
            bad_total: 10,
        };
        let b = ExtractionErrors {
            good_to_bad: 3,
            bad_to_good: 0,
            good_total: 5,
            bad_total: 15,
        };
        let m = a.merged(b);
        assert_eq!(m.good_to_bad, 4);
        assert_eq!(m.bad_to_good, 2);
        assert_eq!(m.total(), 40);
    }

    #[test]
    fn empty_is_safe() {
        let e = ExtractionErrors::default();
        assert!(e.ber().abs() < 1e-12);
    }
}
