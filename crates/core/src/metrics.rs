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
            if r && !x {
                e.good_to_bad += 1;
            } else if !r && x {
                e.bad_to_good += 1;
            }
        }
        e
    }

    /// Total bit errors.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.good_to_bad + self.bad_to_good
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
        assert_eq!(e.errors(), 2);
    }

    #[test]
    fn clean_extraction_has_no_errors() {
        let bits = [true, false, true];
        let e = ExtractionErrors::compare(&bits, &bits);
        assert_eq!(e.errors(), 0);
    }
}
