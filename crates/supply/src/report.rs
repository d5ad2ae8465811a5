//! Population-level detection statistics.

use std::collections::BTreeMap;

use crate::chip::Provenance;

/// One provenance class's tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassTally {
    /// Chips of this class inspected.
    pub total: usize,
    /// Chips of this class flagged (not accepted) by the integrator.
    pub flagged: usize,
}

/// Detection statistics over a mixed chip population.
#[derive(Debug, Clone, Default)]
pub struct DetectionStats {
    classes: BTreeMap<String, ClassTally>,
    genuine_total: usize,
    genuine_flagged: usize,
    counterfeit_total: usize,
    counterfeit_flagged: usize,
}

impl DetectionStats {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one inspection outcome.
    pub fn record(&mut self, provenance: Provenance, label: &str, accepted: bool) {
        let tally = self.classes.entry(label.to_string()).or_default();
        tally.total += 1;
        if !accepted {
            tally.flagged += 1;
        }
        if provenance.is_counterfeit() {
            self.counterfeit_total += 1;
            if !accepted {
                self.counterfeit_flagged += 1;
            }
        } else {
            self.genuine_total += 1;
            if !accepted {
                self.genuine_flagged += 1;
            }
        }
    }

    /// Per-class tallies, sorted by label.
    #[must_use]
    pub fn classes(&self) -> &BTreeMap<String, ClassTally> {
        &self.classes
    }

    /// Genuine chips wrongly flagged.
    #[must_use]
    pub fn false_positives(&self) -> usize {
        self.genuine_flagged
    }

    /// Counterfeit chips wrongly accepted.
    #[must_use]
    pub fn false_negatives(&self) -> usize {
        self.counterfeit_total - self.counterfeit_flagged
    }

    /// True-positive rate over counterfeits (detection rate).
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.counterfeit_total == 0 {
            return 1.0;
        }
        self.counterfeit_flagged as f64 / self.counterfeit_total as f64
    }

    /// False-positive rate over genuine chips.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        if self.genuine_total == 0 {
            return 0.0;
        }
        self.genuine_flagged as f64 / self.genuine_total as f64
    }

    /// Total chips inspected.
    #[must_use]
    pub fn total(&self) -> usize {
        self.genuine_total + self.counterfeit_total
    }
}

impl core::fmt::Display for DetectionStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{:<28} {:>6} {:>8}", "class", "total", "flagged")?;
        for (label, t) in &self.classes {
            writeln!(f, "{:<28} {:>6} {:>8}", label, t.total, t.flagged)?;
        }
        write!(
            f,
            "detection rate {:.1}%  false-positive rate {:.1}%",
            self.detection_rate() * 100.0,
            self.false_positive_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_computed_correctly() {
        let mut s = DetectionStats::new();
        s.record(Provenance::GenuineAccept, "genuine", true);
        s.record(Provenance::GenuineAccept, "genuine", true);
        s.record(Provenance::GenuineReject, "reject", false);
        s.record(Provenance::Clone, "clone", false);
        s.record(Provenance::Clone, "clone", true); // missed one
        assert_eq!(s.total(), 5);
        assert_eq!(s.false_positives(), 0);
        assert_eq!(s.false_negatives(), 1);
        assert!((s.detection_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.false_positive_rate().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn empty_population_is_benign() {
        let s = DetectionStats::new();
        assert_eq!(s.detection_rate().to_bits(), 1.0_f64.to_bits());
        assert_eq!(s.false_positive_rate().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn display_lists_classes() {
        let mut s = DetectionStats::new();
        s.record(Provenance::Clone, "clone", false);
        let out = s.to_string();
        assert!(out.contains("clone"));
        assert!(out.contains("detection rate 100.0%"));
    }
}
