//! Fresh-vs-stressed segment detection (paper Fig. 5).
//!
//! One characterization round at a well-chosen `tPEW` suffices to tell a
//! fresh segment from a stressed one: after the partial erase, a fresh
//! segment's cells have mostly flipped to 1 while a stressed segment's
//! cells mostly still read 0. This is also the primitive for detecting
//! *recycled* chips (heavily used flash that a counterfeiter resells as
//! new).

use flashmark_nor::interface::FlashInterface;
use flashmark_nor::SegmentAddr;
use flashmark_physics::Micros;

use crate::characterize::{analyze_segment, sense_segment};
use crate::error::CoreError;

/// Verdict of a stress classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentCondition {
    /// The segment behaves like unused flash.
    Fresh,
    /// The segment has accumulated substantial P/E stress.
    Stressed,
}

/// Result of one stress detection round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressReport {
    /// Cells still reading programmed after the partial erase.
    pub programmed: usize,
    /// Total cells in the segment.
    pub total: usize,
    /// Classification under the detector's threshold.
    pub verdict: SegmentCondition,
    /// Partial-erase time used.
    pub t_pew: Micros,
}

impl StressReport {
    /// Counts the cells of one sensing round (`true` = erased) that still
    /// read programmed, and calls the segment stressed when their fraction
    /// exceeds `threshold`.
    fn classify(bits: &[bool], threshold: f64, t_pew: Micros) -> Self {
        let programmed = bits.iter().filter(|&&b| !b).count();
        let total = bits.len();
        let verdict = if (programmed as f64 / total as f64) > threshold {
            SegmentCondition::Stressed
        } else {
            SegmentCondition::Fresh
        };
        Self {
            programmed,
            total,
            verdict,
            t_pew,
        }
    }

    /// Fraction of cells that resisted the partial erase.
    #[must_use]
    pub fn programmed_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.programmed as f64 / self.total as f64
    }
}

/// Classifies segments as fresh or stressed with one partial-erase round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressDetector {
    t_pew: Micros,
    reads: usize,
    threshold: f64,
}

impl StressDetector {
    /// Creates a detector.
    ///
    /// `threshold` is the programmed-cell fraction above which a segment is
    /// called stressed (the paper's Fig. 5 example separates 0 K from 50 K
    /// at `tPEW` = 23 µs with 3833 of 4096 cells on the right side).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a non-positive or non-finite `t_pew`, an
    /// even read count or a threshold outside `(0, 1)`.
    pub fn new(t_pew: Micros, reads: usize, threshold: f64) -> Result<Self, CoreError> {
        if !t_pew.is_finite() || t_pew.get() <= 0.0 {
            return Err(CoreError::Config("t_pew must be positive"));
        }
        if reads == 0 || reads.is_multiple_of(2) {
            return Err(CoreError::Config("read count must be odd"));
        }
        if !(0.0 < threshold && threshold < 1.0) {
            return Err(CoreError::Config("threshold must be in (0, 1)"));
        }
        Ok(Self {
            t_pew,
            reads,
            threshold,
        })
    }

    /// A detector at the paper's Fig. 5 operating point (23 µs, majority of
    /// 3 reads, 50 % threshold).
    #[must_use]
    pub fn fig5() -> Self {
        Self {
            t_pew: Micros::new(23.0),
            reads: 3,
            threshold: 0.5,
        }
    }

    /// The partial-erase time used.
    #[must_use]
    pub fn t_pew(&self) -> Micros {
        self.t_pew
    }

    /// Runs one detection round (one [`sense_segment`] round at `tPEW`,
    /// then an erase). **Destructive** to segment contents, like all
    /// Flashmark sensing.
    ///
    /// # Errors
    ///
    /// Flash errors.
    pub fn classify<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
    ) -> Result<StressReport, CoreError> {
        let bits = sense_segment(flash, seg, self.t_pew, self.reads)?;
        // Restore a defined state.
        flash.erase_segment(seg)?;
        Ok(StressReport::classify(&bits, self.threshold, self.t_pew))
    }
}

/// The FFD/timing-style *partial-program* recycled detector (paper related
/// work \[6\]/\[7\]): erase the segment, apply one aborted program pulse, and
/// count how many cells already read programmed — worn cells program
/// faster, so a stressed segment shows markedly more early-programmers.
///
/// Implemented as a baseline for comparison with the partial-erase
/// [`StressDetector`]; it requires the part to support aborting a program
/// (the [`PartialProgram`](flashmark_nor::interface::PartialProgram)
/// capability trait).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramTimeDetector {
    t_pp: Micros,
    reads: usize,
    threshold: f64,
}

impl ProgramTimeDetector {
    /// A reasonable default: a pulse of half the nominal program time.
    #[must_use]
    pub fn default_for_msp430() -> Self {
        Self {
            t_pp: Micros::new(13.0),
            reads: 3,
            threshold: 0.3,
        }
    }

    /// Runs one detection round (erase → partial program → analyze →
    /// erase). Destructive to segment contents.
    ///
    /// # Errors
    ///
    /// Flash errors.
    pub fn classify<F: FlashInterface + flashmark_nor::interface::PartialProgram>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
    ) -> Result<StressReport, CoreError> {
        flash.erase_segment(seg)?;
        flash.partial_program(seg, self.t_pp)?;
        let bits = analyze_segment(flash, seg, self.reads)?;
        flash.erase_segment(seg)?;
        Ok(StressReport::classify(&bits, self.threshold, self.t_pp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::{BulkStress, ImprintTiming};
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings};
    use flashmark_physics::PhysicsParams;

    fn flash(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(4),
            FlashTimings::msp430(),
            seed,
        )
    }

    #[test]
    fn rejects_bad_parameters() {
        for t in [0.0, -23.0, f64::NAN, f64::INFINITY] {
            assert!(StressDetector::new(Micros::new(t), 3, 0.5).is_err(), "{t}");
        }
        assert!(StressDetector::new(Micros::new(23.0), 2, 0.5).is_err());
        assert!(StressDetector::new(Micros::new(23.0), 3, 0.0).is_err());
        assert!(StressDetector::new(Micros::new(23.0), 3, 1.0).is_err());
    }

    #[test]
    fn fresh_segment_classified_fresh() {
        let mut f = flash(70);
        let r = StressDetector::fig5()
            .classify(&mut f, SegmentAddr::new(0))
            .unwrap();
        assert_eq!(r.verdict, SegmentCondition::Fresh);
        assert!(
            r.programmed_fraction() < 0.35,
            "fraction {}",
            r.programmed_fraction()
        );
    }

    #[test]
    fn worn_segment_classified_stressed() {
        let mut f = flash(71);
        let seg = SegmentAddr::new(1);
        f.bulk_imprint(seg, &vec![0u16; 256], 50_000, ImprintTiming::Baseline)
            .unwrap();
        let r = StressDetector::fig5().classify(&mut f, seg).unwrap();
        assert_eq!(r.verdict, SegmentCondition::Stressed);
        assert!(
            r.programmed_fraction() > 0.8,
            "fraction {}",
            r.programmed_fraction()
        );
    }

    #[test]
    fn fig5_separation_matches_paper_scale() {
        // Paper: 3833 of 4096 bits distinguish 0 K from 50 K at 23 µs.
        // We require >85 % separation with the same setup.
        let mut f = flash(73);
        let worn = SegmentAddr::new(1);
        f.bulk_imprint(worn, &vec![0u16; 256], 50_000, ImprintTiming::Baseline)
            .unwrap();
        let det = StressDetector::fig5();
        let fresh = det.classify(&mut f, SegmentAddr::new(0)).unwrap();
        let stressed = det.classify(&mut f, worn).unwrap();
        let distinguishable = (stressed.programmed as i64
            + (fresh.total - fresh.programmed) as i64)
            - fresh.total as i64;
        assert!(
            distinguishable > (0.85 * fresh.total as f64) as i64,
            "only {distinguishable} of {} distinguishable",
            fresh.total
        );
    }

    #[test]
    fn program_time_detector_separates_fresh_from_worn() {
        let mut f = flash(74);
        let worn = SegmentAddr::new(1);
        f.bulk_imprint(worn, &vec![0u16; 256], 50_000, ImprintTiming::Baseline)
            .unwrap();
        let det = ProgramTimeDetector::default_for_msp430();
        let fresh_report = det.classify(&mut f, SegmentAddr::new(0)).unwrap();
        let worn_report = det.classify(&mut f, worn).unwrap();
        assert!(
            worn_report.programmed > fresh_report.programmed + 500,
            "worn {} vs fresh {} early-programmed cells",
            worn_report.programmed,
            fresh_report.programmed
        );
        assert_eq!(fresh_report.verdict, SegmentCondition::Fresh);
        assert_eq!(worn_report.verdict, SegmentCondition::Stressed);
    }

    #[test]
    fn detection_leaves_segment_erased() {
        let mut f = flash(73);
        let seg = SegmentAddr::new(2);
        StressDetector::fig5().classify(&mut f, seg).unwrap();
        assert!(f.array_mut().ideal_bits(seg).iter().all(|&b| b));
    }
}
