//! Multi-segment watermarks.
//!
//! The paper (Section V): "As watermarks require modest memory footprint,
//! watermark data can be imprinted at multiple locations." This module
//! imprints the same watermark into several segments and fuses the
//! extractions — combining *within-segment* replication with
//! *across-segment* redundancy, which also defends against localized damage
//! (an attacker grinding one segment, a bad block, etc.).

use flashmark_ecc::MajorityVote;
use flashmark_nor::interface::{BulkStress, FlashInterface};
use flashmark_nor::SegmentAddr;

use crate::config::FlashmarkConfig;
use crate::error::CoreError;
use crate::extract::{Extraction, Extractor};
use crate::imprint::{ImprintReport, Imprinter};
use crate::watermark::Watermark;

/// Result of a multi-segment extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiExtraction {
    /// Per-segment extractions, in the order given.
    pub per_segment: Vec<Extraction>,
    votes: Vec<MajorityVote>,
}

impl MultiExtraction {
    /// Bits after majority voting across *all* replicas of *all* segments.
    #[must_use]
    pub fn bits(&self) -> Vec<bool> {
        self.votes.iter().map(MajorityVote::winner).collect()
    }

    /// Per-bit vote tallies pooled across segments.
    #[must_use]
    pub fn votes(&self) -> &[MajorityVote] {
        &self.votes
    }

    /// The fused result as a watermark.
    ///
    /// # Errors
    ///
    /// [`CoreError::Watermark`] if empty (cannot happen via
    /// [`MultiSegment::extract`]).
    pub fn to_watermark(&self) -> Result<Watermark, CoreError> {
        Watermark::from_bits(self.bits())
    }

    /// Segments whose individual majority decode disagrees with the fused
    /// result in at least `min_bits` positions — damage/tamper localization.
    #[must_use]
    pub fn outlier_segments(&self, min_bits: usize) -> Vec<usize> {
        let fused = self.bits();
        self.per_segment
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.bits().iter().zip(&fused).filter(|(a, b)| a != b).count() >= min_bits
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Imprints/extracts one watermark across several segments.
#[derive(Debug, Clone)]
pub struct MultiSegment<'a> {
    config: &'a FlashmarkConfig,
    segments: Vec<SegmentAddr>,
}

impl<'a> MultiSegment<'a> {
    /// Creates a multi-segment scheme over `segments`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if `segments` is empty or has duplicates.
    pub fn new(config: &'a FlashmarkConfig, segments: Vec<SegmentAddr>) -> Result<Self, CoreError> {
        if segments.is_empty() {
            return Err(CoreError::Config(
                "multi-segment scheme needs at least one segment",
            ));
        }
        let mut sorted = segments.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != segments.len() {
            return Err(CoreError::Config(
                "multi-segment scheme has duplicate segments",
            ));
        }
        Ok(Self { config, segments })
    }

    /// The segments in use.
    #[must_use]
    pub fn segments(&self) -> &[SegmentAddr] {
        &self.segments
    }

    /// Imprints the watermark into every segment (fast path).
    ///
    /// # Errors
    ///
    /// Layout or flash errors.
    pub fn imprint<F: BulkStress>(
        &self,
        flash: &mut F,
        wm: &Watermark,
    ) -> Result<Vec<ImprintReport>, CoreError> {
        let imprinter = Imprinter::new(self.config);
        self.segments
            .iter()
            .map(|&seg| imprinter.imprint(flash, seg, wm))
            .collect()
    }

    /// Extracts from every segment and fuses the votes.
    ///
    /// # Errors
    ///
    /// Layout or flash errors.
    pub fn extract<F: FlashInterface>(
        &self,
        flash: &mut F,
        data_len: usize,
    ) -> Result<MultiExtraction, CoreError> {
        let extractor = Extractor::new(self.config);
        let mut per_segment = Vec::with_capacity(self.segments.len());
        let mut votes = vec![MajorityVote::new(); data_len];
        for &seg in &self.segments {
            let e = extractor.extract(flash, seg, data_len)?;
            for (i, v) in e.votes().iter().enumerate() {
                votes[i].push(v.winner());
            }
            per_segment.push(e);
        }
        Ok(MultiExtraction { per_segment, votes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::ImprintTiming;
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings};
    use flashmark_physics::{Micros, PhysicsParams};

    fn flash(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            seed,
        )
    }

    fn config() -> FlashmarkConfig {
        FlashmarkConfig::builder()
            .n_pe(70_000)
            .replicas(5)
            .t_pew(Micros::new(28.0))
            .build()
            .unwrap()
    }

    fn segs() -> Vec<SegmentAddr> {
        vec![
            SegmentAddr::new(1),
            SegmentAddr::new(3),
            SegmentAddr::new(5),
        ]
    }

    #[test]
    fn rejects_empty_or_duplicate_segments() {
        let cfg = config();
        assert!(MultiSegment::new(&cfg, vec![]).is_err());
        assert!(MultiSegment::new(&cfg, vec![SegmentAddr::new(1), SegmentAddr::new(1)]).is_err());
    }

    #[test]
    fn multi_segment_roundtrip() {
        let cfg = config();
        let ms = MultiSegment::new(&cfg, segs()).unwrap();
        let mut f = flash(0x3317);
        let wm = Watermark::from_ascii("MULTI").unwrap();
        let reports = ms.imprint(&mut f, &wm).unwrap();
        assert_eq!(reports.len(), 3);
        let e = ms.extract(&mut f, wm.len()).unwrap();
        assert_eq!(e.bits(), wm.bits());
        assert!(
            e.votes().iter().all(|v| v.total() == 3),
            "one vote per segment"
        );
    }

    #[test]
    fn survives_destruction_of_one_segment() {
        let cfg = config();
        let ms = MultiSegment::new(&cfg, segs()).unwrap();
        let mut f = flash(0x3318);
        let wm = Watermark::from_ascii("SURVIVE").unwrap();
        ms.imprint(&mut f, &wm).unwrap();

        // Attacker obliterates one copy by stressing the whole segment.
        let words = f.geometry().words_per_segment();
        f.bulk_imprint(
            SegmentAddr::new(3),
            &vec![0u16; words],
            60_000,
            ImprintTiming::Accelerated,
        )
        .unwrap();
        f.erase_segment(SegmentAddr::new(3)).unwrap();

        let e = ms.extract(&mut f, wm.len()).unwrap();
        assert_eq!(e.bits(), wm.bits(), "2-of-3 segments still carry the day");
        let outliers = e.outlier_segments(8);
        assert_eq!(outliers, vec![1], "the destroyed copy is localized");
    }

    #[test]
    fn imprint_leaves_every_segment_programmed() {
        let cfg = config();
        let ms = MultiSegment::new(&cfg, segs()).unwrap();
        let mut f = flash(0x3319);
        let wm = Watermark::from_ascii("X").unwrap();
        ms.imprint(&mut f, &wm).unwrap();
        for &seg in ms.segments() {
            let words = f.read_block(seg).unwrap();
            assert!(
                words.iter().any(|&w| w != 0xFFFF),
                "segment {seg} untouched"
            );
        }
    }
}
