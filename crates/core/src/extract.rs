//! Watermark extraction (paper Fig. 8): partial erase + majority analysis.
//!
//! `ExtractFlashmark(SegAddr, tPEW)`:
//!
//! ```text
//! erase the entire segment       (all cells read 1)
//! program the entire segment     (all cells read 0)
//! initiate the segment erase; wait tPEW; abort
//! read all flash cells
//! ```
//!
//! After the aborted erase, fresh ("good") cells have already crossed back
//! to 1 while worn ("bad") cells still read 0 — the wear-encoded watermark
//! becomes digitally readable. [`Extractor::extract`] runs this as one
//! [`sense_segment`] round at `tPEW`; [`Extraction`] additionally
//! majority-votes across the configured replicas and exposes soft per-bit
//! information.

use flashmark_ecc::{MajorityVote, Repetition};
use flashmark_nor::interface::FlashInterface;
use flashmark_nor::SegmentAddr;
use flashmark_obs as obs;
use flashmark_physics::{Micros, Seconds};

use crate::characterize::sense_segment;
use crate::config::FlashmarkConfig;
use crate::error::CoreError;
use crate::layout::SegmentLayout;
use crate::metrics::ExtractionErrors;
use crate::watermark::Watermark;

/// The result of one watermark extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    votes: Vec<MajorityVote>,
    channel: Vec<bool>,
    replicas: usize,
    t_pew: Micros,
    elapsed: Seconds,
}

impl Extraction {
    /// The recovered data bits (per-bit majority across replicas).
    #[must_use]
    pub fn bits(&self) -> Vec<bool> {
        self.votes.iter().map(MajorityVote::winner).collect()
    }

    /// The recovered bits as a [`Watermark`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Watermark`] if the extraction was empty (cannot happen
    /// through [`Extractor::extract`]).
    pub fn to_watermark(&self) -> Result<Watermark, CoreError> {
        Watermark::from_bits(self.bits())
    }

    /// Per-data-bit vote tallies across replicas (soft information).
    #[must_use]
    pub fn votes(&self) -> &[MajorityVote] {
        &self.votes
    }

    /// The raw (de-interleaved) channel bits, replica-major.
    #[must_use]
    pub fn channel(&self) -> &[bool] {
        &self.channel
    }

    /// One replica's extracted bits.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn replica(&self, r: usize) -> &[bool] {
        assert!(r < self.replicas, "replica index out of range");
        Repetition::new(self.replicas).map_or(&[], |code| code.replica(&self.channel, r))
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The partial-erase time used.
    #[must_use]
    pub fn t_pew(&self) -> Micros {
        self.t_pew
    }

    /// Simulated wall time the extraction took.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Fraction of data bits decoded unanimously across replicas.
    #[must_use]
    pub fn unanimous_fraction(&self) -> f64 {
        if self.votes.is_empty() {
            return 0.0;
        }
        let u = self.votes.iter().filter(|v| v.is_unanimous()).count();
        u as f64 / self.votes.len() as f64
    }

    /// Bit error rate of the majority-decoded data against a reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference length differs.
    #[must_use]
    pub fn ber_against(&self, reference: &Watermark) -> f64 {
        flashmark_ecc::bits::bit_error_rate(&self.bits(), reference.bits())
    }

    /// Error breakdown of a single replica against a reference.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `r` is out of range.
    #[must_use]
    pub fn replica_errors(&self, r: usize, reference: &Watermark) -> ExtractionErrors {
        ExtractionErrors::compare(reference.bits(), self.replica(r))
    }
}

impl Extraction {
    /// Builds an extraction from raw parts — test support for decoder-layer
    /// code that needs vote sets without driving a simulator.
    #[cfg(test)]
    pub(crate) fn for_tests(votes: Vec<MajorityVote>, channel: Vec<bool>, replicas: usize) -> Self {
        Self {
            votes,
            channel,
            replicas,
            t_pew: Micros::new(30.0),
            elapsed: Seconds::new(0.0),
        }
    }

    /// An empty placeholder extraction for reports whose extraction never
    /// completed (e.g. an inconclusive verification after persistent
    /// transient faults). Carries no votes and no channel bits.
    pub(crate) fn unavailable(t_pew: Micros) -> Self {
        Self {
            votes: Vec::new(),
            channel: Vec::new(),
            replicas: 0,
            t_pew,
            elapsed: Seconds::new(0.0),
        }
    }
}

/// Extracts watermarks from segments according to a [`FlashmarkConfig`].
#[derive(Debug, Clone, Copy)]
pub struct Extractor<'a> {
    config: &'a FlashmarkConfig,
}

impl<'a> Extractor<'a> {
    /// Creates an extractor.
    #[must_use]
    pub fn new(config: &'a FlashmarkConfig) -> Self {
        Self { config }
    }

    /// Runs `ExtractFlashmark` on `seg` for a watermark of `data_len` bits.
    ///
    /// The data length (like the replica count and `tPEW`) is part of the
    /// publicly communicated extraction recipe — extraction never needs the
    /// watermark *content*.
    ///
    /// # Errors
    ///
    /// Layout or flash errors.
    pub fn extract<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
        data_len: usize,
    ) -> Result<Extraction, CoreError> {
        let _span = obs::span("extract");
        let layout = SegmentLayout::new(data_len, self.config.replicas())?;
        layout.check_fits(flash.geometry())?;

        let start = flash.elapsed();
        let segment_bits = sense_segment(flash, seg, self.config.t_pew(), self.config.reads())?;
        let elapsed = flash.elapsed() - start;

        let channel = layout.slice_channel(&segment_bits)?;
        let votes = layout.repetition()?.decode_soft(&channel)?;
        Ok(Extraction {
            votes,
            channel,
            replicas: self.config.replicas(),
            t_pew: self.config.t_pew(),
            elapsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imprint::Imprinter;
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings};
    use flashmark_physics::PhysicsParams;

    fn flash(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            seed,
        )
    }

    fn cfg(n_pe: u64, replicas: usize) -> FlashmarkConfig {
        FlashmarkConfig::builder()
            .n_pe(n_pe)
            .replicas(replicas)
            .t_pew(flashmark_physics::Micros::new(28.0))
            .build()
            .unwrap()
    }

    #[test]
    fn heavy_imprint_recovers_exactly() {
        let mut f = flash(41);
        let config = cfg(80_000, 7);
        let wm = Watermark::from_ascii("TC:OK").unwrap();
        let seg = SegmentAddr::new(0);
        Imprinter::new(&config).imprint(&mut f, seg, &wm).unwrap();
        let e = Extractor::new(&config)
            .extract(&mut f, seg, wm.len())
            .unwrap();
        assert_eq!(
            e.bits(),
            wm.bits(),
            "80K/7-replica extraction must be clean"
        );
        assert!(e.unanimous_fraction() > 0.7);
    }

    #[test]
    fn no_imprint_reads_mostly_ones() {
        let mut f = flash(43);
        let config = cfg(60_000, 3);
        let e = Extractor::new(&config)
            .extract(&mut f, SegmentAddr::new(1), 32)
            .unwrap();
        let ones = e.bits().iter().filter(|&&b| b).count();
        assert!(
            ones >= 28,
            "fresh segment must extract as (almost) all 1s, got {ones}/32"
        );
    }

    #[test]
    fn extraction_is_nondestructive_to_the_watermark() {
        // The watermark lives in wear; extracting twice gives the same bits.
        let mut f = flash(45);
        let config = cfg(80_000, 5);
        let wm = Watermark::from_ascii("AGAIN").unwrap();
        let seg = SegmentAddr::new(2);
        Imprinter::new(&config).imprint(&mut f, seg, &wm).unwrap();
        let e1 = Extractor::new(&config)
            .extract(&mut f, seg, wm.len())
            .unwrap();
        let e2 = Extractor::new(&config)
            .extract(&mut f, seg, wm.len())
            .unwrap();
        assert_eq!(e1.bits(), e2.bits());
    }

    #[test]
    fn replica_views_and_votes() {
        let mut f = flash(45);
        let config = cfg(70_000, 3);
        let wm = Watermark::from_ascii("R").unwrap();
        let seg = SegmentAddr::new(3);
        Imprinter::new(&config).imprint(&mut f, seg, &wm).unwrap();
        let e = Extractor::new(&config)
            .extract(&mut f, seg, wm.len())
            .unwrap();
        assert_eq!(e.replicas(), 3);
        assert_eq!(e.replica(0).len(), 8);
        assert_eq!(e.votes().len(), 8);
        assert!(e.votes().iter().all(|v| v.total() == 3));
    }

    #[test]
    fn extraction_times_are_sub_second() {
        let mut f = flash(46);
        let config = cfg(60_000, 7);
        let wm = Watermark::from_ascii("TIME").unwrap();
        let seg = SegmentAddr::new(4);
        Imprinter::new(&config).imprint(&mut f, seg, &wm).unwrap();
        let e = Extractor::new(&config)
            .extract(&mut f, seg, wm.len())
            .unwrap();
        // Paper: ~170 ms including host overhead; ours is the on-chip time.
        assert!(e.elapsed().get() < 0.5, "extract took {}", e.elapsed());
        assert!(
            e.elapsed().get() > 0.02,
            "extract too fast: {}",
            e.elapsed()
        );
    }

    #[test]
    fn oversized_extraction_rejected() {
        let mut f = flash(48);
        let config = cfg(60_000, 7);
        assert!(matches!(
            Extractor::new(&config).extract(&mut f, SegmentAddr::new(0), 1000),
            Err(CoreError::TooLarge { .. })
        ));
    }
}
