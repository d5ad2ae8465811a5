//! Characterization of flash-cell physical properties through the digital
//! interface (paper Fig. 3 / Fig. 4).
//!
//! [`analyze_segment`] is the paper's `AnalyzeSegment`: read every word N
//! times (N odd) and majority-vote each bit. [`sense_segment`] is the
//! sensing round every Flashmark procedure shares: erase → program-all →
//! partial erase → analyze. [`characterize_segment`] is
//! `CharacterizeSegment`: one sensing round per partial-erase time of a
//! sweep, recording how many cells read programmed vs erased.

use flashmark_ecc::MajorityVote;
use flashmark_nor::interface::{FlashInterface, FlashInterfaceExt};
use flashmark_nor::SegmentAddr;
use flashmark_obs as obs;
use flashmark_obs::ObsEvent;
use flashmark_physics::Micros;

use crate::error::CoreError;

/// A partial-erase time sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// First partial-erase time.
    pub start: Micros,
    /// Last partial-erase time (inclusive).
    pub end: Micros,
    /// Step between points.
    pub step: Micros,
}

impl SweepSpec {
    /// A new sweep.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if the bounds are inverted or the step is not
    /// positive.
    pub fn new(start: Micros, end: Micros, step: Micros) -> Result<Self, CoreError> {
        if !step.is_finite() || step.get() <= 0.0 {
            return Err(CoreError::Config("sweep step must be positive"));
        }
        if start.get() < 0.0 || end.get() < start.get() {
            return Err(CoreError::Config("sweep bounds are inverted or negative"));
        }
        Ok(Self { start, end, step })
    }

    /// The sweep the paper's Fig. 4 plots: 0–120 µs in 3 µs steps.
    #[must_use]
    pub fn fig4() -> Self {
        Self {
            start: Micros::new(0.0),
            end: Micros::new(120.0),
            step: Micros::new(3.0),
        }
    }

    /// The partial-erase times of this sweep.
    #[must_use]
    pub fn times(&self) -> Vec<Micros> {
        let mut out = Vec::new();
        let mut t = self.start.get();
        // Tolerate float drift on the inclusive upper bound.
        while t <= self.end.get() + 1e-9 {
            out.push(Micros::new(t));
            t += self.step.get();
        }
        out
    }
}

/// One point of a characterization curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationPoint {
    /// Partial-erase time of this round.
    pub t_pe: Micros,
    /// Cells reading programmed (logic 0) after the partial erase.
    pub cells_0: usize,
    /// Cells reading erased (logic 1).
    pub cells_1: usize,
}

/// The `cells_0`/`cells_1` vs `tPE` curve of one segment (one line of the
/// paper's Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationCurve {
    /// Sweep points in ascending `tPE` order.
    pub points: Vec<CharacterizationPoint>,
    /// Reads per word used by the majority analysis.
    pub reads: usize,
}

impl CharacterizationCurve {
    /// Cells in the segment (taken from the first point).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.points.first().map_or(0, |p| p.cells_0 + p.cells_1)
    }

    /// First sweep time at which **no** cell still reads programmed — the
    /// "all cells erased" time the paper reports per stress level.
    #[must_use]
    pub fn all_erased_time(&self) -> Option<Micros> {
        self.points.iter().find(|p| p.cells_0 == 0).map(|p| p.t_pe)
    }

    /// Last sweep time at which **every** cell still reads programmed — the
    /// erase onset (≈18 µs for the paper's fresh segments).
    #[must_use]
    pub fn onset_time(&self) -> Option<Micros> {
        self.points
            .iter()
            .take_while(|p| p.cells_1 == 0)
            .last()
            .map(|p| p.t_pe)
    }

    /// Interpolated count of programmed cells at an arbitrary time.
    #[must_use]
    pub fn cells_0_at(&self, t: Micros) -> f64 {
        let pts = &self.points;
        if pts.is_empty() {
            return 0.0;
        }
        if t.get() <= pts[0].t_pe.get() {
            return pts[0].cells_0 as f64;
        }
        for pair in pts.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if t.get() >= a.t_pe.get() && t.get() <= b.t_pe.get() {
                let f = (t.get() - a.t_pe.get()) / (b.t_pe.get() - a.t_pe.get()).max(1e-12);
                return a.cells_0 as f64 + f * (b.cells_0 as f64 - a.cells_0 as f64);
            }
        }
        pts.last().map_or(0.0, |p| p.cells_0 as f64)
    }
}

/// Reads every bit of a segment `reads` times and majority-votes each —
/// the paper's `AnalyzeSegment` (Fig. 3). Returns one bit per cell,
/// `true` = erased (logic 1).
///
/// # Errors
///
/// Flash errors, or [`CoreError::Config`] for an even/zero read count.
pub fn analyze_segment<F: FlashInterface>(
    flash: &mut F,
    seg: SegmentAddr,
    reads: usize,
) -> Result<Vec<bool>, CoreError> {
    if reads == 0 || reads.is_multiple_of(2) {
        return Err(CoreError::Config("read count must be odd"));
    }
    let mut votes = vec![MajorityVote::new(); flash.geometry().cells_per_segment()];
    for _ in 0..reads {
        // Batched segment read: bit-identical to a word-by-word loop, but
        // implementations may run the physics sweep in one pass.
        let words = flash.read_block(seg)?;
        for (w, v) in words.into_iter().enumerate() {
            for bit in 0..16 {
                votes[w * 16 + bit].push(v & (1 << bit) != 0);
            }
        }
    }
    Ok(votes.iter().map(MajorityVote::winner).collect())
}

/// One sensing round, the primitive `CharacterizeSegment` (Fig. 3), the
/// fresh/stressed detector (Fig. 5) and `ExtractFlashmark` (Fig. 8) share:
/// erase the segment, program every cell to 0, abort an erase after
/// `t_pe` (no erase at all when `t_pe` is not positive), then
/// [`analyze_segment`]. Fresh cells have crossed back to 1 by then while
/// worn cells still read 0. **Destructive** to segment contents.
///
/// # Errors
///
/// Flash errors, or [`CoreError::Config`] for an even/zero read count.
pub fn sense_segment<F: FlashInterface>(
    flash: &mut F,
    seg: SegmentAddr,
    t_pe: Micros,
    reads: usize,
) -> Result<Vec<bool>, CoreError> {
    flash.erase_segment(seg)?;
    flash.program_all_zero(seg)?;
    if t_pe.get() > 0.0 {
        flash.partial_erase(seg, t_pe)?;
    }
    analyze_segment(flash, seg, reads)
}

/// The paper's `CharacterizeSegment` (Fig. 3): one [`sense_segment`]
/// round for each `tPE` of the sweep.
///
/// # Errors
///
/// Flash errors or invalid sweep/read parameters.
pub fn characterize_segment<F: FlashInterface>(
    flash: &mut F,
    seg: SegmentAddr,
    sweep: &SweepSpec,
    reads: usize,
) -> Result<CharacterizationCurve, CoreError> {
    let _span = obs::span("characterize");
    let times = sweep.times();
    obs::emit(ObsEvent::SweepWidth {
        width_us: sweep.end.get() - sweep.start.get(),
        points: times.len() as u32,
    });
    let mut points = Vec::new();
    for t_pe in times {
        let bits = sense_segment(flash, seg, t_pe, reads)?;
        let cells_1 = bits.iter().filter(|&&b| b).count();
        points.push(CharacterizationPoint {
            t_pe,
            cells_0: bits.len() - cells_1,
            cells_1,
        });
    }
    // Leave the segment erased, not mid-transition.
    flash.erase_segment(seg)?;
    Ok(CharacterizationCurve { points, reads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::BulkStress;
    use flashmark_nor::interface::ImprintTiming;
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings};
    use flashmark_physics::PhysicsParams;

    fn flash() -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            0xCAFE,
        )
    }

    #[test]
    fn sweep_times_inclusive() {
        let s = SweepSpec::new(Micros::new(0.0), Micros::new(10.0), Micros::new(5.0)).unwrap();
        assert_eq!(
            s.times(),
            vec![Micros::new(0.0), Micros::new(5.0), Micros::new(10.0)]
        );
    }

    #[test]
    fn sweep_rejects_bad_bounds() {
        assert!(SweepSpec::new(Micros::new(5.0), Micros::new(1.0), Micros::new(1.0)).is_err());
        assert!(SweepSpec::new(Micros::new(0.0), Micros::new(1.0), Micros::new(0.0)).is_err());
    }

    #[test]
    fn analyze_requires_odd_reads() {
        let mut f = flash();
        assert!(analyze_segment(&mut f, SegmentAddr::new(0), 2).is_err());
        assert!(analyze_segment(&mut f, SegmentAddr::new(0), 0).is_err());
    }

    #[test]
    fn analyze_fresh_segment_reads_ones() {
        let mut f = flash();
        let bits = analyze_segment(&mut f, SegmentAddr::new(0), 3).unwrap();
        assert_eq!(bits.len(), 4096);
        assert!(bits.iter().all(|&b| b));
    }

    #[test]
    fn fresh_curve_transitions_in_paper_window() {
        let mut f = flash();
        let sweep = SweepSpec::new(Micros::new(0.0), Micros::new(60.0), Micros::new(4.0)).unwrap();
        let curve = characterize_segment(&mut f, SegmentAddr::new(1), &sweep, 3).unwrap();
        assert_eq!(curve.total_cells(), 4096);
        // At t=0 everything reads programmed.
        assert_eq!(curve.points[0].cells_0, 4096);
        // Fresh segments finish erasing by ~35-45 µs.
        let done = curve
            .all_erased_time()
            .expect("sweep must reach completion");
        assert!((20.0..=48.0).contains(&done.get()), "all-erased at {done}");
        // Onset: nothing flips below ~12 µs.
        let onset = curve.onset_time().expect("onset visible");
        assert!(onset.get() >= 8.0, "onset at {onset}");
    }

    #[test]
    fn stressed_curve_takes_longer() {
        let mut f = flash();
        let seg_fresh = SegmentAddr::new(2);
        let seg_worn = SegmentAddr::new(3);
        f.bulk_imprint(seg_worn, &vec![0u16; 256], 20_000, ImprintTiming::Baseline)
            .unwrap();
        let sweep = SweepSpec::new(Micros::new(0.0), Micros::new(150.0), Micros::new(5.0)).unwrap();
        let fresh = characterize_segment(&mut f, seg_fresh, &sweep, 3).unwrap();
        let worn = characterize_segment(&mut f, seg_worn, &sweep, 3).unwrap();
        let t_fresh = fresh.all_erased_time().unwrap();
        let t_worn = worn.all_erased_time().unwrap();
        assert!(
            t_worn.get() > t_fresh.get() * 1.8,
            "worn {t_worn} vs fresh {t_fresh}"
        );
    }

    #[test]
    fn cells_0_interpolation() {
        let curve = CharacterizationCurve {
            points: vec![
                CharacterizationPoint {
                    t_pe: Micros::new(0.0),
                    cells_0: 100,
                    cells_1: 0,
                },
                CharacterizationPoint {
                    t_pe: Micros::new(5.0),
                    cells_0: 50,
                    cells_1: 50,
                },
                CharacterizationPoint {
                    t_pe: Micros::new(10.0),
                    cells_0: 0,
                    cells_1: 100,
                },
            ],
            reads: 1,
        };
        assert!((curve.cells_0_at(Micros::new(2.5)) - 75.0).abs() < 1e-12);
        assert!((curve.cells_0_at(Micros::new(-1.0)) - 100.0).abs() < 1e-12);
        assert!(curve.cells_0_at(Micros::new(99.0)).abs() < 1e-12);
    }
}
