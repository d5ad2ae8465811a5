//! Extraction-window (`tPEW`) selection from characterization curves
//! (paper Fig. 5).
//!
//! The manufacturer characterizes a fresh and a stressed segment of the
//! device family, then publishes the partial-erase time window in which the
//! two populations are most distinguishable. [`select_t_pew`] reproduces
//! that choice: it maximizes the number of cells whose state separates the
//! two curves, and reports the usable window around the optimum.

use flashmark_physics::Micros;

use crate::characterize::CharacterizationCurve;
use crate::error::CoreError;

/// The selected extraction window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowChoice {
    /// Recommended partial-erase time for extraction.
    pub t_pew: Micros,
    /// Cells distinguishable at `t_pew` (lower bound; Fig. 5 reports
    /// 3833/4096 for 0 K vs 50 K at 23 µs).
    pub distinguishable: usize,
    /// Total cells compared.
    pub total: usize,
    /// Earliest time with at least `min_fraction` distinguishability.
    pub window_lo: Micros,
    /// Latest such time.
    pub window_hi: Micros,
}

impl WindowChoice {
    /// Distinguishable fraction at the optimum.
    #[must_use]
    pub fn separation(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.distinguishable as f64 / self.total as f64
    }
}

/// Picks the extraction time separating a fresh from a stressed segment.
///
/// For each sweep time `t`, a fresh cell should already read erased while a
/// stressed cell should still read programmed; the count of cells in the
/// right state on *both* curves, `fresh.cells_1(t) + stressed.cells_0(t) −
/// total`, lower-bounds the distinguishable cells. The reported window is
/// where distinguishability stays within `window_slack` cells of the
/// optimum.
///
/// # Errors
///
/// [`CoreError::Config`] if the curves are empty or cover different cell
/// counts.
pub fn select_t_pew(
    fresh: &CharacterizationCurve,
    stressed: &CharacterizationCurve,
    window_slack: usize,
) -> Result<WindowChoice, CoreError> {
    let total = fresh.total_cells();
    if total == 0 || fresh.points.is_empty() || stressed.points.is_empty() {
        return Err(CoreError::Config(
            "characterization curves must be non-empty",
        ));
    }
    if stressed.total_cells() != total {
        return Err(CoreError::Config("curves cover different cell counts"));
    }

    let score_at = |t: Micros| -> i64 {
        let fresh_erased = total as f64 - fresh.cells_0_at(t);
        let stressed_programmed = stressed.cells_0_at(t);
        (fresh_erased + stressed_programmed) as i64 - total as i64
    };

    let mut best_t = fresh.points[0].t_pe;
    let mut best = i64::MIN;
    for p in &fresh.points {
        let s = score_at(p.t_pe);
        if s > best {
            best = s;
            best_t = p.t_pe;
        }
    }
    let distinguishable = best.max(0) as usize;

    let threshold = best - window_slack as i64;
    let mut lo = best_t;
    let mut hi = best_t;
    for p in &fresh.points {
        if score_at(p.t_pe) >= threshold {
            lo = lo.min(p.t_pe);
            hi = hi.max(p.t_pe);
        }
    }

    Ok(WindowChoice {
        t_pew: best_t,
        distinguishable,
        total,
        window_lo: lo,
        window_hi: hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_segment, SweepSpec};
    use flashmark_nor::interface::{BulkStress, ImprintTiming};
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
    use flashmark_physics::PhysicsParams;

    fn synthetic(points: &[(f64, usize)], total: usize) -> CharacterizationCurve {
        CharacterizationCurve {
            points: points
                .iter()
                .map(|&(t, c0)| crate::characterize::CharacterizationPoint {
                    t_pe: Micros::new(t),
                    cells_0: c0,
                    cells_1: total - c0,
                })
                .collect(),
            reads: 1,
        }
    }

    #[test]
    fn picks_the_separating_time() {
        let total = 100;
        // Fresh flips around t=10; stressed around t=40.
        let fresh = synthetic(
            &[(0.0, 100), (10.0, 50), (20.0, 0), (30.0, 0), (40.0, 0)],
            total,
        );
        let stressed = synthetic(
            &[(0.0, 100), (10.0, 100), (20.0, 95), (30.0, 60), (40.0, 10)],
            total,
        );
        let w = select_t_pew(&fresh, &stressed, 5).unwrap();
        assert_eq!(w.t_pew, Micros::new(20.0));
        assert_eq!(w.distinguishable, 95);
        assert!((w.separation() - 0.95).abs() < 1e-12);
        assert!(w.window_lo <= w.t_pew && w.t_pew <= w.window_hi);
    }

    #[test]
    fn rejects_mismatched_curves() {
        let a = synthetic(&[(0.0, 10)], 10);
        let b = synthetic(&[(0.0, 20)], 20);
        assert!(select_t_pew(&a, &b, 0).is_err());
    }

    #[test]
    fn end_to_end_window_matches_paper_scale() {
        // Fresh vs 50 K: the paper separates 3833/4096 (93.6 %) at 23 µs.
        // Our model should separate >85 % somewhere in the 20-45 µs range.
        let mut f = FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(4),
            FlashTimings::msp430(),
            0xF1C5,
        );
        let worn = SegmentAddr::new(1);
        f.bulk_imprint(worn, &vec![0u16; 256], 50_000, ImprintTiming::Baseline)
            .unwrap();
        let sweep = SweepSpec::new(Micros::new(10.0), Micros::new(60.0), Micros::new(2.5)).unwrap();
        let fresh = characterize_segment(&mut f, SegmentAddr::new(0), &sweep, 3).unwrap();
        let stressed = characterize_segment(&mut f, worn, &sweep, 3).unwrap();
        let w = select_t_pew(&fresh, &stressed, 200).unwrap();
        assert!(w.separation() > 0.85, "separation {}", w.separation());
        assert!(
            (15.0..=50.0).contains(&w.t_pew.get()),
            "t_pew {} outside expected window",
            w.t_pew
        );
        assert!(w.window_lo <= w.t_pew && w.t_pew <= w.window_hi);
    }
}
