//! Watermark imprinting (paper Fig. 7): repeated erase/program stress.
//!
//! `ImprintFlashmark(SegAddr, NPE, Watermark)`:
//!
//! ```text
//! for stress = 1 to NPE
//!     erase the entire segment            (all cells read 1)
//!     program each word with the pattern  (0-bits stressed)
//! ```
//!
//! Two schedules are provided, matching the paper's Section V:
//!
//! * **baseline** — a full-length segment erase every cycle (≈34.5 ms per
//!   cycle ⇒ 1380 s at NPE = 40 K);
//! * **accelerated** — each erase exits as soon as the segment reads clean
//!   ("premature exit … without any negative impact on the wear level"),
//!   ≈3.5× faster (387 s at 40 K).
//!
//! [`Imprinter::imprint`] is the closed-form simulator fast path (requires
//! [`BulkStress`]); [`Imprinter::imprint_via_cycles`] is the faithful loop
//! that any [`FlashInterface`] (including real hardware) can run. Tests
//! assert the two leave identical wear. The fast path applies all `NPE`
//! cycles of wear per cell in O(cells) — independent of `NPE` — via the
//! array's batched bulk-stress kernel, which is why the trial engine can
//! afford a fresh per-trial chip for every stress level.

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::SegmentAddr;
use flashmark_obs as obs;
use flashmark_physics::Seconds;

use crate::config::FlashmarkConfig;
use crate::error::CoreError;
use crate::layout::SegmentLayout;
use crate::watermark::Watermark;

/// Result of an imprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ImprintReport {
    /// Stress cycles applied (`NPE`).
    pub cycles: u64,
    /// Simulated wall time the imprint took.
    pub elapsed: Seconds,
    /// Whether the accelerated schedule was used.
    pub accelerated: bool,
}

/// Imprints watermarks into segments according to a [`FlashmarkConfig`].
#[derive(Debug, Clone, Copy)]
pub struct Imprinter<'a> {
    config: &'a FlashmarkConfig,
}

impl<'a> Imprinter<'a> {
    /// Creates an imprinter.
    #[must_use]
    pub fn new(config: &'a FlashmarkConfig) -> Self {
        Self { config }
    }

    fn layout_for(self, wm: &Watermark) -> Result<SegmentLayout, CoreError> {
        SegmentLayout::new(wm.len(), self.config.replicas())
    }

    /// The segment pattern (replicated, laid out) for a watermark on a
    /// given device.
    ///
    /// # Errors
    ///
    /// Layout/size errors.
    pub fn pattern<F: FlashInterface>(
        &self,
        flash: &F,
        wm: &Watermark,
    ) -> Result<Vec<u16>, CoreError> {
        let layout = self.layout_for(wm)?;
        layout.check_fits(flash.geometry())?;
        layout.pattern_words(wm.bits(), flash.geometry())
    }

    /// Imprints using the simulator's closed-form fast path. End state and
    /// wear are identical to [`Imprinter::imprint_via_cycles`]; the
    /// simulated clock advances by what the configured schedule
    /// (baseline/accelerated) would take.
    ///
    /// # Errors
    ///
    /// Layout or flash errors.
    pub fn imprint<F: BulkStress>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
        wm: &Watermark,
    ) -> Result<ImprintReport, CoreError> {
        let _span = obs::span("imprint");
        let pattern = self.pattern(flash, wm)?;
        let timing = if self.config.accelerated() {
            ImprintTiming::Accelerated
        } else {
            ImprintTiming::Baseline
        };
        let elapsed = flash.bulk_imprint(seg, &pattern, self.config.n_pe(), timing)?;
        Ok(ImprintReport {
            cycles: self.config.n_pe(),
            elapsed,
            accelerated: self.config.accelerated(),
        })
    }

    /// Imprints with the faithful cycle-by-cycle loop of Fig. 7 — works on
    /// any [`FlashInterface`] (this is what runs on real hardware). Takes
    /// `NPE × (erase + program)` simulated (and real!) time; use small
    /// `n_pe` in tests.
    ///
    /// # Errors
    ///
    /// Layout or flash errors.
    pub fn imprint_via_cycles<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
        wm: &Watermark,
    ) -> Result<ImprintReport, CoreError> {
        let _span = obs::span("imprint");
        let pattern = self.pattern(flash, wm)?;
        let start = flash.elapsed();
        for _ in 0..self.config.n_pe() {
            if self.config.accelerated() {
                flash.erase_until_clean(seg)?;
            } else {
                flash.erase_segment(seg)?;
            }
            flash.program_block(seg, &pattern)?;
        }
        Ok(ImprintReport {
            cycles: self.config.n_pe(),
            elapsed: flash.elapsed() - start,
            accelerated: self.config.accelerated(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::FlashInterface;
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, WordAddr};
    use flashmark_physics::PhysicsParams;

    fn flash(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            seed,
        )
    }

    fn config(n_pe: u64, accelerated: bool) -> FlashmarkConfig {
        FlashmarkConfig::builder()
            .n_pe(n_pe)
            .replicas(3)
            .accelerated(accelerated)
            .build()
            .unwrap()
    }

    #[test]
    fn imprint_leaves_pattern_visible() {
        let mut f = flash(1);
        let cfg = config(1_000, false);
        let wm = Watermark::from_ascii("TC").unwrap();
        let seg = SegmentAddr::new(0);
        let report = Imprinter::new(&cfg).imprint(&mut f, seg, &wm).unwrap();
        assert_eq!(report.cycles, 1_000);
        // After imprint the segment holds the (replicated) pattern.
        assert_eq!(f.read_word(WordAddr::new(0)).unwrap(), 0x4354);
    }

    #[test]
    fn bulk_and_loop_wear_match() {
        let wm = Watermark::from_ascii("M").unwrap();
        let cfg = config(40, false);
        let seg = SegmentAddr::new(0);

        let mut a = flash(9);
        Imprinter::new(&cfg).imprint(&mut a, seg, &wm).unwrap();
        let bulk = a.wear_stats(seg);

        let mut b = flash(9);
        Imprinter::new(&cfg)
            .imprint_via_cycles(&mut b, seg, &wm)
            .unwrap();
        let looped = b.wear_stats(seg);

        // First loop cycle erases an already-erased segment, so the loop can
        // lag by at most ~one erase weight per cell.
        assert!(
            (bulk.max_cycles - looped.max_cycles).abs() <= 1.0,
            "bulk {bulk:?} vs loop {looped:?}"
        );
        assert!((bulk.mean_cycles - looped.mean_cycles).abs() <= 1.0);
    }

    #[test]
    fn stressed_cells_wear_spared_cells_do_not() {
        let mut f = flash(2);
        let cfg = config(10_000, false);
        // One zero bit, rest ones.
        let wm = Watermark::from_bits(vec![false, true, true, true]).unwrap();
        let seg = SegmentAddr::new(1);
        Imprinter::new(&cfg).imprint(&mut f, seg, &wm).unwrap();
        let stats = f.wear_stats(seg);
        assert!(stats.max_cycles > 9_000.0, "stressed cells near NPE wear");
        assert!(stats.min_cycles < 500.0, "untouched cells stay fresh");
    }

    #[test]
    fn accelerated_schedule_is_faster() {
        let wm = Watermark::from_ascii("SPEED").unwrap();
        let seg = SegmentAddr::new(2);
        let mut slow = flash(3);
        let r_slow = Imprinter::new(&config(5_000, false))
            .imprint(&mut slow, seg, &wm)
            .unwrap();
        let mut fast = flash(3);
        let r_fast = Imprinter::new(&config(5_000, true))
            .imprint(&mut fast, seg, &wm)
            .unwrap();
        assert!(r_fast.elapsed.get() < r_slow.elapsed.get() / 2.5);
        assert!(r_fast.accelerated && !r_slow.accelerated);
    }

    #[test]
    fn loop_accelerated_uses_early_exit() {
        let wm = Watermark::from_ascii("X").unwrap();
        let seg = SegmentAddr::new(3);
        let mut f = flash(4);
        let cfg = config(5, true);
        let (result, collector) = obs::collect(obs::Collector::new(0), || {
            Imprinter::new(&cfg).imprint_via_cycles(&mut f, seg, &wm)
        });
        result.unwrap();
        let ops = |kind| collector.metrics().counter("flash", kind);
        assert_eq!(ops("erase_until_clean"), 5);
        assert_eq!(ops("erase_segment"), 0);
    }

    #[test]
    fn oversized_watermark_rejected() {
        let mut f = flash(5);
        let cfg = FlashmarkConfig::builder().replicas(7).build().unwrap();
        let wm = Watermark::from_bits(vec![false; 1000]).unwrap(); // 7000 > 4096
        assert!(matches!(
            Imprinter::new(&cfg).imprint(&mut f, SegmentAddr::new(0), &wm),
            Err(CoreError::TooLarge { .. })
        ));
    }
}
