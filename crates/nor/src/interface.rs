//! The digital interface traits the Flashmark algorithms are written
//! against.
//!
//! [`FlashInterface`] is exactly what a flash controller exposes to software:
//! reads, programs, segment erases, and the emergency-exit-based partial
//! erase. `flashmark-core` drives *only* this trait, so the algorithms run
//! unmodified against the simulator or (with an adapter) real hardware.
//!
//! [`BulkStress`] is a simulator-only fast path: applying tens of thousands
//! of identical P/E cycles in closed form. The faithful cycle-by-cycle loop
//! and the bulk path are asserted equivalent in tests.

use flashmark_physics::{Micros, Seconds};

use crate::addr::{SegmentAddr, WordAddr};
use crate::error::NorError;
use crate::geometry::FlashGeometry;

/// Which imprint schedule to account time for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImprintTiming {
    /// Full-length segment erase every cycle (the paper's baseline:
    /// 1380 s at 40 K cycles).
    Baseline,
    /// Early-exited erase every cycle (the paper's accelerated procedure:
    /// ~3.5× faster, 387 s at 40 K cycles).
    Accelerated,
}

/// A word/segment-granular NOR flash digital interface.
///
/// Mirrors an MCU flash controller: reads and programs are word-granular,
/// erases are segment-granular, programming can only flip bits `1 → 0`, and
/// an in-flight erase can be aborted after a chosen partial-erase time.
pub trait FlashInterface {
    /// Device geometry.
    fn geometry(&self) -> FlashGeometry;

    /// Reads one word (with physical read noise).
    ///
    /// # Errors
    ///
    /// Address or controller-state errors ([`NorError`]).
    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError>;

    /// Programs the 0-bits of `value` into a word.
    ///
    /// # Errors
    ///
    /// Address or lock errors.
    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError>;

    /// Reads every word of a segment in one burst.
    ///
    /// Semantically identical to reading each word of the segment in order
    /// with [`FlashInterface::read_word`] (the default implementation does
    /// exactly that); implementations may batch the underlying physics
    /// sweep for speed, as long as results stay bit-identical.
    ///
    /// # Errors
    ///
    /// Address or controller-state errors ([`NorError`]).
    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        self.geometry()
            .segment_words(seg)
            .map(|w| self.read_word(w))
            .collect()
    }

    /// Programs a whole segment in block-write mode (faster per word).
    ///
    /// # Errors
    ///
    /// [`NorError::BlockLengthMismatch`] if `values` is not exactly one
    /// segment long, plus address/lock errors.
    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError>;

    /// Fully erases a segment (all cells read 1 afterwards).
    ///
    /// # Errors
    ///
    /// Address or lock errors.
    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError>;

    /// Starts a segment erase and issues the emergency exit after `t_pe`,
    /// leaving cells wherever their threshold voltage landed.
    ///
    /// # Errors
    ///
    /// Address or lock errors, or [`NorError::InvalidPulse`] for a negative
    /// or non-finite `t_pe`.
    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError>;

    /// Erases a segment but exits as soon as every cell reads erased
    /// (polling between short pulses). Returns the erase time actually
    /// spent. This is the paper's accelerated-imprint primitive.
    ///
    /// # Errors
    ///
    /// Address or lock errors.
    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError>;

    /// Total simulated time elapsed on this controller.
    fn elapsed(&self) -> Seconds;
}

/// Extension helpers over any [`FlashInterface`].
pub trait FlashInterfaceExt: FlashInterface {
    /// Programs every word of a segment to 0 (all cells programmed) using
    /// block-write mode.
    ///
    /// # Errors
    ///
    /// Propagates program errors.
    fn program_all_zero(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        let n = self.geometry().words_per_segment();
        self.program_block(seg, &vec![0u16; n])
    }
}

impl<T: FlashInterface + ?Sized> FlashInterfaceExt for T {}

// Mutable references are flash interfaces too, so wrappers (sanitizers,
// adapters) can be layered over a borrow without taking ownership.
impl<T: FlashInterface + ?Sized> FlashInterface for &mut T {
    fn geometry(&self) -> FlashGeometry {
        (**self).geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        (**self).read_word(word)
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        (**self).read_block(seg)
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        (**self).program_word(word, value)
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        (**self).program_block(seg, values)
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        (**self).erase_segment(seg)
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        (**self).partial_erase(seg, t_pe)
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        (**self).erase_until_clean(seg)
    }

    fn elapsed(&self) -> Seconds {
        (**self).elapsed()
    }
}

impl<T: PartialProgram + ?Sized> PartialProgram for &mut T {
    fn partial_program(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError> {
        (**self).partial_program(seg, t_pp)
    }
}

impl<T: BulkStress + ?Sized> BulkStress for &mut T {
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        (**self).bulk_imprint(seg, pattern, cycles, timing)
    }
}

/// Optional capability: partial (aborted) program pulses over a whole
/// segment — the sensing primitive of the FFD-style recycled-flash
/// detectors the paper cites as related work (\[6\], \[7\]). Not every part
/// supports aborting a program, hence a separate trait.
pub trait PartialProgram: FlashInterface {
    /// Applies a program pulse of duration `t_pp` to every cell of `seg`,
    /// aborted before typical cells reach the programmed level.
    ///
    /// # Errors
    ///
    /// Address or lock errors, or [`NorError::InvalidPulse`] for a negative
    /// or non-finite `t_pp`.
    fn partial_program(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError>;
}

/// Simulator-only closed-form stress application.
pub trait BulkStress: FlashInterface {
    /// Applies `cycles` erase+program cycles of `pattern` to `seg` and
    /// advances the simulated clock by the time the chosen schedule would
    /// take. Returns the time spent.
    ///
    /// End state and accumulated wear are identical to running the faithful
    /// loop (asserted by equivalence tests).
    ///
    /// # Errors
    ///
    /// Address, lock, or pattern-length errors, or
    /// [`NorError::WearModelRange`] for a forming stress beyond the part's
    /// calibrated cap.
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        timing: ImprintTiming,
    ) -> Result<Seconds, NorError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FlashController;
    use crate::timing::FlashTimings;
    use flashmark_physics::PhysicsParams;

    #[test]
    fn ext_program_all_zero() {
        let mut ctl = FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            FlashTimings::msp430(),
            1,
        );
        let seg = SegmentAddr::new(0);
        let words = ctl.read_block(seg).unwrap();
        assert_eq!(words.len(), 256);
        assert!(words.iter().all(|&w| w == 0xFFFF));
        ctl.program_all_zero(seg).unwrap();
        let words = ctl.read_block(seg).unwrap();
        assert!(words.iter().all(|&w| w == 0x0000));
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_f: &mut dyn FlashInterface) {}
    }
}
