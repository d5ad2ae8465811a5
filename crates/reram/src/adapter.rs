//! Word-level adapter: runs the Flashmark procedures on a [`ReramChip`].
//!
//! The Flashmark imprint/extract/verify algorithms speak
//! [`FlashInterface`]; this adapter translates that NOR vocabulary onto
//! the ReRAM operation set (program → set, erase → reset, bulk imprint →
//! single forming pass), converting [`ReramError`] back into the
//! interface's [`NorError`] the same way the NAND adapter does.

use flashmark_nor::{
    BulkStress, FlashGeometry, FlashInterface, ImprintTiming, NorError, SegmentAddr, WordAddr,
};
use flashmark_physics::{Micros, Seconds};

use crate::chip::ReramChip;
use crate::error::ReramError;

/// Maps ReRAM-domain errors onto the interface vocabulary.
fn convert(e: ReramError) -> NorError {
    match e {
        ReramError::Array(inner) => inner,
        ReramError::FormingRange { cycles, .. } => NorError::WearModelRange {
            kcycles: cycles as f64 / 1000.0,
        },
        ReramError::DataLength { got, expected } => NorError::BlockLengthMismatch { got, expected },
    }
}

/// [`FlashInterface`] over a [`ReramChip`].
#[derive(Debug, Clone)]
pub struct ReramWordAdapter {
    chip: ReramChip,
}

impl ReramWordAdapter {
    /// Wraps a chip.
    #[must_use]
    pub fn new(chip: ReramChip) -> Self {
        Self { chip }
    }

    /// The wrapped chip.
    #[must_use]
    pub fn chip(&self) -> &ReramChip {
        &self.chip
    }

    /// Mutable access to the wrapped chip.
    pub fn chip_mut(&mut self) -> &mut ReramChip {
        &mut self.chip
    }

    /// Unwraps the adapter.
    #[must_use]
    pub fn into_chip(self) -> ReramChip {
        self.chip
    }
}

impl FlashInterface for ReramWordAdapter {
    fn geometry(&self) -> FlashGeometry {
        self.chip.geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.chip.read_word(word).map_err(convert)
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        self.chip.read_block(seg).map_err(convert)
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.chip.set_word(word, value).map_err(convert)
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        self.chip.set_block(seg, values).map_err(convert)
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.chip.reset_segment(seg).map_err(convert)
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        self.chip.partial_reset(seg, t_pe).map_err(convert)
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.chip.reset_until_clean(seg).map_err(convert)
    }

    fn elapsed(&self) -> Seconds {
        self.chip.elapsed()
    }
}

impl BulkStress for ReramWordAdapter {
    /// The ReRAM "bulk imprint" is one forming pass at a calibrated
    /// elevated voltage; the imprint-timing schedule is a flash concept
    /// (baseline vs early-exit erase loops) and does not apply.
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        _timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        self.chip.form_mark(seg, pattern, cycles).map_err(convert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::FlashInterfaceExt;

    fn adapter() -> ReramWordAdapter {
        ReramWordAdapter::new(ReramChip::new(FlashGeometry::single_bank(8), 0x0AD4))
    }

    #[test]
    fn interface_roundtrip_on_reram() {
        let mut a = adapter();
        let seg = SegmentAddr::new(1);
        a.program_all_zero(seg).unwrap();
        assert!(a.read_block(seg).unwrap().iter().all(|&w| w == 0));
        a.erase_segment(seg).unwrap();
        assert!(a.read_block(seg).unwrap().iter().all(|&w| w == 0xFFFF));
    }

    #[test]
    fn unwrapping_returns_the_driven_chip() {
        let mut a = adapter();
        a.program_all_zero(SegmentAddr::new(0)).unwrap();
        let mut chip = a.into_chip();
        let words = chip.read_block(SegmentAddr::new(0)).unwrap();
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn forming_range_maps_to_wear_model_range() {
        let mut a = adapter();
        let err = a
            .bulk_imprint(
                SegmentAddr::new(0),
                &vec![0u16; 256],
                1_000_000,
                ImprintTiming::Accelerated,
            )
            .unwrap_err();
        assert!(matches!(err, NorError::WearModelRange { .. }));
    }

    #[test]
    fn data_length_maps_to_block_length_mismatch() {
        let mut a = adapter();
        let err = a
            .program_block(SegmentAddr::new(0), &[0u16; 4])
            .unwrap_err();
        assert!(matches!(err, NorError::BlockLengthMismatch { .. }));
    }
}
