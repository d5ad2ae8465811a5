//! The assembled flash module of one simulated microcontroller.

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::{FlashController, FlashGeometry, NorError, SegmentAddr, WordAddr};
use flashmark_physics::rng::mix2;
use flashmark_physics::{Micros, Seconds};

use crate::device::{DeviceSpec, Msp430Variant};

/// One simulated MSP430 chip: main flash plus info memory, each behind its
/// own controller, sharing the chip identity (seed).
///
/// Implements [`FlashInterface`] over the **main** flash; the info memory is
/// reached through [`Msp430Flash::info_mut`].
#[derive(Debug, Clone)]
pub struct Msp430Flash {
    spec: DeviceSpec,
    chip_seed: u64,
    main: FlashController,
    info: FlashController,
}

impl Msp430Flash {
    /// Creates a chip of the given variant with identity `chip_seed`.
    ///
    /// The [watermark segment](Msp430Flash::watermark_segment) is
    /// [reserved](flashmark_nor::FlashArray::reserve): clones of a chip
    /// that never wrote it share one journal of it, so they replay the
    /// extraction that the first of them computed.
    #[must_use]
    pub fn new(variant: Msp430Variant, chip_seed: u64) -> Self {
        let spec = variant.spec();
        let params = variant.physics();
        let mut chip = Self {
            spec,
            chip_seed,
            main: FlashController::new(params.clone(), spec.main_geometry, spec.timings, chip_seed),
            info: FlashController::new(
                params,
                spec.info_geometry,
                spec.timings,
                mix2(chip_seed, 0x1F01_F0F0),
            ),
        };
        let seg = chip.watermark_segment();
        chip.main.array_mut().reserve(seg);
        chip
    }

    /// An MSP430F5438 chip.
    #[must_use]
    pub fn f5438(chip_seed: u64) -> Self {
        Self::new(Msp430Variant::F5438, chip_seed)
    }

    /// The device specification.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The chip identity seed.
    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    /// The main-flash controller.
    #[must_use]
    pub fn main(&self) -> &FlashController {
        &self.main
    }

    /// Mutable main-flash controller.
    pub fn main_mut(&mut self) -> &mut FlashController {
        &mut self.main
    }

    /// Mutable info-memory controller.
    pub fn info_mut(&mut self) -> &mut FlashController {
        &mut self.info
    }

    /// Drops the statics lanes of the main and the info arrays and keeps
    /// their state
    /// ([`shed_statics`](flashmark_nor::FlashArray::shed_statics)): an
    /// enrolled chip keeps only its wear.
    pub fn shed_statics(&mut self) {
        self.main.array_mut().shed_statics();
        self.info.array_mut().shed_statics();
    }

    /// The segment conventionally reserved for the Flashmark watermark: the
    /// last segment of the last main bank (out of the vector table and code
    /// regions).
    #[must_use]
    pub fn watermark_segment(&self) -> SegmentAddr {
        SegmentAddr::new(self.spec.main_geometry.total_segments() - 1)
    }
}

impl FlashInterface for Msp430Flash {
    fn geometry(&self) -> FlashGeometry {
        self.main.geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.main.read_word(word)
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        self.main.read_block(seg)
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.main.program_word(word, value)
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        self.main.program_block(seg, values)
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.main.erase_segment(seg)
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        self.main.partial_erase(seg, t_pe)
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.main.erase_until_clean(seg)
    }

    fn elapsed(&self) -> Seconds {
        self.main.elapsed()
    }
}

impl BulkStress for Msp430Flash {
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        self.main.bulk_imprint(seg, pattern, cycles, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_basics() {
        let chip = Msp430Flash::f5438(1);
        assert_eq!(chip.spec().name, "MSP430F5438");
        assert_eq!(chip.chip_seed(), 1);
        assert_eq!(chip.watermark_segment().index(), 511);
    }

    #[test]
    fn main_and_info_are_independent() {
        let mut chip = Msp430Flash::new(Msp430Variant::F5529, 2);
        chip.program_word(WordAddr::new(0), 0x0).unwrap();
        assert_eq!(chip.info_mut().read_word(WordAddr::new(0)).unwrap(), 0xFFFF);
        assert_eq!(chip.main_mut().read_word(WordAddr::new(0)).unwrap(), 0x0000);
    }

    #[test]
    fn flash_interface_roundtrip() {
        let mut chip = Msp430Flash::f5438(3);
        let seg = chip.watermark_segment();
        chip.erase_segment(seg).unwrap();
        let w = chip.geometry().first_word(seg);
        chip.program_word(w, 0xBEEF).unwrap();
        assert_eq!(chip.read_word(w).unwrap(), 0xBEEF);
        let words = chip.read_block(seg).unwrap();
        assert_eq!(words[0], 0xBEEF);
    }

    #[test]
    fn same_seed_same_chip_different_seed_differs() {
        let a = Msp430Flash::f5438(7).main().array().chip_seed();
        let b = Msp430Flash::f5438(7).main().array().chip_seed();
        let c = Msp430Flash::f5438(8).main().array().chip_seed();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fresh_chip_lists_no_touched_segment() {
        let mut chip = Msp430Flash::new(Msp430Variant::F5529, 4);
        assert!(chip.main().array().touched_segments().is_empty());
        chip.main_mut().mass_erase().unwrap();
        chip.main_mut().array_mut().bake(1_000.0, 85.0);
        assert!(chip.main().array().touched_segments().is_empty());
        let seg = chip.watermark_segment();
        chip.erase_segment(seg).unwrap();
        assert_eq!(chip.main().array().touched_segments(), [seg]);
    }

    #[test]
    fn info_memory_shape() {
        let chip = Msp430Flash::f5438(9);
        let g = chip.info.geometry();
        assert_eq!(g.total_segments(), 4);
        assert_eq!(g.bytes_per_segment(), 128);
        assert_eq!(g.words_per_segment(), 64);
    }
}
