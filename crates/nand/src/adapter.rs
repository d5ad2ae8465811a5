//! Running the Flashmark procedures on NAND, unchanged.
//!
//! [`NandWordAdapter`] exposes a [`NandChip`] through the
//! [`FlashInterface`] trait the core algorithms are written against:
//!
//! * Flashmark *segment* ↦ NAND *block* (both are the erase granule),
//! * Flashmark *word* ↦ a 16-bit chunk of a page.
//!
//! Word reads go through the **page register**, as on real parts: the first
//! access to a page performs the array sense (`tR`); subsequent sequential
//! word reads stream from the register at bus speed. Accessing a different
//! page re-senses — so the N-read majority of `AnalyzeSegment` still sees
//! fresh noise each pass.

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::{FlashGeometry, NorError, SegmentAddr, WordAddr};
use flashmark_physics::{Micros, Seconds};

use crate::chip::{NandChip, NandError};
use crate::geometry::{BlockAddr, PageAddr};

/// Adapts a [`NandChip`] to the word/segment [`FlashInterface`].
#[derive(Debug, Clone)]
pub struct NandWordAdapter {
    chip: NandChip,
    page_register: Option<(PageAddr, Vec<u8>)>,
}

fn convert(err: NandError) -> NorError {
    match err {
        NandError::BlockOutOfRange { block, total } => NorError::SegmentOutOfRange {
            segment: block,
            total,
        },
        NandError::PageOutOfRange { page, total } => NorError::WordOutOfRange {
            word: page,
            total: u64::from(total),
        },
        NandError::DataLength { got, expected } => NorError::BlockLengthMismatch { got, expected },
        NandError::NopLimitExceeded { .. } => NorError::AccessViolation { word: 0 },
    }
}

impl NandWordAdapter {
    /// Wraps a chip.
    #[must_use]
    pub fn new(chip: NandChip) -> Self {
        Self {
            chip,
            page_register: None,
        }
    }

    /// The wrapped chip.
    #[must_use]
    pub fn chip(&self) -> &NandChip {
        &self.chip
    }

    /// Mutable access to the wrapped chip.
    pub fn chip_mut(&mut self) -> &mut NandChip {
        self.page_register = None;
        &mut self.chip
    }

    fn words_per_page(&self) -> u32 {
        self.chip.geometry().bytes_per_page() / 2
    }

    fn page_of_word(&self, word: WordAddr) -> (PageAddr, usize) {
        let wpp = self.words_per_page();
        let wpb = wpp * self.chip.geometry().pages_per_block();
        let block = BlockAddr::new(word.index() / wpb);
        let within = word.index() % wpb;
        (PageAddr::new(block, within / wpp), (within % wpp) as usize)
    }
}

impl FlashInterface for NandWordAdapter {
    fn geometry(&self) -> FlashGeometry {
        let g = self.chip.geometry();
        FlashGeometry::new(1, g.blocks(), g.pages_per_block() * g.bytes_per_page())
            .expect("block dimensions are valid segment dimensions")
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.geometry().check_word(word)?;
        let (page, offset) = self.page_of_word(word);
        let hit = matches!(&self.page_register, Some((p, _)) if *p == page);
        if !hit {
            let data = self.chip.read_page(page).map_err(convert)?;
            self.page_register = Some((page, data));
        }
        let data = &self.page_register.as_ref().expect("just filled").1;
        Ok(u16::from_le_bytes([data[offset * 2], data[offset * 2 + 1]]))
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.geometry().check_word(word)?;
        self.page_register = None;
        let (page, offset) = self.page_of_word(word);
        let bytes = self.chip.geometry().bytes_per_page() as usize;
        let mut data = vec![0xFFu8; bytes];
        data[offset * 2] = (value & 0xFF) as u8;
        data[offset * 2 + 1] = (value >> 8) as u8;
        self.chip.program_page(page, &data).map_err(convert)
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        let expected = self.geometry().words_per_segment();
        if values.len() != expected {
            return Err(NorError::BlockLengthMismatch {
                got: values.len(),
                expected,
            });
        }
        self.page_register = None;
        let wpp = self.words_per_page() as usize;
        for (p, chunk) in values.chunks(wpp).enumerate() {
            let bytes: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
            self.chip
                .program_page(PageAddr::new(BlockAddr::new(seg.index()), p as u32), &bytes)
                .map_err(convert)?;
        }
        Ok(())
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.page_register = None;
        self.chip
            .erase_block(BlockAddr::new(seg.index()))
            .map_err(convert)
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        self.page_register = None;
        self.chip
            .partial_erase_block(BlockAddr::new(seg.index()), t_pe)
            .map_err(convert)
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.page_register = None;
        self.chip
            .erase_until_clean(BlockAddr::new(seg.index()))
            .map_err(convert)
    }

    fn elapsed(&self) -> Seconds {
        self.chip.elapsed()
    }
}

impl BulkStress for NandWordAdapter {
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        _timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        let expected = self.geometry().words_per_segment();
        if pattern.len() != expected {
            return Err(NorError::BlockLengthMismatch {
                got: pattern.len(),
                expected,
            });
        }
        self.page_register = None;
        let start = self.chip.elapsed();
        let bytes: Vec<u8> = pattern.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.chip
            .bulk_stress(BlockAddr::new(seg.index()), &bytes, cycles)
            .map_err(convert)?;
        Ok(self.chip.elapsed() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NandGeometry;

    fn adapter() -> NandWordAdapter {
        NandWordAdapter::new(NandChip::new(NandGeometry::tiny(), 0xADA))
    }

    #[test]
    fn geometry_maps_blocks_to_segments() {
        let a = adapter();
        let g = a.geometry();
        assert_eq!(g.total_segments(), 4);
        assert_eq!(g.cells_per_segment(), 16_384);
        assert_eq!(g.words_per_segment(), 1024);
    }

    #[test]
    fn word_roundtrip_through_pages() {
        let mut a = adapter();
        a.program_word(WordAddr::new(0), 0x5443).unwrap();
        assert_eq!(a.read_word(WordAddr::new(0)).unwrap(), 0x5443);
        // A word on another page.
        a.program_word(WordAddr::new(300), 0xBEEF).unwrap();
        assert_eq!(a.read_word(WordAddr::new(300)).unwrap(), 0xBEEF);
        // First word still intact.
        assert_eq!(a.read_word(WordAddr::new(0)).unwrap(), 0x5443);
    }

    #[test]
    fn page_register_serves_sequential_reads() {
        let mut a = adapter();
        let t0 = a.elapsed();
        let _ = a.read_word(WordAddr::new(0)).unwrap();
        let after_first = a.elapsed();
        let _ = a.read_word(WordAddr::new(1)).unwrap();
        let after_second = a.elapsed();
        // The first read pays the array sense; the second streams from the
        // page register (sense time is 25 µs, so the gap is obvious).
        assert!((after_first - t0).get() > (after_second - after_first).get() * 3.0);
    }

    #[test]
    fn program_invalidates_page_register() {
        let mut a = adapter();
        let _ = a.read_word(WordAddr::new(0)).unwrap();
        a.program_word(WordAddr::new(1), 0x0000).unwrap();
        assert_eq!(a.read_word(WordAddr::new(1)).unwrap(), 0x0000);
    }

    #[test]
    fn erase_segment_erases_block() {
        let mut a = adapter();
        a.program_word(WordAddr::new(7), 0x0).unwrap();
        a.erase_segment(SegmentAddr::new(0)).unwrap();
        assert_eq!(a.read_word(WordAddr::new(7)).unwrap(), 0xFFFF);
    }

    #[test]
    fn block_length_checked() {
        let mut a = adapter();
        assert!(matches!(
            a.program_block(SegmentAddr::new(0), &[0u16; 3]),
            Err(NorError::BlockLengthMismatch { .. })
        ));
    }
}
