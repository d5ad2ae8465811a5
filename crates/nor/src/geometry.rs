//! Device geometry: banks, segments, words, cells.

use crate::addr::{SegmentAddr, WordAddr};
use crate::error::NorError;
use core::fmt;

/// Width of a flash word in bits (NOR flash in the paper's parts is
/// word-organized at 16 bits).
pub const WORD_BITS: usize = 16;

/// Shape of a NOR flash device.
///
/// A device is `banks × segments_per_bank` segments of `bytes_per_segment`
/// bytes each; the segment is the erase granule, the 16-bit word is the
/// program/read granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    banks: u16,
    segments_per_bank: u32,
    bytes_per_segment: u32,
}

impl FlashGeometry {
    /// Creates a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::InvalidGeometry`] if any dimension is zero or the
    /// segment size is not a multiple of the word size.
    pub fn new(
        banks: u16,
        segments_per_bank: u32,
        bytes_per_segment: u32,
    ) -> Result<Self, NorError> {
        if banks == 0 || segments_per_bank == 0 || bytes_per_segment == 0 {
            return Err(NorError::InvalidGeometry("all dimensions must be non-zero"));
        }
        if !bytes_per_segment.is_multiple_of(WORD_BITS as u32 / 8) {
            return Err(NorError::InvalidGeometry(
                "segment size must be a multiple of the word size",
            ));
        }
        Ok(Self {
            banks,
            segments_per_bank,
            bytes_per_segment,
        })
    }

    /// A single bank of `segments` standard 512-byte segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    #[must_use]
    pub fn single_bank(segments: u32) -> Self {
        assert!(segments > 0, "segment count must be non-zero");
        Self {
            banks: 1,
            segments_per_bank: segments,
            bytes_per_segment: 512,
        }
    }

    /// Number of banks.
    #[must_use]
    pub const fn banks(&self) -> u16 {
        self.banks
    }

    /// Segments in each bank.
    #[must_use]
    pub const fn segments_per_bank(&self) -> u32 {
        self.segments_per_bank
    }

    /// Bytes in each segment.
    #[must_use]
    pub const fn bytes_per_segment(&self) -> u32 {
        self.bytes_per_segment
    }

    /// Total number of segments on the device.
    #[must_use]
    pub const fn total_segments(&self) -> u32 {
        self.banks as u32 * self.segments_per_bank
    }

    /// Words per segment.
    #[must_use]
    pub const fn words_per_segment(&self) -> usize {
        (self.bytes_per_segment as usize * 8) / WORD_BITS
    }

    /// Cells (bits) per segment.
    #[must_use]
    pub const fn cells_per_segment(&self) -> usize {
        self.bytes_per_segment as usize * 8
    }

    /// Total number of words on the device.
    #[must_use]
    pub const fn total_words(&self) -> u64 {
        self.total_segments() as u64 * self.words_per_segment() as u64
    }

    /// First word of a segment.
    #[must_use]
    pub fn first_word(&self, seg: SegmentAddr) -> WordAddr {
        WordAddr::new(seg.index() * self.words_per_segment() as u32)
    }

    /// Segment containing a word.
    #[must_use]
    pub fn segment_of(&self, word: WordAddr) -> SegmentAddr {
        SegmentAddr::new(word.index() / self.words_per_segment() as u32)
    }

    /// Offset (in words) of `word` within its segment.
    #[must_use]
    pub fn word_offset_in_segment(&self, word: WordAddr) -> usize {
        (word.index() as usize) % self.words_per_segment()
    }

    /// Global cell index of bit `bit` of word `word`.
    #[must_use]
    pub fn cell_index(&self, word: WordAddr, bit: usize) -> u64 {
        debug_assert!(bit < WORD_BITS);
        word.index() as u64 * WORD_BITS as u64 + bit as u64
    }

    /// Checks that a segment address is on the device.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] otherwise.
    pub fn check_segment(&self, seg: SegmentAddr) -> Result<(), NorError> {
        if seg.index() < self.total_segments() {
            Ok(())
        } else {
            Err(NorError::SegmentOutOfRange {
                segment: seg.index(),
                total: self.total_segments(),
            })
        }
    }

    /// Checks that a word address is on the device.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::WordOutOfRange`] otherwise.
    pub fn check_word(&self, word: WordAddr) -> Result<(), NorError> {
        if (word.index() as u64) < self.total_words() {
            Ok(())
        } else {
            Err(NorError::WordOutOfRange {
                word: word.index(),
                total: self.total_words(),
            })
        }
    }

    /// Iterator over the word addresses of a segment.
    pub fn segment_words(&self, seg: SegmentAddr) -> impl Iterator<Item = WordAddr> + use<> {
        let base = self.first_word(seg).index();
        let n = self.words_per_segment() as u32;
        (base..base + n).map(WordAddr::new)
    }
}

impl fmt::Display for FlashGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bank(s) x {} segments x {} B",
            self.banks, self.segments_per_bank, self.bytes_per_segment
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_segment_shape() {
        let g = FlashGeometry::single_bank(16);
        assert_eq!(g.words_per_segment(), 256);
        assert_eq!(g.cells_per_segment(), 4096);
        assert_eq!(g.total_segments(), 16);
        assert_eq!(g.total_words(), 16 * 256);
    }

    #[test]
    fn word_segment_mapping_roundtrip() {
        let g = FlashGeometry::single_bank(8);
        let seg = SegmentAddr::new(3);
        let w = g.first_word(seg);
        assert_eq!(g.segment_of(w), seg);
        assert_eq!(g.segment_of(w.offset(255)), seg);
        assert_eq!(g.segment_of(w.offset(256)), SegmentAddr::new(4));
        assert_eq!(g.word_offset_in_segment(w.offset(10)), 10);
    }

    #[test]
    fn cell_index_is_contiguous() {
        let g = FlashGeometry::single_bank(2);
        let w = WordAddr::new(5);
        assert_eq!(g.cell_index(w, 0), 80);
        assert_eq!(g.cell_index(w, 15), 95);
    }

    #[test]
    fn bounds_checks() {
        let g = FlashGeometry::single_bank(4);
        assert!(g.check_segment(SegmentAddr::new(3)).is_ok());
        assert!(g.check_segment(SegmentAddr::new(4)).is_err());
        assert!(g.check_word(WordAddr::new(4 * 256 - 1)).is_ok());
        assert!(g.check_word(WordAddr::new(4 * 256)).is_err());
    }

    #[test]
    fn multi_bank_layout() {
        let g = FlashGeometry::new(4, 128, 512).unwrap();
        assert_eq!(g.total_segments(), 512);
        assert_eq!(g.total_words(), 128 * 1024);
    }

    #[test]
    fn rejects_degenerate_geometry() {
        assert!(FlashGeometry::new(0, 1, 512).is_err());
        assert!(FlashGeometry::new(1, 0, 512).is_err());
        assert!(FlashGeometry::new(1, 1, 0).is_err());
        assert!(FlashGeometry::new(1, 1, 3).is_err());
    }

    #[test]
    fn segment_words_iterates_whole_segment() {
        let g = FlashGeometry::single_bank(4);
        let words: Vec<_> = g.segment_words(SegmentAddr::new(1)).collect();
        assert_eq!(words.len(), 256);
        assert_eq!(words[0], WordAddr::new(256));
        assert_eq!(words[255], WordAddr::new(511));
    }

    #[test]
    fn display_formats() {
        let g = FlashGeometry::single_bank(4);
        assert!(g.to_string().contains("512 B"));
    }
}
