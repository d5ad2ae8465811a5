//! Replica placement within a flash segment.
//!
//! The encoded watermark channel (data × replicas) occupies the first cells
//! of the segment, replicas back to back as the paper's Fig. 10 shows them;
//! the remainder is left erased.

use flashmark_ecc::{Code, Repetition};
use flashmark_nor::FlashGeometry;

use crate::error::CoreError;

/// Maps watermark data bits onto segment cells and back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    data_len: usize,
    replicas: usize,
}

impl SegmentLayout {
    /// Creates a layout for `data_len` watermark bits × `replicas` copies.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a zero/even replica count or zero data
    /// length.
    pub fn new(data_len: usize, replicas: usize) -> Result<Self, CoreError> {
        if data_len == 0 {
            return Err(CoreError::Config("data length must be non-zero"));
        }
        if replicas == 0 || replicas.is_multiple_of(2) {
            return Err(CoreError::Config("replica count must be odd"));
        }
        Ok(Self { data_len, replicas })
    }

    /// Watermark data bits.
    #[must_use]
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Replica count.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Channel bits occupied in the segment.
    #[must_use]
    pub fn channel_len(&self) -> usize {
        self.data_len * self.replicas
    }

    /// Checks the channel fits a segment of this geometry.
    ///
    /// # Errors
    ///
    /// [`CoreError::TooLarge`] otherwise.
    pub fn check_fits(&self, geometry: FlashGeometry) -> Result<(), CoreError> {
        let available = geometry.cells_per_segment();
        if self.channel_len() > available {
            return Err(CoreError::TooLarge {
                needed: self.channel_len(),
                available,
            });
        }
        Ok(())
    }

    /// The replication code the channel is written and read under.
    pub(crate) fn repetition(&self) -> Result<Repetition, CoreError> {
        Ok(Repetition::new(self.replicas)?)
    }

    /// Encodes data bits into the replicated channel bit string.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if `data` length differs from the layout's
    /// `data_len`; [`CoreError::Code`] on coding-layer failures.
    pub fn encode_channel(&self, data: &[bool]) -> Result<Vec<bool>, CoreError> {
        if data.len() != self.data_len {
            return Err(CoreError::Config("layout/data length mismatch"));
        }
        Ok(self.repetition()?.encode(data))
    }

    /// Recovers the channel from extracted segment bits.
    ///
    /// # Errors
    ///
    /// [`CoreError::TooLarge`] if the segment has fewer cells than the
    /// channel needs.
    pub fn slice_channel(&self, segment_bits: &[bool]) -> Result<Vec<bool>, CoreError> {
        let n = self.channel_len();
        if segment_bits.len() < n {
            return Err(CoreError::TooLarge {
                needed: n,
                available: segment_bits.len(),
            });
        }
        Ok(segment_bits[..n].to_vec())
    }

    /// Builds the full segment program pattern: channel bits in the leading
    /// cells (bit `b` → cell holds `b`), everything else left erased (1).
    ///
    /// # Errors
    ///
    /// [`CoreError::TooLarge`] if the channel does not fit the geometry,
    /// plus [`encode_channel`](SegmentLayout::encode_channel) errors.
    pub fn pattern_words(
        &self,
        data: &[bool],
        geometry: FlashGeometry,
    ) -> Result<Vec<u16>, CoreError> {
        self.check_fits(geometry)?;
        let channel = self.encode_channel(data)?;
        let mut words = vec![0xFFFFu16; geometry.words_per_segment()];
        for (i, &bit) in channel.iter().enumerate() {
            if !bit {
                words[i / 16] &= !(1 << (i % 16));
            }
        }
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn channel_roundtrip_contiguous() {
        let l = SegmentLayout::new(4, 3).unwrap();
        let data = bits("1011");
        let channel = l.encode_channel(&data).unwrap();
        assert_eq!(channel.len(), 12);
        let mut segment = channel.clone();
        segment.extend([true; 20]); // trailing erased cells
        assert_eq!(l.slice_channel(&segment).unwrap(), channel);
    }

    #[test]
    fn pattern_words_place_zeros() {
        let g = FlashGeometry::single_bank(1);
        let l = SegmentLayout::new(16, 1).unwrap();
        // "TC" = 0x5443, LSB-first bits of bytes 0x54, 0x43.
        let data: Vec<bool> = [0x54u8, 0x43]
            .iter()
            .flat_map(|&b| (0..8).map(move |i| b & (1 << i) != 0))
            .collect();
        let words = l.pattern_words(&data, g).unwrap();
        assert_eq!(words.len(), 256);
        assert_eq!(words[0], 0x4354); // low byte in low bits
        assert!(words[1..].iter().all(|&w| w == 0xFFFF));
    }

    #[test]
    fn fits_checks() {
        let g = FlashGeometry::single_bank(1); // 4096 cells
        assert!(SegmentLayout::new(128, 7).unwrap().check_fits(g).is_ok()); // 896
        let too_big = SegmentLayout::new(1000, 5).unwrap();
        assert!(matches!(
            too_big.check_fits(g),
            Err(CoreError::TooLarge { .. })
        ));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SegmentLayout::new(0, 3).is_err());
        assert!(SegmentLayout::new(8, 2).is_err());
    }

    #[test]
    fn slice_channel_requires_enough_bits() {
        let l = SegmentLayout::new(8, 3).unwrap();
        assert!(l.slice_channel(&[true; 10]).is_err());
    }
}
