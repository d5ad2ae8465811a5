//! TLV device-descriptor records in info memory.
//!
//! Real MSP430 parts carry a TLV (tag–length–value) descriptor with device
//! ID, die record (lot / wafer / die X-Y), and calibration data. Chip
//! manufacturers today store *testing metadata* the same way — as plain
//! flash contents. The paper's point of departure is that such metadata "can
//! easily be erased, forged, or fabricated by counterfeiters"; the supply
//! chain simulation uses this module as exactly that forgeable strawman.

use flashmark_nor::interface::FlashInterface;
use flashmark_nor::{FlashController, NorError, SegmentAddr};

/// TLV record tags (a representative subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TlvTag {
    /// Device and hardware/firmware revision IDs.
    DeviceId = 0x01,
    /// Die traceability record.
    DieRecord = 0x08,
    /// Factory test status (what the paper calls "accept"/"reject").
    TestStatus = 0x7D,
    /// End-of-table marker.
    End = 0xFF,
}

/// Die traceability record: where this die came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DieRecord {
    /// Lot identifier.
    pub lot_id: u32,
    /// Wafer number within the lot.
    pub wafer_id: u16,
    /// Die X position on the wafer.
    pub die_x: u16,
    /// Die Y position on the wafer.
    pub die_y: u16,
}

/// The manufacturer's descriptor as stored in info memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DeviceDescriptor {
    /// Device identifier (e.g. 0x5438).
    pub device_id: u16,
    /// Hardware revision.
    pub hw_revision: u8,
    /// Firmware (BSL) revision.
    pub fw_revision: u8,
    /// Die traceability.
    pub die: DieRecord,
    /// `true` if the die passed die-sort testing ("accept").
    pub accepted: bool,
}

/// Errors decoding a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptorError {
    /// The checksum did not match (blank or corrupted info memory).
    BadChecksum,
    /// A record had an unknown layout.
    Malformed,
    /// A required record was missing.
    MissingRecord(u8),
}

impl core::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadChecksum => write!(f, "descriptor checksum mismatch"),
            Self::Malformed => write!(f, "malformed descriptor record"),
            Self::MissingRecord(tag) => write!(f, "descriptor record {tag:#04x} missing"),
        }
    }
}

impl std::error::Error for DescriptorError {}

impl DeviceDescriptor {
    /// Encodes the descriptor as TLV words (checksum first, then records,
    /// then the end marker).
    #[must_use]
    pub fn encode(&self) -> Vec<u16> {
        let mut bytes: Vec<u8> = Vec::new();
        // DeviceId record.
        bytes.extend_from_slice(&[TlvTag::DeviceId as u8, 4]);
        bytes.extend_from_slice(&self.device_id.to_le_bytes());
        bytes.push(self.hw_revision);
        bytes.push(self.fw_revision);
        // Die record.
        bytes.extend_from_slice(&[TlvTag::DieRecord as u8, 10]);
        bytes.extend_from_slice(&self.die.lot_id.to_le_bytes());
        bytes.extend_from_slice(&self.die.wafer_id.to_le_bytes());
        bytes.extend_from_slice(&self.die.die_x.to_le_bytes());
        bytes.extend_from_slice(&self.die.die_y.to_le_bytes());
        // Test status record.
        bytes.extend_from_slice(&[TlvTag::TestStatus as u8, 2]);
        bytes.push(u8::from(self.accepted));
        bytes.push(0);
        // End marker.
        bytes.extend_from_slice(&[TlvTag::End as u8, 0]);
        if !bytes.len().is_multiple_of(2) {
            bytes.push(0);
        }
        let mut words: Vec<u16> = bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        let checksum = tlv_checksum(&words);
        words.insert(0, checksum);
        words
    }

    /// Decodes a descriptor from TLV words.
    ///
    /// # Errors
    ///
    /// [`DescriptorError`] on checksum or layout problems.
    pub fn decode(words: &[u16]) -> Result<Self, DescriptorError> {
        let (&checksum, body) = words.split_first().ok_or(DescriptorError::Malformed)?;
        // The body may carry trailing erased (0xFFFF) words from flash; the
        // checksummed region ends at the End record.
        let body_end;
        // Find the End record to bound the checksummed region below.
        let bytes: Vec<u8> = body.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut i = 0;
        let mut out = Self::default();
        let mut seen_device = false;
        let mut seen_die = false;
        let mut seen_status = false;
        loop {
            if i + 2 > bytes.len() {
                return Err(DescriptorError::Malformed);
            }
            let tag = bytes[i];
            let len = bytes[i + 1] as usize;
            i += 2;
            if tag == TlvTag::End as u8 {
                body_end = i.div_ceil(2);
                break;
            }
            if i + len > bytes.len() {
                return Err(DescriptorError::Malformed);
            }
            let v = &bytes[i..i + len];
            match tag {
                t if t == TlvTag::DeviceId as u8 => {
                    if len != 4 {
                        return Err(DescriptorError::Malformed);
                    }
                    out.device_id = u16::from_le_bytes([v[0], v[1]]);
                    out.hw_revision = v[2];
                    out.fw_revision = v[3];
                    seen_device = true;
                }
                t if t == TlvTag::DieRecord as u8 => {
                    if len != 10 {
                        return Err(DescriptorError::Malformed);
                    }
                    out.die = DieRecord {
                        lot_id: u32::from_le_bytes([v[0], v[1], v[2], v[3]]),
                        wafer_id: u16::from_le_bytes([v[4], v[5]]),
                        die_x: u16::from_le_bytes([v[6], v[7]]),
                        die_y: u16::from_le_bytes([v[8], v[9]]),
                    };
                    seen_die = true;
                }
                t if t == TlvTag::TestStatus as u8 => {
                    if len != 2 {
                        return Err(DescriptorError::Malformed);
                    }
                    out.accepted = v[0] != 0;
                    seen_status = true;
                }
                _ => {} // unknown records are skipped
            }
            i += len;
        }
        if tlv_checksum(&body[..body_end]) != checksum {
            return Err(DescriptorError::BadChecksum);
        }
        if !seen_device {
            return Err(DescriptorError::MissingRecord(TlvTag::DeviceId as u8));
        }
        if !seen_die {
            return Err(DescriptorError::MissingRecord(TlvTag::DieRecord as u8));
        }
        if !seen_status {
            return Err(DescriptorError::MissingRecord(TlvTag::TestStatus as u8));
        }
        Ok(out)
    }

    /// Writes the descriptor into an info-memory segment.
    ///
    /// # Errors
    ///
    /// Flash errors from the controller.
    pub fn write_to(&self, info: &mut FlashController, seg: SegmentAddr) -> Result<(), NorError> {
        info.erase_segment(seg)?;
        let base = info.geometry().first_word(seg);
        for (i, w) in self.encode().into_iter().enumerate() {
            info.program_word(base.offset(i as u32), w)?;
        }
        Ok(())
    }

    /// Reads a descriptor back from an info-memory segment.
    ///
    /// # Errors
    ///
    /// Flash errors, or [`DescriptorError`] wrapped as `Ok(Err(..))`-free
    /// two-level result: flash first, then decode.
    pub fn read_from(
        info: &mut FlashController,
        seg: SegmentAddr,
    ) -> Result<Result<Self, DescriptorError>, NorError> {
        let words: Result<Vec<u16>, NorError> = info
            .geometry()
            .segment_words(seg)
            .map(|w| info.read_word(w))
            .collect();
        Ok(Self::decode(&words?))
    }
}

fn tlv_checksum(words: &[u16]) -> u16 {
    words
        .iter()
        .fold(0u16, |acc, &w| acc.wrapping_add(w))
        .wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash_module::Msp430Flash;

    fn descriptor() -> DeviceDescriptor {
        DeviceDescriptor {
            device_id: 0x5438,
            hw_revision: 2,
            fw_revision: 7,
            die: DieRecord {
                lot_id: 0xA1B2_C3D4,
                wafer_id: 17,
                die_x: 40,
                die_y: 12,
            },
            accepted: true,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = descriptor();
        let words = d.encode();
        assert_eq!(DeviceDescriptor::decode(&words).unwrap(), d);
    }

    #[test]
    fn decode_with_trailing_erased_words() {
        let d = descriptor();
        let mut words = d.encode();
        words.extend([0xFFFFu16; 20]);
        assert_eq!(DeviceDescriptor::decode(&words).unwrap(), d);
    }

    #[test]
    fn checksum_detects_tamper() {
        let d = descriptor();
        let mut words = d.encode();
        words[3] ^= 0x0100;
        assert!(matches!(
            DeviceDescriptor::decode(&words),
            Err(DescriptorError::BadChecksum | DescriptorError::Malformed)
        ));
    }

    #[test]
    fn blank_memory_fails_cleanly() {
        let blank = vec![0xFFFFu16; 64];
        assert!(DeviceDescriptor::decode(&blank).is_err());
    }

    #[test]
    fn info_memory_roundtrip() {
        let mut chip = Msp430Flash::f5438(0x10);
        let d = descriptor();
        let seg = SegmentAddr::new(3); // info A
        d.write_to(chip.info_mut(), seg).unwrap();
        let back = DeviceDescriptor::read_from(chip.info_mut(), seg)
            .unwrap()
            .unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn descriptor_is_trivially_forgeable() {
        // The property the paper criticizes: a counterfeiter can rewrite the
        // metadata wholesale — flip "reject" to "accept".
        let mut chip = Msp430Flash::f5438(0x11);
        let seg = SegmentAddr::new(3);
        let mut d = descriptor();
        d.accepted = false;
        d.write_to(chip.info_mut(), seg).unwrap();

        let mut forged = DeviceDescriptor::read_from(chip.info_mut(), seg)
            .unwrap()
            .unwrap();
        forged.accepted = true;
        forged.write_to(chip.info_mut(), seg).unwrap();

        let back = DeviceDescriptor::read_from(chip.info_mut(), seg)
            .unwrap()
            .unwrap();
        assert!(back.accepted, "plain metadata offers no protection");
    }

    #[test]
    fn rejected_status_roundtrips() {
        let mut d = descriptor();
        d.accepted = false;
        let words = d.encode();
        assert!(!DeviceDescriptor::decode(&words).unwrap().accepted);
    }
}
