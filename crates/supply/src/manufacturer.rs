//! The trusted manufacturer's die-sort flow.

use flashmark_core::{CoreError, FlashmarkConfig, Imprinter, TestStatus, WatermarkRecord};
use flashmark_msp430::{DeviceDescriptor, DieRecord, Msp430Variant};
use flashmark_nor::SegmentAddr;

use crate::chip::{Chip, Provenance};

/// A chip manufacturer that watermarks every die at die sort.
///
/// Produces chips carrying both the *current practice* (TLV metadata in
/// info memory — trivially forgeable) and the Flashmark wear watermark, so
/// attacks and inspections can contrast the two.
#[derive(Debug, Clone)]
pub struct Manufacturer {
    id: u16,
    variant: Msp430Variant,
    config: FlashmarkConfig,
    next_die: u64,
    lot_id: u32,
}

impl Manufacturer {
    /// Creates a manufacturer with the given public ID.
    #[must_use]
    pub fn new(id: u16, variant: Msp430Variant, config: FlashmarkConfig) -> Self {
        Self {
            id,
            variant,
            config,
            next_die: 1,
            lot_id: 0x00A1_0001,
        }
    }

    /// The manufacturer's public ID (what integrators verify against).
    #[must_use]
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Runs die sort on a new die: writes metadata, imprints the Flashmark
    /// record with the given status, and ships the chip.
    ///
    /// # Errors
    ///
    /// Imprint/flash errors.
    pub fn produce(&mut self, chip_seed: u64, status: TestStatus) -> Result<Chip, CoreError> {
        let provenance = match status {
            TestStatus::Accept => Provenance::GenuineAccept,
            TestStatus::Reject => Provenance::GenuineReject,
        };
        let mut chip = Chip::fresh(self.variant, chip_seed, provenance);
        let die_id = self.next_die;
        self.next_die += 1;

        // Current practice: plain TLV metadata in info memory.
        let descriptor = DeviceDescriptor {
            device_id: 0x5438,
            hw_revision: 1,
            fw_revision: 1,
            die: DieRecord {
                lot_id: self.lot_id,
                wafer_id: (die_id / 400) as u16,
                die_x: (die_id % 20) as u16,
                die_y: ((die_id / 20) % 20) as u16,
            },
            accepted: status == TestStatus::Accept,
        };
        descriptor
            .write_to(chip.flash.info_mut(), SegmentAddr::new(3))
            .map_err(CoreError::Flash)?;

        // Flashmark: the wear watermark in the reserved segment.
        let record = WatermarkRecord {
            manufacturer_id: self.id,
            die_id,
            speed_grade: 3,
            status,
            year_week: 2004, // (2020-2000)*100 + week 4, the paper's venue date
        };
        let seg = chip.flash.watermark_segment();
        Imprinter::new(&self.config).imprint(&mut chip.flash, seg, &record.to_watermark())?;
        Ok(chip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_core::{Verdict, Verifier};
    use flashmark_msp430::DeviceDescriptor;

    fn manufacturer() -> Manufacturer {
        let config = FlashmarkConfig::builder()
            .n_pe(80_000)
            .replicas(7)
            .build()
            .unwrap();
        Manufacturer::new(0x7C01, Msp430Variant::F5438, config)
    }

    #[test]
    fn produced_chip_verifies_genuine() {
        let mut m = manufacturer();
        let mut chip = m.produce(0x600D, TestStatus::Accept).unwrap();
        let verifier = Verifier::new(m.config.clone(), m.id());
        let seg = chip.flash.watermark_segment();
        let report = verifier.verify(&mut chip.flash, seg).unwrap();
        assert_eq!(report.verdict, Verdict::Genuine);
    }

    #[test]
    fn metadata_matches_status() {
        let mut m = manufacturer();
        let mut chip = m.produce(0xBAD0, TestStatus::Reject).unwrap();
        let d = DeviceDescriptor::read_from(chip.flash.info_mut(), SegmentAddr::new(3))
            .unwrap()
            .unwrap();
        assert!(!d.accepted);
        assert_eq!(chip.provenance, Provenance::GenuineReject);
    }

    #[test]
    fn die_ids_increment() {
        let mut m = manufacturer();
        let a = m.produce(1, TestStatus::Accept).unwrap();
        let b = m.produce(2, TestStatus::Accept).unwrap();
        drop(a);
        drop(b);
        assert_eq!(m.next_die, 3);
    }
}
