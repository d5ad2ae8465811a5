//! The paper's tPEW wear watermark as a [`WatermarkScheme`].
//!
//! Imprint, extract and verify (Figs. 7–8) reach the part only through
//! program, erase, abort and read, so one implementation, [`TpewScheme`],
//! serves every technology whose wear shows in the partial-erase time, and
//! every such part runs on the one [`FlashController`]. A scheme value
//! holds only its stable name: [`NOR_TPEW`] runs on a NOR part, and
//! `flashmark_reram::RERAM_FORMING` on a controller built with the ReRAM
//! physics and timing presets.
//!
//! The scheme layer is pure delegation to [`Imprinter`] and
//! [`Verifier::verify_resilient`], so verdicts through the trait are
//! bit-identical to direct calls (pinned by the `backend_campaign` legacy
//! cross-check and the workspace `scheme_contract` tests).

use flashmark_nor::{FlashController, SegmentAddr};

use crate::config::FlashmarkConfig;
use crate::imprint::Imprinter;
use crate::scheme::{ImprintCost, SchemeError, SchemeVerification, WatermarkScheme};
use crate::verify::Verifier;
use crate::watermark::{Watermark, WatermarkRecord};

/// Parameters of a tPEW verification campaign: the Flashmark operating
/// point, the reserved segment, and the manufacturer identity the inspector
/// expects.
#[derive(Debug, Clone, PartialEq)]
pub struct TpewParams {
    /// Flashmark operating point (`NPE`, `tPEW`, replicas, schedule). On
    /// ReRAM, `NPE` is the equivalent forming stress in P/E cycles.
    pub config: FlashmarkConfig,
    /// The reserved watermark segment.
    pub seg: SegmentAddr,
    /// Manufacturer ID the inspector expects in the record.
    pub manufacturer_id: u16,
    /// The record the manufacturer imprints at die sort.
    pub record: WatermarkRecord,
}

/// tPEW enrollment: the signed record and its imprintable bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TpewEnrollment {
    /// The die-sort record (identity, grade, status, CRC-16).
    pub record: WatermarkRecord,
    /// The record as the imprinted watermark pattern.
    pub watermark: Watermark,
}

/// The tPEW wear watermark.
pub struct TpewScheme {
    /// Stable scheme name ([`WatermarkScheme::name`]).
    pub name: &'static str,
}

/// The paper's NOR scheme.
pub const NOR_TPEW: TpewScheme = TpewScheme { name: "nor_tpew" };

impl WatermarkScheme for TpewScheme {
    type Chip = FlashController;
    type Params = TpewParams;
    type Enrollment = TpewEnrollment;

    fn name(&self) -> &'static str {
        self.name
    }

    fn enroll(
        &self,
        _chip: &mut FlashController,
        params: &TpewParams,
    ) -> Result<TpewEnrollment, SchemeError> {
        // Enrollment for an imprinting scheme is pure bookkeeping: freeze
        // the signed record and its bit pattern. No chip measurement needed.
        Ok(TpewEnrollment {
            record: params.record,
            watermark: params.record.to_watermark(),
        })
    }

    fn imprint(
        &self,
        chip: &mut FlashController,
        params: &TpewParams,
        enrollment: &TpewEnrollment,
    ) -> Result<ImprintCost, SchemeError> {
        let report =
            Imprinter::new(&params.config).imprint(chip, params.seg, &enrollment.watermark)?;
        Ok(ImprintCost {
            cycles: report.cycles,
            elapsed: report.elapsed,
        })
    }

    fn verify(
        &self,
        chip: &mut FlashController,
        params: &TpewParams,
        enrollment: &TpewEnrollment,
    ) -> Result<SchemeVerification, SchemeError> {
        let report = Verifier::new(params.config.clone(), params.manufacturer_id)
            .verify_resilient(chip, params.seg)?;
        let evidence = &report.extraction;
        let mismatch = (evidence.bits().len() == enrollment.watermark.len())
            .then(|| evidence.ber_against(&enrollment.watermark));
        Ok(SchemeVerification {
            verdict: report.verdict,
            resolution: report.resolution.strategy(),
            mismatch,
        })
    }

    fn wear_estimate(&self, chip: &mut FlashController, params: &TpewParams) -> f64 {
        chip.wear_stats(params.seg).mean_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::provision;
    use crate::verify::{CounterfeitReason, Verdict};
    use crate::watermark::TestStatus;
    use flashmark_nor::{FlashGeometry, FlashTimings};
    use flashmark_physics::PhysicsParams;

    fn chip(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            seed,
        )
    }

    fn params(manufacturer_id: u16, status: TestStatus) -> TpewParams {
        TpewParams {
            config: FlashmarkConfig::builder()
                .n_pe(80_000)
                .replicas(7)
                .t_pew(flashmark_physics::Micros::new(28.0))
                .build()
                .unwrap(),
            seg: SegmentAddr::new(0),
            manufacturer_id,
            record: WatermarkRecord {
                manufacturer_id,
                die_id: 7,
                speed_grade: 2,
                status,
                year_week: 2031,
            },
        }
    }

    #[test]
    fn genuine_roundtrip_through_the_trait() {
        let p = params(0x1001, TestStatus::Accept);
        let mut c = chip(11);
        let (enrollment, cost) = provision(&NOR_TPEW, &mut c, &p).unwrap();
        assert_eq!(cost.cycles, 80_000);
        assert!(cost.elapsed.get() > 0.0);
        let v = NOR_TPEW.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(v.verdict, Verdict::Genuine);
        assert_eq!(v.resolution, "ladder");
        assert!(v.mismatch.unwrap() < 0.05, "ber {:?}", v.mismatch);
    }

    #[test]
    fn blank_chip_rejects() {
        let p = params(0x1001, TestStatus::Accept);
        let mut c = chip(12);
        let enrollment = NOR_TPEW.enroll(&mut c, &p).unwrap();
        let v = NOR_TPEW.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(
            v.verdict,
            Verdict::Counterfeit(CounterfeitReason::NoWatermark)
        );
    }

    #[test]
    fn wear_is_monotone_over_the_lifecycle() {
        let p = params(0x1001, TestStatus::Accept);
        let mut c = chip(13);
        let blank_wear = NOR_TPEW.wear_estimate(&mut c, &p);
        let enrollment = NOR_TPEW.enroll(&mut c, &p).unwrap();
        NOR_TPEW.imprint(&mut c, &p, &enrollment).unwrap();
        let imprinted = NOR_TPEW.wear_estimate(&mut c, &p);
        assert!(imprinted > blank_wear);
        NOR_TPEW.verify(&mut c, &p, &enrollment).unwrap();
        assert!(NOR_TPEW.wear_estimate(&mut c, &p) >= imprinted);
    }

    #[test]
    fn scheme_name_and_imprints() {
        assert_eq!(NOR_TPEW.name(), "nor_tpew");
        assert!(NOR_TPEW.imprints());
    }
}
