//! The forming-voltage watermark as a [`WatermarkScheme`].
//!
//! [`ReramScheme`] runs the *unchanged* Flashmark imprint/extract/verify
//! procedures against a [`ReramWordAdapter`]: the watermark is deposited
//! as forming-voltage stress (one pass, milliseconds) instead of an
//! erase/program wear loop (hundreds of seconds), and read back with the
//! same `tPEW`-aborted reset the paper uses on NOR. The scheme name in
//! campaign artifacts and registry records is `"reram_forming"`.

use flashmark_core::config::FlashmarkConfig;
use flashmark_core::extract::{Extraction, Extractor};
use flashmark_core::imprint::Imprinter;
use flashmark_core::scheme::{ImprintCost, SchemeError, SchemeVerification, WatermarkScheme};
use flashmark_core::verify::Verifier;
use flashmark_core::watermark::{Watermark, WatermarkRecord, RECORD_BITS};
use flashmark_nor::SegmentAddr;

use crate::adapter::ReramWordAdapter;

/// Parameters of a ReRAM forming-watermark campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ReramParams {
    /// Flashmark operating point (`NPE` here is the equivalent forming
    /// stress in P/E cycles; `tPEW` is the aborted-reset duration).
    pub config: FlashmarkConfig,
    /// The reserved watermark segment.
    pub seg: SegmentAddr,
    /// Manufacturer ID the inspector expects in the record.
    pub manufacturer_id: u16,
    /// The record the manufacturer imprints at forming.
    pub record: WatermarkRecord,
}

/// ReRAM enrollment: the signed record and its imprintable bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ReramEnrollment {
    /// The die-sort record (identity, grade, status, CRC-16).
    pub record: WatermarkRecord,
    /// The record as the imprinted watermark pattern.
    pub watermark: Watermark,
}

/// The forming-voltage ReRAM scheme behind the [`WatermarkScheme`] facade.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReramScheme;

impl WatermarkScheme for ReramScheme {
    type Chip = ReramWordAdapter;
    type Params = ReramParams;
    type Enrollment = ReramEnrollment;
    type Evidence = Extraction;

    fn name(&self) -> &'static str {
        "reram_forming"
    }

    fn enroll(
        &self,
        _chip: &mut ReramWordAdapter,
        params: &ReramParams,
    ) -> Result<ReramEnrollment, SchemeError> {
        Ok(ReramEnrollment {
            record: params.record,
            watermark: params.record.to_watermark(),
        })
    }

    fn imprint(
        &self,
        chip: &mut ReramWordAdapter,
        params: &ReramParams,
        enrollment: &ReramEnrollment,
    ) -> Result<ImprintCost, SchemeError> {
        let report =
            Imprinter::new(&params.config).imprint(chip, params.seg, &enrollment.watermark)?;
        Ok(ImprintCost {
            cycles: report.cycles,
            elapsed: report.elapsed,
        })
    }

    fn extract(
        &self,
        chip: &mut ReramWordAdapter,
        params: &ReramParams,
        _enrollment: &ReramEnrollment,
    ) -> Result<Extraction, SchemeError> {
        Ok(Extractor::new(&params.config).extract(chip, params.seg, RECORD_BITS)?)
    }

    fn verify(
        &self,
        chip: &mut ReramWordAdapter,
        params: &ReramParams,
        enrollment: &ReramEnrollment,
    ) -> Result<SchemeVerification, SchemeError> {
        let report = Verifier::new(params.config.clone(), params.manufacturer_id)
            .verify_resilient(chip, params.seg)?;
        let mismatch = self.evidence_mismatch(enrollment, &report.extraction);
        Ok(SchemeVerification {
            verdict: report.verdict,
            resolution: report.resolution.strategy(),
            mismatch,
        })
    }

    fn evidence_mismatch(
        &self,
        enrollment: &ReramEnrollment,
        evidence: &Extraction,
    ) -> Option<f64> {
        (evidence.bits().len() == enrollment.watermark.len())
            .then(|| evidence.ber_against(&enrollment.watermark))
    }

    fn wear_estimate(&self, chip: &mut ReramWordAdapter, params: &ReramParams) -> f64 {
        chip.chip_mut().wear_stats(params.seg).mean_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ReramChip;
    use flashmark_core::pipeline::{inspect, provision};
    use flashmark_core::verify::{CounterfeitReason, Verdict};
    use flashmark_core::watermark::TestStatus;
    use flashmark_nor::FlashGeometry;
    use flashmark_physics::Micros;

    fn chip(seed: u64) -> ReramWordAdapter {
        ReramWordAdapter::new(ReramChip::new(FlashGeometry::single_bank(8), seed))
    }

    fn params(manufacturer_id: u16, status: TestStatus) -> ReramParams {
        ReramParams {
            config: FlashmarkConfig::builder()
                .n_pe(60_000)
                .replicas(7)
                .t_pew(Micros::new(28.0))
                .build()
                .unwrap(),
            seg: SegmentAddr::new(0),
            manufacturer_id,
            record: WatermarkRecord {
                manufacturer_id,
                die_id: 42,
                speed_grade: 1,
                status,
                year_week: 2033,
            },
        }
    }

    #[test]
    fn genuine_roundtrip_verifies() {
        let scheme = ReramScheme;
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(101);
        let (enrollment, cost) = provision(&scheme, &mut c, &p).unwrap();
        let v = inspect(&scheme, &mut c, &p, &enrollment).unwrap();
        assert_eq!(v.verdict, Verdict::Genuine, "resolution {}", v.resolution);
        assert_eq!(cost.cycles, 60_000);
        // Forming is a single millisecond-class pass, not a wear loop.
        assert!(cost.elapsed.get() < 1.0, "imprint took {}", cost.elapsed);
    }

    #[test]
    fn blank_chip_rejects() {
        let scheme = ReramScheme;
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(102);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let v = scheme.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(
            v.verdict,
            Verdict::Counterfeit(CounterfeitReason::NoWatermark)
        );
    }

    #[test]
    fn extraction_recovers_the_record_bits() {
        let scheme = ReramScheme;
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(103);
        let (enrollment, _) = provision(&scheme, &mut c, &p).unwrap();
        let evidence = scheme.extract(&mut c, &p, &enrollment).unwrap();
        let ber = scheme.evidence_mismatch(&enrollment, &evidence).unwrap();
        assert!(ber < 0.10, "reram BER {ber}");
    }

    #[test]
    fn wear_is_monotone_over_the_lifecycle() {
        let scheme = ReramScheme;
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(104);
        let blank = scheme.wear_estimate(&mut c, &p);
        let (enrollment, _) = provision(&scheme, &mut c, &p).unwrap();
        let formed = scheme.wear_estimate(&mut c, &p);
        assert!(formed > blank);
        inspect(&scheme, &mut c, &p, &enrollment).unwrap();
        assert!(scheme.wear_estimate(&mut c, &p) >= formed);
    }

    #[test]
    fn scheme_name_and_imprints() {
        assert_eq!(ReramScheme.name(), "reram_forming");
        assert!(ReramScheme.imprints());
    }
}
