//! Scheme-generic pipeline entry points.
//!
//! These are the high-level flows campaign drivers and services compose,
//! written once against [`WatermarkScheme`] so they run unchanged over NOR
//! tPEW wear, ReRAM forming stress, and intrinsic NAND PUF backends:
//!
//! * [`provision`] — the manufacturer flow: enroll, then imprint.
//! * [`inspect`] — the inspector flow: verify against an enrollment.

use crate::scheme::{ImprintCost, SchemeError, SchemeVerification, WatermarkScheme};

/// The manufacturer provisioning flow: enroll the chip, then imprint the
/// enrollment's mark. For intrinsic schemes the imprint is a free no-op and
/// the cost comes back zero.
///
/// # Errors
///
/// Backend or parameter errors from either step.
pub fn provision<S: WatermarkScheme>(
    scheme: &S,
    chip: &mut S::Chip,
    params: &S::Params,
) -> Result<(S::Enrollment, ImprintCost), SchemeError> {
    let enrollment = scheme.enroll(chip, params)?;
    let cost = scheme.imprint(chip, params, &enrollment)?;
    Ok((enrollment, cost))
}

/// The inspector flow: verify a chip against its published enrollment.
///
/// # Errors
///
/// Non-transient backend errors only; fault conditions degrade to
/// [`Verdict::Inconclusive`](crate::verify::Verdict::Inconclusive) inside
/// the returned verification.
pub fn inspect<S: WatermarkScheme>(
    scheme: &S,
    chip: &mut S::Chip,
    params: &S::Params,
    enrollment: &S::Enrollment,
) -> Result<SchemeVerification, SchemeError> {
    scheme.verify(chip, params, enrollment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashmarkConfig;
    use crate::nor_scheme::{NorTpew, NorTpewParams};
    use crate::verify::Verdict;
    use crate::watermark::{TestStatus, WatermarkRecord};
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
    use flashmark_physics::PhysicsParams;

    #[test]
    fn provision_then_inspect_accepts_genuine() {
        let p = NorTpewParams {
            config: FlashmarkConfig::builder()
                .n_pe(80_000)
                .replicas(7)
                .t_pew(flashmark_physics::Micros::new(28.0))
                .build()
                .unwrap(),
            seg: SegmentAddr::new(0),
            manufacturer_id: 0xAA01,
            record: WatermarkRecord {
                manufacturer_id: 0xAA01,
                die_id: 99,
                speed_grade: 1,
                status: TestStatus::Accept,
                year_week: 2214,
            },
        };
        let mut c = FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            31,
        );
        let (enrollment, cost) = provision(&NorTpew, &mut c, &p).unwrap();
        let v = inspect(&NorTpew, &mut c, &p, &enrollment).unwrap();
        assert_eq!(v.verdict, Verdict::Genuine);
        assert!(cost.cycles > 0);
    }
}
