//! The forming-voltage watermark: the tPEW scheme on a ReRAM part.
//!
//! [`RERAM_FORMING`] runs the *unchanged* Flashmark imprint/extract/verify
//! procedures, through core's one [`TpewScheme`], against a
//! `FlashController` built with the [`reram_like`](crate::reram_like) and
//! [`reram_timings`](crate::reram_timings) presets: the watermark is
//! deposited as forming-voltage stress (one pass, milliseconds) instead of
//! an erase/program wear loop (hundreds of seconds), and read back with
//! the same `tPEW`-aborted reset the paper uses on NOR.

use flashmark_core::nor_scheme::TpewScheme;

/// The forming-voltage ReRAM scheme.
pub const RERAM_FORMING: TpewScheme = TpewScheme {
    name: "reram_forming",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reram_like, reram_timings};
    use flashmark_core::config::FlashmarkConfig;
    use flashmark_core::nor_scheme::TpewParams;
    use flashmark_core::pipeline::provision;
    use flashmark_core::scheme::WatermarkScheme;
    use flashmark_core::verify::{CounterfeitReason, Verdict};
    use flashmark_core::watermark::{TestStatus, WatermarkRecord};
    use flashmark_nor::{FlashController, FlashGeometry, SegmentAddr};
    use flashmark_physics::Micros;

    fn chip(seed: u64) -> FlashController {
        FlashController::new(
            reram_like(),
            FlashGeometry::single_bank(8),
            reram_timings(),
            seed,
        )
    }

    fn params(manufacturer_id: u16, status: TestStatus) -> TpewParams {
        TpewParams {
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
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(101);
        let (enrollment, cost) = provision(&RERAM_FORMING, &mut c, &p).unwrap();
        let v = RERAM_FORMING.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(v.verdict, Verdict::Genuine, "resolution {}", v.resolution);
        assert!(v.mismatch.unwrap() < 0.10, "reram BER {:?}", v.mismatch);
        assert_eq!(cost.cycles, 60_000);
        // Forming is a single millisecond-class pass, not a wear loop.
        assert!(cost.elapsed.get() < 1.0, "imprint took {}", cost.elapsed);
    }

    #[test]
    fn blank_chip_rejects() {
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(102);
        let enrollment = RERAM_FORMING.enroll(&mut c, &p).unwrap();
        let v = RERAM_FORMING.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(
            v.verdict,
            Verdict::Counterfeit(CounterfeitReason::NoWatermark)
        );
    }

    #[test]
    fn wear_is_monotone_over_the_lifecycle() {
        let p = params(0x3003, TestStatus::Accept);
        let mut c = chip(104);
        let blank = RERAM_FORMING.wear_estimate(&mut c, &p);
        let (enrollment, _) = provision(&RERAM_FORMING, &mut c, &p).unwrap();
        let formed = RERAM_FORMING.wear_estimate(&mut c, &p);
        assert!(formed > blank);
        RERAM_FORMING.verify(&mut c, &p, &enrollment).unwrap();
        assert!(RERAM_FORMING.wear_estimate(&mut c, &p) >= formed);
    }

    #[test]
    fn scheme_name_and_imprints() {
        assert_eq!(RERAM_FORMING.name(), "reram_forming");
        assert!(RERAM_FORMING.imprints());
    }
}
