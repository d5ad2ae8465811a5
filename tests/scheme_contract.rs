//! The shared `WatermarkScheme` contract, property-tested over every
//! backend (NOR tPEW, intrinsic NAND PUF, ReRAM forming):
//!
//! * provision (enroll + imprint) followed by verify on the same chip
//!   accepts — the genuine path holds at any chip seed;
//! * inspecting a blank chip against another die's enrollment rejects —
//!   the forgery asymmetry holds at any seed pair;
//! * imprinting never *decreases* the wear estimate, and wear-based
//!   schemes strictly increase it (the intrinsic NAND PUF is free);
//! * the one tPEW scheme is pure delegation on both chips it runs on:
//!   provision + verify lands exactly what a direct `Imprinter::imprint`
//!   + `Verifier::verify_resilient` lands on an identically seeded chip;
//! * the differential backend campaign artifact is byte-identical at
//!   `--threads 1` and `--threads 8` for arbitrary campaign seeds.

use proptest::prelude::*;

use flashmark::prelude::*;
use flashmark_bench::backend_campaign::{run_backend_campaign, BackendCampaignOptions};
use flashmark_bench::json::ToJson as _;
use flashmark_core::{FlashmarkConfig, Imprinter, TestStatus, Verifier, WatermarkRecord};
use flashmark_nand::{BlockAddr, NandChip, NandGeometry};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_physics::{Micros, PhysicsParams};
use flashmark_reram::{reram_like, reram_timings};

const MANUFACTURER: u16 = 0x1A2B;

fn record(status: TestStatus) -> WatermarkRecord {
    WatermarkRecord {
        manufacturer_id: MANUFACTURER,
        die_id: 11,
        speed_grade: 1,
        status,
        year_week: 2031,
    }
}

fn config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(7)
        .t_pew(Micros::new(28.0))
        .build()
        .expect("config")
}

fn nor_chip(seed: u64) -> FlashController {
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(8),
        FlashTimings::msp430(),
        seed,
    )
}

fn nor_params(status: TestStatus) -> TpewParams {
    TpewParams {
        config: config(),
        seg: SegmentAddr::new(0),
        manufacturer_id: MANUFACTURER,
        record: record(status),
    }
}

fn nand_chip(seed: u64) -> NandChip {
    NandChip::new(NandGeometry::tiny(), seed)
}

fn nand_params() -> NandPufParams {
    NandPufParams {
        block: BlockAddr::new(0),
        manufacturer_id: MANUFACTURER,
        record: record(TestStatus::Accept),
    }
}

fn reram_chip(seed: u64) -> FlashController {
    FlashController::new(
        reram_like(),
        FlashGeometry::single_bank(8),
        reram_timings(),
        seed,
    )
}

fn reram_params(status: TestStatus) -> TpewParams {
    // The ReRAM operating point: forming stress is a single pass whatever
    // the level, so the campaign cranks stress and replica count to absorb
    // the wider filament-geometry variation (see `reram_config` in bench).
    TpewParams {
        config: FlashmarkConfig::builder()
            .n_pe(90_000)
            .replicas(21)
            .t_pew(Micros::new(28.0))
            .build()
            .expect("config"),
        seg: SegmentAddr::new(0),
        manufacturer_id: MANUFACTURER,
        record: record(status),
    }
}

/// The genuine / blank / wear-monotonicity contract, scheme-generically.
fn contract<S: WatermarkScheme>(
    scheme: &S,
    params: &S::Params,
    mk: impl Fn(u64) -> S::Chip,
    seed: u64,
) -> Result<(), String> {
    // Genuine: provision then verify the same chip.
    let mut chip = mk(seed);
    let wear_before = scheme.wear_estimate(&mut chip, params);
    let (enrollment, cost) =
        provision(scheme, &mut chip, params).map_err(|e| format!("provision: {e}"))?;
    let wear_after = scheme.wear_estimate(&mut chip, params);
    if scheme.imprints() {
        if cost.cycles == 0 {
            return Err("wear-based scheme reported a free imprint".into());
        }
        if wear_after <= wear_before {
            return Err(format!(
                "imprint did not increase wear ({wear_before} -> {wear_after})"
            ));
        }
    } else {
        if cost.cycles != 0 {
            return Err("intrinsic scheme reported an imprint cost".into());
        }
        if wear_after < wear_before {
            return Err(format!(
                "wear decreased without an imprint ({wear_before} -> {wear_after})"
            ));
        }
    }
    let genuine = scheme
        .verify(&mut chip, params, &enrollment)
        .map_err(|e| format!("genuine verify: {e}"))?;
    if genuine.verdict != Verdict::Genuine {
        return Err(format!("genuine chip judged {:?}", genuine.verdict));
    }

    // Blank: a different die never passes another die's enrollment.
    let mut blank = mk(seed ^ 0x5DEE_CE55_0000_0001);
    let forged = scheme
        .verify(&mut blank, params, &enrollment)
        .map_err(|e| format!("blank verify: {e}"))?;
    if !matches!(forged.verdict, Verdict::Counterfeit(_)) {
        return Err(format!("blank chip judged {:?}", forged.verdict));
    }
    Ok(())
}

/// The tPEW scheme against the direct pipeline on an identically seeded
/// chip: verdict, resolution and mismatch must agree bit for bit.
fn matches_direct_pipeline(
    scheme: &TpewScheme,
    params: &TpewParams,
    mk: impl Fn(u64) -> FlashController,
    seed: u64,
) -> Result<(), String> {
    let mut via_scheme = mk(seed);
    let (enrollment, _) =
        provision(scheme, &mut via_scheme, params).map_err(|e| format!("provision: {e}"))?;
    let v = scheme
        .verify(&mut via_scheme, params, &enrollment)
        .map_err(|e| format!("scheme verify: {e}"))?;

    let mut direct = mk(seed);
    let watermark = params.record.to_watermark();
    Imprinter::new(&params.config)
        .imprint(&mut direct, params.seg, &watermark)
        .map_err(|e| format!("imprint: {e}"))?;
    let report = Verifier::new(params.config.clone(), params.manufacturer_id)
        .verify_resilient(&mut direct, params.seg)
        .map_err(|e| format!("direct verify: {e}"))?;
    let mismatch = (report.extraction.bits().len() == watermark.len())
        .then(|| report.extraction.ber_against(&watermark));

    if v.verdict != report.verdict {
        return Err(format!("verdict {:?} vs {:?}", v.verdict, report.verdict));
    }
    if v.resolution != report.resolution.strategy() {
        return Err(format!(
            "resolution {} vs {}",
            v.resolution,
            report.resolution.strategy()
        ));
    }
    if v.mismatch.map(f64::to_bits) != mismatch.map(f64::to_bits) {
        return Err(format!("mismatch {:?} vs {mismatch:?}", v.mismatch));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn nor_tpew_satisfies_the_scheme_contract(seed in 0u64..1u64 << 48) {
        contract(&NOR_TPEW, &nor_params(TestStatus::Accept), nor_chip, seed).unwrap();
    }

    #[test]
    fn nand_puf_satisfies_the_scheme_contract(seed in 0u64..1u64 << 48) {
        contract(&NandPuf, &nand_params(), nand_chip, seed).unwrap();
    }

    #[test]
    fn reram_forming_satisfies_the_scheme_contract(seed in 0u64..1u64 << 48) {
        contract(&RERAM_FORMING, &reram_params(TestStatus::Accept), reram_chip, seed).unwrap();
    }

    #[test]
    fn tpew_scheme_matches_the_direct_pipeline(seed in 0u64..1u64 << 48, reject in any::<bool>()) {
        let status = if reject { TestStatus::Reject } else { TestStatus::Accept };
        matches_direct_pipeline(&NOR_TPEW, &nor_params(status), nor_chip, seed).unwrap();
        matches_direct_pipeline(&RERAM_FORMING, &reram_params(status), reram_chip, seed).unwrap();
    }

    #[test]
    fn backend_campaign_is_thread_invariant_at_any_seed(seed in 0u64..1u64 << 32) {
        let mut serial = BackendCampaignOptions::tiny(1);
        serial.seed = seed;
        let mut parallel = BackendCampaignOptions::tiny(8);
        parallel.seed = seed;
        let a = run_backend_campaign(&serial).unwrap().to_json().pretty();
        let b = run_backend_campaign(&parallel).unwrap().to_json().pretty();
        prop_assert_eq!(a, b);
    }
}
