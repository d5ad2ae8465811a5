//! The paper's closing claim, demonstrated: the Flashmark procedures run on
//! NAND flash **unchanged** through the `FlashInterface` adapter.

use flashmark_core::{
    analyze_segment, characterize_segment, Extractor, FlashmarkConfig, Imprinter, SweepSpec,
    Watermark,
};
use flashmark_nand::{NandChip, NandGeometry, NandWordAdapter};
use flashmark_nor::interface::{FlashInterface, FlashInterfaceExt};
use flashmark_nor::SegmentAddr;
use flashmark_physics::Micros;

fn nand(seed: u64) -> NandWordAdapter {
    NandWordAdapter::new(NandChip::new(NandGeometry::tiny(), seed))
}

#[test]
fn imprint_and_extract_on_nand() {
    let mut flash = nand(0x0AD3);
    let seg = SegmentAddr::new(0);
    let cfg = FlashmarkConfig::builder()
        .n_pe(80_000)
        .replicas(7)
        .t_pew(Micros::new(28.0))
        .build()
        .unwrap();
    let wm = Watermark::from_ascii("NAND-TOO").unwrap();
    Imprinter::new(&cfg).imprint(&mut flash, seg, &wm).unwrap();
    let e = Extractor::new(&cfg)
        .extract(&mut flash, seg, wm.len())
        .unwrap();
    assert_eq!(e.bits(), wm.bits(), "watermark round trip on NAND");
}

#[test]
fn characterization_works_on_nand() {
    let mut flash = nand(0x0AD2);
    let sweep = SweepSpec::new(Micros::new(0.0), Micros::new(50.0), Micros::new(10.0)).unwrap();
    let curve = characterize_segment(&mut flash, SegmentAddr::new(1), &sweep, 3).unwrap();
    assert_eq!(curve.total_cells(), 16_384);
    assert_eq!(
        curve.points[0].cells_0, 16_384,
        "t=0: everything programmed"
    );
    let done = curve
        .all_erased_time()
        .expect("fresh block completes in sweep");
    assert!(done.get() <= 50.0);
}

#[test]
fn analyze_segment_majority_works_on_nand() {
    let mut flash = nand(0x0AD3);
    let bits = analyze_segment(&mut flash, SegmentAddr::new(2), 3).unwrap();
    assert_eq!(bits.len(), 16_384);
    assert!(bits.iter().all(|&b| b), "fresh block reads erased");
}

#[test]
fn nand_imprint_is_far_faster_than_msp430_nor() {
    // The paper: "stand-alone NOR flash memory chips have significantly
    // faster erase and program operations and we expect that their imprint
    // time will be significantly smaller" — NAND's 2 ms block erase makes
    // the point emphatically.
    let mut flash = nand(0x0AD4);
    let cfg = FlashmarkConfig::builder()
        .n_pe(40_000)
        .replicas(3)
        .build()
        .unwrap();
    let wm = Watermark::from_ascii("FAST").unwrap();
    let report = Imprinter::new(&cfg)
        .imprint(&mut flash, SegmentAddr::new(0), &wm)
        .unwrap();
    // MSP430 baseline at 40 K is 1380 s; NAND with per-page programs:
    // 40 K x (2 ms + 4 x ~0.22 ms) ≈ 115 s.
    assert!(
        report.elapsed.get() < 300.0,
        "NAND imprint took {} s",
        report.elapsed.get()
    );
}

#[test]
fn wear_is_permanent_on_nand_too() {
    let mut flash = nand(0x0AD5);
    let seg = SegmentAddr::new(0);
    let cfg = FlashmarkConfig::builder()
        .n_pe(80_000)
        .replicas(5)
        .t_pew(Micros::new(28.0))
        .build()
        .unwrap();
    let wm = Watermark::from_ascii("KEEP").unwrap();
    Imprinter::new(&cfg).imprint(&mut flash, seg, &wm).unwrap();

    // Attacker: erase storm + overwrite.
    for _ in 0..10 {
        flash.erase_segment(seg).unwrap();
        flash.program_all_zero(seg).unwrap();
    }
    flash.erase_segment(seg).unwrap();

    let e = Extractor::new(&cfg)
        .extract(&mut flash, seg, wm.len())
        .unwrap();
    assert_eq!(e.bits(), wm.bits(), "watermark survives the attack on NAND");
}
