//! The flash-protocol sanitizer in action: a clean run, then three injected
//! protocol faults, with the violation reports printed as a firmware
//! developer would see them.
//!
//! ```text
//! cargo run --example sanitizer
//! ```

use flashmark::core::{run_sanitized, Extractor, FlashmarkConfig, Imprinter, Watermark};
use flashmark::msp430::Msp430Flash;
use flashmark::nor::{FlashInterface, SegmentAddr, WordAddr};
use flashmark::physics::Micros;
use flashmark::sanitizer::SanitizedFlash;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The reference flows are protocol-clean. ---
    let mut chip = Msp430Flash::f5438(0xC0FFEE);
    let seg = chip.watermark_segment();
    let config = FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(3)
        .build()?;
    let wm = Watermark::from_ascii("TC")?;

    let (imprint, imprint_violations) =
        run_sanitized(&mut chip, |f| Imprinter::new(&config).imprint(f, seg, &wm));
    imprint?;
    let (extract, extract_violations) = run_sanitized(&mut chip, |f| {
        Extractor::new(&config).extract(f, seg, wm.len())
    });
    println!(
        "imprint -> extract: recovered {:?}, imprint clean: {}, extract clean: {}",
        extract?.to_watermark()?.to_ascii().unwrap_or_default(),
        imprint_violations.is_empty(),
        extract_violations.is_empty()
    );

    // --- 2. Injected faults are caught with backtraces. ---
    let mut flash = SanitizedFlash::new(Msp430Flash::f5438(7)).record_reads(true);
    let seg = SegmentAddr::new(0);
    let word = WordAddr::new(3);

    flash.erase_segment(seg)?;
    flash.program_word(word, 0x1234)?;
    flash.program_word(word, 0x0F0F)?; // overprogram: no erase in between

    flash.read_word(word)?;
    flash.partial_erase(seg, Micros::new(20.0))?; // missing program_all_zero

    let bogus = SegmentAddr::new(9_999);
    let _ = flash.erase_segment(bogus); // out of range; refused AND reported

    println!(
        "\n{} violation(s) from 3 injected faults:",
        flash.violations().len()
    );
    for v in flash.violations() {
        println!("\n{v}");
    }
    Ok(())
}
