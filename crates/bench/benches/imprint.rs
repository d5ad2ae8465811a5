//! Micro-benchmarks for the imprint path (simulator cost; §V timing
//! arithmetic is exercised by the suite's `table1` step).

use std::hint::black_box;

use flashmark_bench::harness::{test_chip, uppercase_ascii_watermark};
use flashmark_bench::microbench::Bench;
use flashmark_core::{FlashmarkConfig, Imprinter};
use flashmark_nor::SegmentAddr;

fn main() {
    let group = Bench::new("imprint").samples(20);
    let wm = uppercase_ascii_watermark(64, 1);

    let cfg = FlashmarkConfig::builder()
        .n_pe(40_000)
        .replicas(7)
        .build()
        .unwrap();
    group.bench_with_setup(
        "bulk_40k_cycles",
        || test_chip(7),
        |mut flash| {
            Imprinter::new(&cfg)
                .imprint(&mut flash, SegmentAddr::new(0), black_box(&wm))
                .unwrap()
        },
    );

    let cfg = FlashmarkConfig::builder()
        .n_pe(25)
        .replicas(7)
        .build()
        .unwrap();
    group.bench_with_setup(
        "faithful_loop_25_cycles",
        || test_chip(8),
        |mut flash| {
            Imprinter::new(&cfg)
                .imprint_via_cycles(&mut flash, SegmentAddr::new(0), black_box(&wm))
                .unwrap()
        },
    );
}
