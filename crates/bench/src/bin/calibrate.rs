//! Calibration tool: evaluates candidate wear-susceptibility tables and
//! erase-only wear weights against the paper's Fig. 9 BER minima and
//! Fig. 4 all-erased anchors.
//!
//! This is the tool that produced the default `SusceptibilityTable`; it is
//! kept in-tree so the calibration is reproducible when the physics model
//! changes.

use flashmark_core::{Extractor, FlashmarkConfig, Imprinter, SweepSpec};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_physics::{PhysicsParams, SusceptibilityTable};

use flashmark_bench::harness::uppercase_ascii_watermark;

fn min_ber(params: &PhysicsParams, seed: u64, kcycles: f64, sweep: &SweepSpec) -> (f64, f64) {
    let mut flash = FlashController::new(
        params.clone(),
        FlashGeometry::single_bank(2),
        FlashTimings::msp430(),
        seed,
    );
    let seg = SegmentAddr::new(0);
    let wm = uppercase_ascii_watermark(512, seed ^ 0x99);
    let cfg = FlashmarkConfig::builder()
        .n_pe((kcycles * 1000.0) as u64)
        .replicas(1)
        .reads(1)
        .build()
        .expect("valid");
    Imprinter::new(&cfg)
        .imprint(&mut flash, seg, &wm)
        .expect("imprint");
    let mut best = (0.0, f64::INFINITY);
    for t in sweep.times() {
        if t.get() <= 0.0 {
            continue;
        }
        let cfg_t = FlashmarkConfig::builder()
            .n_pe(1)
            .replicas(1)
            .reads(1)
            .t_pew(t)
            .build()
            .expect("valid");
        let e = Extractor::new(&cfg_t)
            .extract(&mut flash, seg, wm.len())
            .expect("extract");
        let ber = e.ber_against(&wm);
        if ber < best.1 {
            best = (t.get(), ber);
        }
    }
    best
}

fn evaluate(label: &str, params: &PhysicsParams) {
    let paper = [(20.0, 19.9), (40.0, 11.8), (60.0, 7.6), (80.0, 2.3)];
    let sweep = SweepSpec::new(
        flashmark_physics::Micros::new(2.0),
        flashmark_physics::Micros::new(80.0),
        flashmark_physics::Micros::new(2.0),
    )
    .expect("valid");
    print!("{label:<28}");
    for (k, target) in paper {
        let (t, ber) = min_ber(params, 0xCA11B, k, &sweep);
        print!(
            "  {k:>3.0}K: {:>5.1}%/{target:<4.1} @{t:>2.0}us",
            ber * 100.0
        );
    }
    println!();
}

fn with_table(quantiles: &[(f64, f64)], erase_only: f64) -> PhysicsParams {
    let mut p = PhysicsParams::msp430_like();
    p.susceptibility =
        SusceptibilityTable::from_quantiles(quantiles.to_vec()).expect("candidate table valid");
    p.wear.erase_only = erase_only;
    p
}

fn main() {
    println!("candidate                     min BER (measured/paper target)");
    evaluate("default", &PhysicsParams::msp430_like());
    hand_tuned_tables();
    scaled_grid();
}

/// The hand-shaped susceptibility tables.
fn hand_tuned_tables() {
    // Steep low-S cluster: weak responders concentrated at S in 0.02-0.10
    // so each stress level samples a different CDF slice.
    let steep: [(f64, f64); 12] = [
        (0.000, 0.018),
        (0.020, 0.024),
        (0.050, 0.028),
        (0.122, 0.036),
        (0.190, 0.046),
        (0.320, 0.092),
        (0.400, 0.250),
        (0.470, 0.700),
        (0.520, 1.000),
        (0.560, 1.020),
        (0.900, 1.060),
        (1.000, 1.150),
    ];
    evaluate("steep cluster, eo 0.02", &with_table(&steep, 0.02));
    // Same idea but with the cluster shifted up to S in 0.03-0.15, thinning
    // the floor shared by all levels.
    let shifted: [(f64, f64); 11] = [
        (0.000, 0.018),
        (0.015, 0.030),
        (0.060, 0.040),
        (0.150, 0.055),
        (0.260, 0.090),
        (0.340, 0.150),
        (0.400, 0.250),
        (0.470, 0.700),
        (0.520, 1.000),
        (0.900, 1.060),
        (1.000, 1.150),
    ];
    evaluate("shifted cluster, eo 0.02", &with_table(&shifted, 0.02));
    let lighter: Vec<(f64, f64)> = shifted
        .iter()
        .map(|&(u, s)| {
            if s < 0.5 && u > 0.0 {
                (u * 0.8, s)
            } else {
                (u, s)
            }
        })
        .collect();
    evaluate("shifted x0.8, eo 0.02", &with_table(&lighter, 0.02));

    // Endpoint-matched: thin the sub-0.05 floor for the 80K target while
    // keeping the 20K mass.
    let endpoint: [(f64, f64); 11] = [
        (0.000, 0.018),
        (0.010, 0.035),
        (0.040, 0.048),
        (0.110, 0.058),
        (0.240, 0.090),
        (0.330, 0.150),
        (0.400, 0.250),
        (0.470, 0.700),
        (0.520, 1.000),
        (0.900, 1.060),
        (1.000, 1.150),
    ];
    evaluate("endpoint, eo 0.02", &with_table(&endpoint, 0.02));
    // Midpoint between `shifted` and `endpoint` in the 0.04-0.06 band.
    let mid: [(f64, f64); 11] = [
        (0.000, 0.018),
        (0.012, 0.032),
        (0.050, 0.044),
        (0.130, 0.056),
        (0.250, 0.090),
        (0.335, 0.150),
        (0.400, 0.250),
        (0.470, 0.700),
        (0.520, 1.000),
        (0.900, 1.060),
        (1.000, 1.150),
    ];
    evaluate("mid, eo 0.02", &with_table(&mid, 0.02));
    // Endpoint with a fattened 0.09-0.25 band to lift the 20K minimum.
    let endpoint_fat: [(f64, f64); 11] = [
        (0.000, 0.018),
        (0.010, 0.035),
        (0.040, 0.048),
        (0.110, 0.058),
        (0.300, 0.090),
        (0.390, 0.150),
        (0.450, 0.250),
        (0.490, 0.700),
        (0.530, 1.000),
        (0.900, 1.060),
        (1.000, 1.150),
    ];
    evaluate("endpoint fat, eo 0.02", &with_table(&endpoint_fat, 0.02));
}

/// Candidate grid: scale the weak-responder mass and good-cell wear.
fn scaled_grid() {
    for &(label, scale, erase_only) in &[
        ("weak x1.4, eo 0.02", 1.4, 0.02),
        ("weak x1.8, eo 0.02", 1.8, 0.02),
        ("weak x1.8, eo 0.06", 1.8, 0.06),
        ("weak x2.2, eo 0.06", 2.2, 0.06),
        ("weak x2.6, eo 0.10", 2.6, 0.10),
    ] {
        let base: [(f64, f64); 10] = [
            (0.000, 0.020),
            (0.015, 0.045),
            (0.045, 0.065),
            (0.150, 0.085),
            (0.240, 0.125),
            (0.400, 0.250),
            (0.470, 0.700),
            (0.520, 1.000),
            (0.900, 1.060),
            (1.000, 1.150),
        ];
        let scaled: Vec<(f64, f64)> = base
            .iter()
            .map(|&(u, s)| {
                if s < 0.5 {
                    ((u * scale).min(0.52), s)
                } else {
                    (u, s)
                }
            })
            .collect();
        // Re-monotonize the probability column after scaling.
        let mut fixed = scaled;
        for i in 1..fixed.len() {
            if fixed[i].0 < fixed[i - 1].0 {
                fixed[i].0 = fixed[i - 1].0;
            }
        }
        evaluate(label, &with_table(&fixed, erase_only));
    }
}
