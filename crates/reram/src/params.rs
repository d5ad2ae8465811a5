//! ReRAM cell-population and timing presets.
//!
//! The watermark mechanism on resistive memory ("Watermarked ReRAM",
//! arXiv 2204.02104) is the same wear asymmetry Flashmark exploits on NOR,
//! with the stress applied at **forming time**: cells formed at an elevated
//! forming voltage carry permanently degraded filaments, which switch
//! (reset toward the high-resistance state) measurably slower for the rest
//! of the device's life. The shared physics engine models this directly —
//! the cell-state vocabulary maps as
//!
//! | NOR concept                | ReRAM concept                           |
//! |----------------------------|-----------------------------------------|
//! | erased (reads 1)           | high-resistance state (HRS)             |
//! | programmed (reads 0)       | low-resistance state (LRS)              |
//! | erase pulse                | reset pulse                             |
//! | P/E-cycle oxide wear       | filament degradation (forming stress)   |
//! | partial erase at `tPEW`    | aborted reset at `tPEW`                 |
//!
//! so the calibrated wear → switching-time machinery (and the published
//! `tPEW` extraction window) carries over unchanged. What differs — and
//! what [`reram_like`] encodes — is the population statistics:
//!
//! * **much wider device-to-device and cycle-to-cycle variation** —
//!   filament geometry is stochastic, so threshold spreads and per-pulse
//!   jitter are 2–3× the NOR figures (higher raw BER, countered by the
//!   same replica voting);
//! * **set/reset endurance asymmetry** — the set transition (filament
//!   growth) degrades the cell far more than reset (filament dissolution),
//!   so the wear weights are 0.70/0.30 instead of NOR's 0.55/0.45, and a
//!   reset pulse on an already-reset cell costs twice the NOR figure;
//! * **lower rated endurance** (60 K cycles) with a steeper per-kcycle
//!   state shift — forming stress leaves a stronger per-cycle signature.
//!
//! A ReRAM part runs on the NOR `FlashController`, whose operations map
//! one-for-one: program is **set** (to the low-resistance state, reads 0),
//! erase is **reset** (to the high-resistance state, reads 1), and the
//! bulk imprint is the one-time **forming** pass that carries the
//! watermark. [`reram_timings`] holds the part's operation durations in
//! those flash names.

use flashmark_nor::{FlashTimings, FormingPass};
use flashmark_physics::variation::{LogNormal, Normal};
use flashmark_physics::{Micros, PhysicsParams, TailParams, Volts, WearWeights};

/// Calibrated maximum forming stress, in equivalent P/E cycles. Forming at
/// voltages beyond this range destroys filaments outright instead of
/// degrading them, so the emulation refuses it.
pub const MAX_FORMING_CYCLES: u64 = 200_000;

/// Wear contribution of ReRAM operations: set (filament growth) dominates,
/// reset is mild, and a redundant reset on an already-reset cell still
/// nudges the filament twice as hard as NOR's erase-only figure.
#[must_use]
pub fn reram_wear_weights() -> WearWeights {
    WearWeights {
        program: 0.70,
        erase: 0.30,
        erase_only: 0.04,
    }
}

/// Parameters of a HfO₂-filament ReRAM population, expressed in the shared
/// physics vocabulary (see the module docs for the state mapping).
#[must_use]
pub fn reram_like() -> PhysicsParams {
    let mut p = PhysicsParams::msp430_like();
    // Stochastic filament geometry: wide static spreads, strong
    // cycle-to-cycle jitter, noisier resistive sensing.
    p.vth_erased = Normal::new(1.8, 0.12);
    p.vth_programmed = Normal::new(5.6, 0.18);
    p.read_noise_sigma = 0.06;
    p.op_jitter_sigma = 0.05;
    p.common_jitter_sigma = 0.05;
    // Forming stress signature: lower endurance, steeper per-kcycle state
    // shift (the watermark signal per equivalent cycle is ~2x NOR's).
    p.endurance_kcycles = 60.0;
    p.erased_vth_shift_per_kcycle = 0.008;
    p.programmed_vth_shift_per_kcycle = 0.004;
    p.wear = reram_wear_weights();
    // Set/reset transitions are field-driven, not thermally activated the
    // way Fowler-Nordheim tunneling is: a weaker temperature dependence.
    p.erase_activation_energy_ev = 0.04;
    // Stressed filaments "break through" early more often than worn flash
    // oxide: a fatter early-switcher tail sharpens the forgery asymmetry.
    p.tails = TailParams {
        straggler_prob: 0.03,
        straggler_max_extra: 0.40,
        early_prob_cap: 0.04,
        early_activation_span_kcycles: 80.0,
        ..TailParams::default()
    };
    // Set pulses are ~100 ns-class; modelled at the sub-µs scale (the reset
    // calibration stays on the shared µs grid so tPEW carries over).
    p.prog_full_time_us = LogNormal::new(0.9, 0.12);
    p.prog_speedup_per_kcycle = 0.008;
    p.vref = Volts::new(3.2);
    debug_assert!(p.validate().is_ok());
    p
}

/// Operation timings of a HfO₂ filamentary part in flash names:
/// 100 ns-class set/reset, µs-class driver overheads, and a ms-class
/// forming pass — orders of magnitude faster than flash erase, which is
/// what makes the forming watermark physically cheap.
///
/// Reset is the segment and mass erase (it must exceed the slowest cell's
/// switching time at any calibrated wear), set is the word and block
/// program. ReRAM has no cumulative-program (`tCPT`) budget, so that
/// limit is 0, and the forming pass is refused above
/// [`MAX_FORMING_CYCLES`].
#[must_use]
pub fn reram_timings() -> FlashTimings {
    FlashTimings {
        erase_segment: Micros::from_millis(2.0),
        mass_erase: Micros::from_millis(2.0),
        program_word: Micros::new(1.2),
        block_write_word: Micros::new(0.4),
        block_write_overhead: Micros::new(20.0),
        read_word: Micros::new(0.05),
        abort_latency: Micros::new(1.0),
        setup_overhead: Micros::new(5.0),
        cumulative_program_limit: Micros::new(0.0),
        forming: Some(FormingPass {
            pass: Micros::from_millis(4.0),
            max_cycles: MAX_FORMING_CYCLES,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::FlashInterface;
    use flashmark_nor::{
        BulkStress, FlashController, FlashGeometry, ImprintTiming, NorError, SegmentAddr,
    };

    // The timing schedule is an erase-loop concept a forming pass ignores.
    const FORM: ImprintTiming = ImprintTiming::Accelerated;

    fn chip() -> FlashController {
        FlashController::new(
            reram_like(),
            FlashGeometry::single_bank(8),
            reram_timings(),
            0x2E2A,
        )
    }

    #[test]
    fn preset_is_valid() {
        reram_like().validate().unwrap();
    }

    #[test]
    fn full_cycle_wear_is_one_but_asymmetric() {
        let w = reram_wear_weights();
        assert!((w.program + w.erase - 1.0).abs() < 1e-12);
        assert!(w.program > 2.0 * w.erase, "set must dominate reset wear");
        assert!(w.erase_only > WearWeights::default().erase_only);
    }

    #[test]
    fn variation_is_wider_than_nor() {
        let r = reram_like();
        let n = PhysicsParams::msp430_like();
        assert!(r.vth_erased.sigma > n.vth_erased.sigma);
        assert!(r.read_noise_sigma > n.read_noise_sigma);
        assert!(r.op_jitter_sigma > n.op_jitter_sigma);
    }

    #[test]
    fn forming_signature_is_steeper_at_lower_endurance() {
        let r = reram_like();
        let n = PhysicsParams::msp430_like();
        assert!(r.endurance_kcycles < n.endurance_kcycles);
        assert!(r.erased_vth_shift_per_kcycle > n.erased_vth_shift_per_kcycle);
    }

    #[test]
    fn forming_is_a_single_cheap_pass() {
        let mut c = chip();
        let dt = c
            .bulk_imprint(SegmentAddr::new(2), &[0u16; 256], 60_000, FORM)
            .unwrap();
        // One pass: milliseconds, not the NOR loop's hundreds of seconds.
        assert!(dt.get() < 0.05, "forming took {dt}");
        let wear = c.wear_stats(SegmentAddr::new(2));
        assert!(wear.max_cycles > 50_000.0, "wear {wear:?}");
    }

    #[test]
    fn forming_beyond_calibration_refused() {
        let mut c = chip();
        let err = c
            .bulk_imprint(
                SegmentAddr::new(0),
                &[0u16; 256],
                MAX_FORMING_CYCLES + 1,
                FORM,
            )
            .unwrap_err();
        assert!(matches!(err, NorError::WearModelRange { .. }));
    }

    #[test]
    fn stressed_cells_switch_slower_under_partial_reset() {
        let mut c = chip();
        let seg = SegmentAddr::new(3);
        // Stress the low half of the segment, spare the high half.
        let mut pattern = vec![0xFFFFu16; 256];
        for w in pattern.iter_mut().take(128) {
            *w = 0x0000;
        }
        c.bulk_imprint(seg, &pattern, 60_000, FORM).unwrap();
        c.program_block(seg, &[0u16; 256]).unwrap();
        c.partial_erase(seg, Micros::new(28.0)).unwrap();
        let words = c.read_block(seg).unwrap();
        let zeros = |ws: &[u16]| ws.iter().map(|w| w.count_zeros() as usize).sum::<usize>();
        let stressed_zeros = zeros(&words[..128]);
        let spared_zeros = zeros(&words[128..]);
        assert!(
            stressed_zeros > spared_zeros + 500,
            "stressed {stressed_zeros} vs spared {spared_zeros}"
        );
        // A full reset outlasts the slowest stressed filament.
        c.erase_segment(seg).unwrap();
        assert!(c.read_block(seg).unwrap().iter().all(|&w| w == 0xFFFF));
    }

    #[test]
    fn reset_until_clean_tracks_forming_stress() {
        let mut fresh = chip();
        let mut formed = chip();
        let seg = SegmentAddr::new(4);
        formed
            .bulk_imprint(seg, &[0u16; 256], 60_000, FORM)
            .unwrap();
        for c in [&mut fresh, &mut formed] {
            c.program_block(seg, &[0u16; 256]).unwrap();
        }
        let t_fresh = fresh.erase_until_clean(seg).unwrap();
        let t_formed = formed.erase_until_clean(seg).unwrap();
        assert!(
            t_formed.get() > t_fresh.get(),
            "formed {t_formed} <= fresh {t_fresh}"
        );
    }
}
