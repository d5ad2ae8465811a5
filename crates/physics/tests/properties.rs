//! Property-based tests of the physics invariants Flashmark rests on.

use proptest::prelude::*;

use flashmark_physics::arena::{reference, CellArena};
use flashmark_physics::cell::{CellState, CellStatics};
use flashmark_physics::erase::{
    apply_erase_cached, t_cross_us_cached, t_full_us_cached, EraseDistCache,
};
use flashmark_physics::program::apply_program;
use flashmark_physics::retention::apply_bake;
use flashmark_physics::rng::{CounterStream, SplitMix64};
use flashmark_physics::wear::bulk_pe_stress;
use flashmark_physics::{PhysicsParams, PulseNoise, SusceptibilityTable};

fn params() -> PhysicsParams {
    PhysicsParams::msp430_like()
}

/// A stress mask with both classes populated for any `n >= 1`.
fn lane_mask(n: usize) -> Vec<bool> {
    (0..n).map(|i| i % 3 != 0).collect()
}

fn cache(p: &PhysicsParams) -> EraseDistCache {
    EraseDistCache::new(p.erase_dist_grid_kcycles)
}

/// Crossing time through a fresh table.
fn t_cross(p: &PhysicsParams, s: &CellStatics, wear_cycles: f64) -> f64 {
    t_cross_us_cached(p, s, wear_cycles, &mut cache(p))
}

proptest! {
    /// Erase time never decreases as wear accumulates, *except* across an
    /// early-eraser trap activation (the deliberate discontinuity behind
    /// the paper's bad→good error asymmetry). On either side of the
    /// activation — and for the ~98 % of cells without a trap — the
    /// relationship is monotone: a counterfeiter cannot speed a worn cell
    /// back up.
    #[test]
    fn t_cross_monotone_in_wear(seed in any::<u64>(), idx in 0u64..100_000, w1 in 0.0f64..120_000.0, w2 in 0.0f64..120_000.0) {
        let p = params();
        let s = CellStatics::derive(&p, seed, idx);
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        if let Some(trap) = s.early {
            let activation = trap.activation_kcycles * 1000.0;
            let same_side = (lo * s.susceptibility < activation) == (hi * s.susceptibility < activation);
            prop_assume!(same_side);
        }
        prop_assert!(t_cross(&p, &s, lo) <= t_cross(&p, &s, hi) + 1e-9);
    }

    /// Even across a trap activation, the erase time never falls below the
    /// trap-scaled fresh time — a worn cell can look *fresher than it is*,
    /// but its response still carries its full wear state underneath
    /// (factor × calibrated time), so no operation resets wear.
    #[test]
    fn early_trap_bounds_the_speedup(seed in any::<u64>(), idx in 0u64..100_000, w in 0.0f64..120_000.0) {
        let p = params();
        let s = CellStatics::derive(&p, seed, idx);
        let t = t_cross(&p, &s, w);
        let factor = s.early.map_or(1.0, |e| e.factor);
        let floor = t_cross(&p, &s, 0.0) * factor;
        prop_assert!(t >= floor - 1e-9, "t {t} below floor {floor}");
    }

    /// The full-erase time is never shorter than the crossing time.
    #[test]
    fn t_full_at_least_t_cross(seed in any::<u64>(), idx in 0u64..100_000, wear in 0.0f64..120_000.0) {
        let p = params();
        let s = CellStatics::derive(&p, seed, idx);
        let mut cell = CellState::fresh(&s);
        cell.wear_cycles = wear;
        cell.vth = cell.vth_prog_now(&p, &s);
        prop_assert!(t_full_us_cached(&p, &s, &cell, &mut cache(&p)) >= t_cross(&p, &s, wear) - 1e-9);
    }

    /// Erase pulses only move the threshold voltage down (never re-charge).
    #[test]
    fn erase_never_raises_vth(seed in any::<u64>(), idx in 0u64..100_000, pulse in 0.0f64..1000.0) {
        let p = params();
        let s = CellStatics::derive(&p, seed, idx);
        let mut cell = CellState::fresh(&s);
        let mut rng = SplitMix64::new(seed ^ 1);
        apply_program(&p, &s, &mut cell, &mut rng);
        let v0 = cell.vth;
        apply_erase_cached(&p, &s, &mut cell, pulse, &mut cache(&p));
        prop_assert!(cell.vth <= v0 + 1e-12);
    }

    /// Wear is monotone under ANY sequence of program/erase operations.
    #[test]
    fn wear_monotone_under_any_op_sequence(seed in any::<u64>(), ops in proptest::collection::vec(0u8..3, 0..40)) {
        let p = params();
        let s = CellStatics::derive(&p, seed, 3);
        let mut cell = CellState::fresh(&s);
        let mut rng = SplitMix64::new(seed);
        let mut prev = cell.wear_cycles;
        for op in ops {
            match op {
                0 => apply_program(&p, &s, &mut cell, &mut rng),
                1 => { apply_erase_cached(&p, &s, &mut cell, rng.range_f64(0.0, 100.0), &mut cache(&p)); }
                _ => apply_bake(&p, &s, &mut cell, rng.range_f64(0.0, 1e5), 85.0),
            }
            prop_assert!(cell.wear_cycles >= prev - 1e-12, "wear decreased");
            prev = cell.wear_cycles;
        }
    }

    /// Bulk stress is linear: n+m cycles equal n cycles then m cycles.
    #[test]
    fn bulk_stress_is_additive(seed in any::<u64>(), n in 0u32..50_000, m in 0u32..50_000, programmed in any::<bool>()) {
        let p = params();
        let s = CellStatics::derive(&p, seed, 9);
        let mut once = CellState::fresh(&s);
        bulk_pe_stress(&p, &s, &mut once, f64::from(n) + f64::from(m), programmed, false);
        let mut twice = CellState::fresh(&s);
        bulk_pe_stress(&p, &s, &mut twice, f64::from(n), programmed, false);
        bulk_pe_stress(&p, &s, &mut twice, f64::from(m), programmed, false);
        prop_assert!((once.wear_cycles - twice.wear_cycles).abs() < 1e-6);
        prop_assert!((once.vth - twice.vth).abs() < 1e-9);
    }

    /// Retention bake never changes wear and never raises vth.
    #[test]
    fn bake_is_wear_neutral(seed in any::<u64>(), hours in 0.0f64..1e6, temp in -40.0f64..150.0) {
        let p = params();
        let s = CellStatics::derive(&p, seed, 11);
        let mut cell = CellState::fresh(&s);
        let mut rng = SplitMix64::new(seed);
        apply_program(&p, &s, &mut cell, &mut rng);
        let w0 = cell.wear_cycles;
        let v0 = cell.vth;
        apply_bake(&p, &s, &mut cell, hours, temp);
        prop_assert_eq!(cell.wear_cycles.to_bits(), w0.to_bits());
        prop_assert!(cell.vth <= v0 + 1e-12);
    }

    /// The susceptibility quantile function and its CDF are mutual inverses
    /// on the strictly-increasing part of the table.
    #[test]
    fn susceptibility_quantile_cdf_consistent(u in 0.0f64..1.0) {
        let t = SusceptibilityTable::msp430();
        let s = t.at(u);
        let back = t.fraction_below(s);
        // Piecewise-linear inverse is exact except on flat table plateaus.
        prop_assert!(back <= u + 0.06, "u {u} -> s {s} -> {back}");
    }

    /// Susceptibility is monotone in the quantile.
    #[test]
    fn susceptibility_monotone(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let t = SusceptibilityTable::msp430();
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(t.at(lo) <= t.at(hi) + 1e-12);
    }

    /// Statics derivation is a pure function (any cell, any chip).
    #[test]
    fn statics_are_pure(seed in any::<u64>(), idx in any::<u64>()) {
        let p = params();
        prop_assert_eq!(CellStatics::derive(&p, seed, idx), CellStatics::derive(&p, seed, idx));
    }

    /// The max-crossing kernel on a single wear pair is bit-identical to the
    /// retained scalar reference on small arenas (1..=257 cells) and
    /// arbitrary wear pairs.
    #[test]
    fn arena_max_ln_t_cross_matches_scalar(
        seed in any::<u64>(),
        n in 1u64..258,
        sw in 0.0f64..120_000.0,
        pw in 0.0f64..120_000.0,
    ) {
        let p = params();
        let n = n as usize;
        let mut a = CellArena::derive(&p, seed, 128, n);
        let mask = lane_mask(n);
        let lane = a.max_ln_t_cross_multi(&p, &mut cache(&p), &mask, &[(sw, pw)]);
        let scalar = reference::max_ln_t_cross(&a, &p, &mut cache(&p), &mask, sw, pw);
        prop_assert_eq!(lane[0].to_bits(), scalar.to_bits());
    }

    /// The chunked erase-pulse kernel leaves every lane bit-identical to
    /// the scalar per-cell loop, starting from a stressed (mixed-wear)
    /// population.
    #[test]
    fn arena_erase_pulse_matches_scalar(
        seed in any::<u64>(),
        n in 1u64..258,
        nominal_us in 1.0f64..500.0,
        stress in 0.0f64..60_000.0,
    ) {
        let p = params();
        let n = n as usize;
        let mut lane = CellArena::derive(&p, seed, 128, n);
        let mask = lane_mask(n);
        lane.bulk_stress(&p, &mask, stress);
        let mut scalar = lane.clone();
        let pulse = PulseNoise::from_stream(&p, &CounterStream::new(seed, 0xE7A5, 0));
        let done_lane = lane.erase_pulse(&p, &mut cache(&p), 128, &pulse, nominal_us, 1.0);
        let done_scalar =
            reference::erase_pulse(&mut scalar, &p, &mut cache(&p), 128, &pulse, nominal_us, 1.0);
        prop_assert_eq!(done_lane, done_scalar);
        for i in 0..n {
            prop_assert_eq!(lane.vth()[i].to_bits(), scalar.vth()[i].to_bits());
            prop_assert_eq!(lane.wear_cycles()[i].to_bits(), scalar.wear_cycles()[i].to_bits());
        }
    }

    /// The read kernel, which draws only the bits in its noise band, reads
    /// every word as the always-draw reference does, with cells anywhere
    /// from 1 V below `vref` to 1 V above it (bunched near `vref`).
    #[test]
    fn arena_sense_word_matches_scalar(
        seed in any::<u64>(),
        word in any::<u64>(),
        offsets in proptest::collection::vec(-1.0f64..1.0, 16..17),
    ) {
        let p = params();
        let mut a = CellArena::derive(&p, seed, 128, 16);
        for (i, &d) in offsets.iter().enumerate() {
            a.set_state(i, CellState { vth: p.vref.get() + d * d * d, wear_cycles: 0.0 });
        }
        let stream = CounterStream::new(seed, 0x5E45, word);
        prop_assert_eq!(
            a.sense_word(&p, 0, &stream),
            reference::sense_word(&a, &p, 0, &stream)
        );
    }

    /// The chunked bulk-stress kernel is bit-identical to the scalar loop.
    #[test]
    fn arena_bulk_stress_matches_scalar(
        seed in any::<u64>(),
        n in 1u64..258,
        cycles in 0.0f64..120_000.0,
    ) {
        let p = params();
        let n = n as usize;
        let mut lane = CellArena::derive(&p, seed, 128, n);
        let mut scalar = lane.clone();
        let mask = lane_mask(n);
        lane.bulk_stress(&p, &mask, cycles);
        reference::bulk_stress(&mut scalar, &p, &mask, cycles);
        for i in 0..n {
            prop_assert_eq!(lane.vth()[i].to_bits(), scalar.vth()[i].to_bits());
            prop_assert_eq!(lane.wear_cycles()[i].to_bits(), scalar.wear_cycles()[i].to_bits());
        }
    }

    /// The frontier-pruned multi-pair kernel equals the scalar reference
    /// pair by pair, on arenas up to a full segment, under random stress
    /// masks (all-stressed and all-spared included) and random schedules
    /// of 1–17 wear pairs.
    #[test]
    fn arena_max_ln_t_cross_multi_matches_scalar(
        seed in any::<u64>(),
        n in 1usize..4097,
        mask_seed in any::<u64>(),
        stressed_share in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        wears in proptest::collection::vec(0.0f64..140_000.0, 2..36),
    ) {
        let p = params();
        let mut a = CellArena::derive(&p, seed, 128, n);
        let mut rng = SplitMix64::new(mask_seed);
        let mask: Vec<bool> = (0..n).map(|_| rng.next_f64() < stressed_share).collect();
        let pairs: Vec<(f64, f64)> = wears.chunks_exact(2).map(|w| (w[0], w[1])).collect();
        let multi = a.max_ln_t_cross_multi(&p, &mut cache(&p), &mask, &pairs);
        prop_assert_eq!(multi.len(), pairs.len());
        for (&got, &(sw, pw)) in multi.iter().zip(&pairs) {
            let want = reference::max_ln_t_cross(&a, &p, &mut cache(&p), &mask, sw, pw);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "stressed {} spared {}", sw, pw);
        }
    }
}

proptest! {
    // The bound behind the closed-form full erase only bites when a pulse
    // floor lands near some cell's full-erase time, so this property runs
    // more cases than the default.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The full-erase regime — a 1–30 ms nominal pulse (and exactly the
    /// 25 ms `TERASE` every `erase_segment` and `mass_erase` runs) on a
    /// cold or hot die, wear past rated endurance, from programmed, partly
    /// erased and erased cells — leaves every lane bit-identical to the
    /// scalar per-cell loop.
    #[test]
    fn arena_full_erase_matches_scalar(
        seed in any::<u64>(),
        n in 1u64..258,
        nominal_us in prop_oneof![Just(25_000.0), 1_000.0f64..30_000.0],
        temp_factor in 0.5f64..1.6,
        stress in 0.0f64..140_000.0,
        pre_erase_us in 0.0f64..60.0,
    ) {
        let p = params();
        let n = n as usize;
        let mut lane = CellArena::derive(&p, seed, 128, n);
        lane.bulk_stress(&p, &lane_mask(n), stress);
        // A short pulse first leaves the cells programmed, part-way down or
        // erased, depending on their wear.
        let pre = PulseNoise::from_stream(&p, &CounterStream::new(seed, 0xE7A5, 1));
        reference::erase_pulse(&mut lane, &p, &mut cache(&p), 128, &pre, pre_erase_us, temp_factor);
        let mut scalar = lane.clone();
        let pulse = PulseNoise::from_stream(&p, &CounterStream::new(seed, 0xE7A5, 2));
        let done_lane = lane.erase_pulse(&p, &mut cache(&p), 128, &pulse, nominal_us, temp_factor);
        let done_scalar = reference::erase_pulse(
            &mut scalar, &p, &mut cache(&p), 128, &pulse, nominal_us, temp_factor,
        );
        prop_assert_eq!(done_lane, done_scalar);
        for i in 0..n {
            prop_assert_eq!(lane.vth()[i].to_bits(), scalar.vth()[i].to_bits());
            prop_assert_eq!(lane.wear_cycles()[i].to_bits(), scalar.wear_cycles()[i].to_bits());
        }
    }
}

/// The max-crossing kernel agrees with the scalar reference bit-for-bit
/// at (and a hair to either side of) **every** quantization bucket boundary of the
/// erase-distribution LUT up to past rated endurance — the exact wear
/// levels where a rounding disagreement between the two paths would land
/// cells in different buckets.
#[test]
fn lane_kernel_bitwise_at_every_lut_bucket_boundary() {
    let p = params();
    // 13 cells, both stress classes populated.
    let mut a = CellArena::derive(&p, 0x1D5EED, 128, 13);
    let mask = lane_mask(13);
    let mut lane_cache = cache(&p);
    let mut scalar_cache = cache(&p);
    let grid = p.erase_dist_grid_kcycles;
    let buckets = (130.0 / grid).ceil() as usize;
    for b in 0..=buckets {
        // Buckets are round(k / grid): the boundary between b and b+1
        // sits at (b + 0.5) * grid kcycles of effective wear.
        let boundary_k = (b as f64 + 0.5) * grid;
        for eps in [-1e-6, 0.0, 1e-6] {
            let wear = ((boundary_k + eps) * 1000.0).max(0.0);
            let lane = a.max_ln_t_cross_multi(&p, &mut lane_cache, &mask, &[(wear, wear * 0.3)])[0];
            let scalar =
                reference::max_ln_t_cross(&a, &p, &mut scalar_cache, &mask, wear, wear * 0.3);
            assert_eq!(
                lane.to_bits(),
                scalar.to_bits(),
                "bucket {b} eps {eps}: lane {lane} vs scalar {scalar}"
            );
        }
    }
}

/// The full 25 ms erase agrees with the scalar reference bit-for-bit when
/// the segment's wear sits at (and a hair to either side of) every bucket
/// boundary of the erase-distribution LUT up to past rated endurance: the
/// highest reachable bucket bounds the crossing-time ceiling the closed
/// form relies on.
#[test]
fn full_erase_bitwise_at_every_lut_bucket_boundary() {
    let p = params();
    let fresh = CellArena::derive(&p, 0x1D5EED, 128, 13);
    let mask = lane_mask(13);
    let mut lane_cache = cache(&p);
    let mut scalar_cache = cache(&p);
    let grid = p.erase_dist_grid_kcycles;
    let buckets = (140.0 / grid).ceil() as usize;
    for b in 0..=buckets {
        let boundary_k = (b as f64 + 0.5) * grid;
        for eps in [-1e-6, 0.0, 1e-6] {
            let wear = ((boundary_k + eps) * 1000.0).max(0.0);
            let mut lane = fresh.clone();
            lane.bulk_stress(&p, &mask, wear);
            let mut scalar = lane.clone();
            let pulse = PulseNoise::from_stream(&p, &CounterStream::new(b as u64, 0xE7A5, 0));
            let done = lane.erase_pulse(&p, &mut lane_cache, 128, &pulse, 25_000.0, 1.0);
            let want = reference::erase_pulse(
                &mut scalar,
                &p,
                &mut scalar_cache,
                128,
                &pulse,
                25_000.0,
                1.0,
            );
            assert_eq!(done, want, "bucket {b} eps {eps}");
            for i in 0..13 {
                assert_eq!(
                    lane.vth()[i].to_bits(),
                    scalar.vth()[i].to_bits(),
                    "bucket {b} eps {eps} cell {i} vth"
                );
                assert_eq!(
                    lane.wear_cycles()[i].to_bits(),
                    scalar.wear_cycles()[i].to_bits(),
                    "bucket {b} eps {eps} cell {i} wear"
                );
            }
        }
    }
}

/// Sweeping the nominal pulse in 1 % steps across the whole span where
/// cells finish their erase moves the pulse floor past every cell's
/// full-erase time: the closed form must engage only where it reproduces
/// the scalar loop bit for bit. Small arenas leave the least slack between
/// the crossing-time ceiling and their slowest cell. Half the cells are
/// then programmed word by word, so program noise leaves some above their
/// nominal programmed level (they need slightly more than their full-erase
/// time), while erased cells still accrue a wear fraction below 1 from a
/// pulse shorter than their full-erase time. Two more parameter sets: heavy
/// stragglers make the straggler term of the ceiling the one that binds,
/// and without per-cell jitter every cell's pulse equals the floor.
#[test]
fn erase_bitwise_across_the_closed_form_threshold() {
    let mut heavy_stragglers = params();
    heavy_stragglers.tails.straggler_prob = 0.05;
    heavy_stragglers.tails.straggler_max_extra = 4.0;
    let mut no_jitter = params();
    no_jitter.op_jitter_sigma = 0.0;
    for p in [params(), heavy_stragglers, no_jitter] {
        for (k, wear) in [0.0, 30_000.0, 80_000.0, 140_000.0].into_iter().enumerate() {
            for n in [1, 2, 3, 64] {
                let chip = 0x7E5E_0000 + (k * 100 + n) as u64;
                let mut worn = CellArena::derive(&p, chip, 0, n);
                worn.bulk_stress(&p, &lane_mask(n), wear);
                for word in 0..n.div_ceil(16) {
                    let stream = CounterStream::new(chip, 0x9806, word as u64);
                    let bits = (n - word * 16).min(16);
                    let pattern: u16 = if k % 2 == 0 { 0xAAAA } else { 0x5555 };
                    let value = pattern | !((1u32 << bits) - 1) as u16;
                    worn.program_word(&p, word * 16, value, &stream);
                }
                for step in 0..700 {
                    let nominal_us = 40.0 * 1.01f64.powi(step);
                    let mut lane = worn.clone();
                    let mut scalar = worn.clone();
                    let pulse =
                        PulseNoise::from_stream(&p, &CounterStream::new(chip, 0xE7A5, step as u64));
                    let done = lane.erase_pulse(&p, &mut cache(&p), 0, &pulse, nominal_us, 1.0);
                    let want = reference::erase_pulse(
                        &mut scalar,
                        &p,
                        &mut cache(&p),
                        0,
                        &pulse,
                        nominal_us,
                        1.0,
                    );
                    let at = format!(
                        "stragglers {} jitter {} wear {wear} cells {n} nominal {nominal_us}",
                        p.tails.straggler_max_extra, p.op_jitter_sigma
                    );
                    assert_eq!(done, want, "{at}");
                    for i in 0..n {
                        assert_eq!(
                            lane.wear_cycles()[i].to_bits(),
                            scalar.wear_cycles()[i].to_bits(),
                            "{at} cell {i} wear"
                        );
                        assert_eq!(
                            lane.vth()[i].to_bits(),
                            scalar.vth()[i].to_bits(),
                            "{at} cell {i} vth"
                        );
                    }
                }
            }
        }
    }
}

/// The batched multi-wear kernel (Pareto-frontier pruning) matches the
/// scalar reference bit-for-bit on a schedule that visits every LUT
/// bucket up to past rated endurance.
#[test]
fn multi_schedule_bitwise_across_every_lut_bucket() {
    let p = params();
    let mut a = CellArena::derive(&p, 0x0D15EA5E, 128, 13);
    let mask = lane_mask(13);
    let grid = p.erase_dist_grid_kcycles;
    let buckets = (130.0 / grid).ceil() as usize;
    let pairs: Vec<(f64, f64)> = (0..=buckets)
        .map(|b| {
            let wear = b as f64 * grid * 1000.0;
            (wear, wear * 0.3)
        })
        .collect();
    let mut multi_cache = cache(&p);
    let multi = a.max_ln_t_cross_multi(&p, &mut multi_cache, &mask, &pairs);
    let mut single_cache = cache(&p);
    for (i, &(sw, pw)) in pairs.iter().enumerate() {
        let single = reference::max_ln_t_cross(&a, &p, &mut single_cache, &mask, sw, pw);
        assert_eq!(
            multi[i].to_bits(),
            single.to_bits(),
            "pair {i} (stressed {sw}, spared {pw})"
        );
    }
}
