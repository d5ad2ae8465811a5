//! Erase (Fowler–Nordheim tunneling) dynamics, including partial erase.
//!
//! The observable Flashmark exploits: the time a cell takes to cross the read
//! reference during an erase grows with accumulated wear.
//! [`t_cross_us_cached`] gives that time for a cell starting from the
//! fully-programmed level; [`apply_erase_cached`] advances a cell's
//! threshold voltage through an erase pulse of a given effective duration
//! (possibly aborted early — a *partial* erase). Both read the erase-time
//! distribution through an [`EraseDistCache`].

use crate::calibration::EraseCalibration;
use crate::cell::{CellState, CellStatics};
use crate::params::{PhysicsParams, DEFAULT_ERASE_DIST_GRID_KCYCLES};

/// Bucket index of effective wear `kcycles` on a quantization grid of
/// `grid_kcycles`: the nearest grid point. Shared by every path that touches
/// the erase-distribution table, so all of them agree on the quantized key
/// bit-for-bit.
#[must_use]
pub fn wear_bucket(kcycles: f64, grid_kcycles: f64) -> usize {
    (kcycles / grid_kcycles).round() as usize
}

/// A quantized, wear-keyed lookup table for
/// [`EraseCalibration::distribution`].
///
/// The per-pulse hot loop needs the erase-time distribution once per cell
/// per pulse (4096 evaluations per pulse, up to 100 K pulses per imprint),
/// and per-cell susceptibility scaling makes almost every effective-wear key
/// unique — an exact-key memo never hits on a worn segment. Instead the
/// effective wear is rounded to the nearest multiple of
/// `grid_kcycles` ([`PhysicsParams::erase_dist_grid_kcycles`], a committed
/// parameter) and the table stores `(ln median, sigma)` per bucket as two
/// dense `Vec<f64>` lanes, extended on demand. At the default 0.25-kcycle
/// grid the full 0–115 kcycle range is ~460 buckets (≈ 7 KB) — L1-resident.
///
/// **Determinism contract:** a bucket's entry depends only on the
/// calibration and the grid, never on which cells filled the table or in
/// what order, so any two tables on the same grid return bit-identical
/// crossing times, and a chip's results do not depend on its table's
/// history. Every accessor quantizes through [`wear_bucket`], so the
/// quantization grid is part of the physical parameter record
/// ([`PhysicsParams::erase_dist_grid_kcycles`]), not a private cache
/// detail: the cache must be built on that grid.
#[derive(Debug, Clone)]
pub struct EraseDistCache {
    grid_kcycles: f64,
    ln_median: Vec<f64>,
    sigma: Vec<f64>,
    monotone: bool,
}

impl Default for EraseDistCache {
    fn default() -> Self {
        Self::new(DEFAULT_ERASE_DIST_GRID_KCYCLES)
    }
}

impl EraseDistCache {
    /// Creates an empty table over the given quantization grid (kcycles).
    ///
    /// # Panics
    ///
    /// Panics unless `grid_kcycles` is positive and finite.
    #[must_use]
    pub fn new(grid_kcycles: f64) -> Self {
        assert!(
            grid_kcycles > 0.0 && grid_kcycles.is_finite(),
            "erase-distribution grid must be positive and finite"
        );
        Self {
            grid_kcycles,
            ln_median: Vec::new(),
            sigma: Vec::new(),
            monotone: true,
        }
    }

    /// The quantization grid this table was built on, in kcycles.
    #[must_use]
    pub fn grid_kcycles(&self) -> f64 {
        self.grid_kcycles
    }

    /// Extends the table so every bucket up to and including `max_bucket` is
    /// filled. Lane kernels call this once before a loop so the loop body is
    /// pure reads.
    pub fn ensure(&mut self, cal: &EraseCalibration, max_bucket: usize) {
        while self.ln_median.len() <= max_bucket {
            let kq = self.ln_median.len() as f64 * self.grid_kcycles;
            let dist = cal.distribution(kq);
            let ln_median = dist.median.ln();
            if self.ln_median.last().is_some_and(|&prev| ln_median < prev) {
                self.monotone = false;
            }
            self.ln_median.push(ln_median);
            self.sigma.push(dist.sigma);
        }
    }

    /// The `(ln median, sigma)` lanes filled so far, indexed by bucket.
    #[must_use]
    pub fn tables(&self) -> (&[f64], &[f64]) {
        (&self.ln_median, &self.sigma)
    }

    /// Whether the `ln median` lane is non-decreasing in wear over the filled
    /// range. [`EraseCalibration::from_anchors`] guarantees this, but the
    /// frontier-pruned max kernels in [`crate::arena`] re-check it here and
    /// fall back to a full scan if a hand-built calibration violates it.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        self.monotone
    }

    /// `(ln median, sigma)` for one bucket, filling the table as needed.
    fn entry(&mut self, cal: &EraseCalibration, bucket: usize) -> (f64, f64) {
        self.ensure(cal, bucket);
        (self.ln_median[bucket], self.sigma[bucket])
    }
}

/// Result of applying an erase pulse to one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraseOutcome {
    /// The cell's threshold voltage ended below the read reference
    /// (it now reads 1).
    pub crossed: bool,
    /// The cell reached its fully-erased level (further pulse time would not
    /// change its state).
    pub completed: bool,
}

/// Log-domain crossing time: the canonical erase-time formula shared by the
/// scalar accessors and the chunked lane kernels in [`crate::arena`].
///
/// `ln t = ln median(k_q) + sigma(k_q)·z + ln(1 + straggler) +
/// [k ≥ activation]·ln factor` — one `exp` at the end of whatever kernel
/// consumes it. The distribution terms are evaluated at the *quantized* wear
/// `k_q`; the early-trap activation compares against the *raw* effective
/// wear `kcycles`, preserving the exact activation threshold.
#[inline]
#[must_use]
pub fn ln_t_cross(
    ln_median: f64,
    sigma: f64,
    erase_z: f64,
    ln_straggler: f64,
    early_activation_kcycles: f64,
    ln_early_factor: f64,
    kcycles: f64,
) -> f64 {
    let early = if kcycles >= early_activation_kcycles {
        ln_early_factor
    } else {
        0.0
    };
    ln_median + sigma * erase_z + ln_straggler + early
}

/// [`ln_t_cross`] with the lane terms unpacked from a [`CellStatics`].
#[inline]
fn ln_t_cross_statics(ln_median: f64, sigma: f64, statics: &CellStatics, kcycles: f64) -> f64 {
    ln_t_cross(
        ln_median,
        sigma,
        statics.erase_z,
        statics.ln_straggler(),
        statics.early_activation_kcycles(),
        statics.ln_early_factor(),
        kcycles,
    )
}

/// Static time (µs) for this cell to cross the read reference during an
/// erase, starting from the fully-programmed level, at `wear_cycles` of wear.
///
/// This excludes per-pulse jitter (the caller folds jitter into the pulse's
/// effective duration, see [`crate::noise::PulseNoise`]). Heterogeneous
/// wear response scales the wear first: weak responders age at a fraction
/// of the applied stress (the source of the paper's bad→good extraction
/// errors). The calibration distribution is read from `cache` at the
/// effective wear quantized to [`PhysicsParams::erase_dist_grid_kcycles`].
#[must_use]
pub fn t_cross_us_cached(
    params: &PhysicsParams,
    statics: &CellStatics,
    wear_cycles: f64,
    cache: &mut EraseDistCache,
) -> f64 {
    ln_t_cross_us_cached(params, statics, wear_cycles, cache).exp()
}

/// Log-domain [`t_cross_us_cached`]: the scalar reference for the lane
/// kernels in [`crate::arena`], which reduce these values with `max` and
/// take a single `exp` at the end. `t_cross_us_cached` is exactly
/// `ln_t_cross_us_cached(..).exp()`.
#[must_use]
pub fn ln_t_cross_us_cached(
    params: &PhysicsParams,
    statics: &CellStatics,
    wear_cycles: f64,
    cache: &mut EraseDistCache,
) -> f64 {
    debug_assert!(
        cache.grid_kcycles.to_bits() == params.erase_dist_grid_kcycles.to_bits(),
        "cache grid does not match params grid"
    );
    let k = wear_cycles * statics.susceptibility / 1000.0;
    let bucket = wear_bucket(k, cache.grid_kcycles);
    let (ln_median, sigma) = cache.entry(&params.erase_cal, bucket);
    ln_t_cross_statics(ln_median, sigma, statics, k)
}

/// Time (µs) for this cell to reach its *fully erased* level from the
/// programmed level — longer than [`t_cross_us_cached`] because the
/// threshold keeps falling after crossing the read reference.
#[must_use]
pub fn t_full_us_cached(
    params: &PhysicsParams,
    statics: &CellStatics,
    state: &CellState,
    cache: &mut EraseDistCache,
) -> f64 {
    let t_cross = t_cross_us_cached(params, statics, state.wear_cycles, cache);
    let vth_prog = state.vth_prog_now(params, statics);
    let vth_end = state.vth_erased_now(params, statics);
    let span_to_ref = vth_prog - params.vref.get();
    let span_total = vth_prog - vth_end;
    if span_to_ref <= 0.0 {
        return t_cross;
    }
    t_cross * (span_total / span_to_ref)
}

/// Applies an erase pulse with effective duration `effective_us` to the cell.
///
/// The threshold voltage descends linearly from the programmed level toward
/// the wear-shifted erased level; the slope is set so that a cell starting
/// fully programmed crosses the read reference exactly at its
/// [`t_cross_us_cached`]. Cells that start partially erased finish
/// proportionally sooner. Wear is accrued in proportion to the tunneling
/// activity actually performed (see [`crate::params::WearWeights`]).
pub fn apply_erase_cached(
    params: &PhysicsParams,
    statics: &CellStatics,
    state: &mut CellState,
    effective_us: f64,
    cache: &mut EraseDistCache,
) -> EraseOutcome {
    debug_assert!(effective_us >= 0.0, "negative pulse duration");
    let t_full = t_full_us_cached(params, statics, state, cache).max(1e-9);
    let was_programmed = !state.ideal_bit(params);
    let vth_prog = state.vth_prog_now(params, statics);
    let vth_end = state.vth_erased_now(params, statics);
    let slope = (vth_prog - vth_end).max(0.0) / t_full; // volts per µs

    let start_vth = state.vth;
    let new_vth = (start_vth - slope * effective_us).max(vth_end);

    // Wear accrues in proportion to the fraction of a full erase performed.
    let fraction = (effective_us / t_full).min(1.0);
    let weight = if was_programmed {
        params.wear.erase
    } else {
        params.wear.erase_only
    };
    state.wear_cycles += weight * fraction;
    state.vth = new_vth;

    EraseOutcome {
        crossed: new_vth < params.vref.get(),
        completed: new_vth <= vth_end + 1e-12,
    }
}

/// Erase-rate acceleration factor at die temperature `temp_c` relative to
/// the calibration reference: Fowler–Nordheim tunneling runs faster when
/// hot, so a pulse of nominal duration `t` acts like `t × factor`.
#[must_use]
pub fn erase_temp_factor(params: &PhysicsParams, temp_c: f64) -> f64 {
    const BOLTZMANN_EV_PER_K: f64 = 8.617_333_262e-5;
    // The activation energy is a disable-sentinel at (or below) zero; an
    // epsilon band avoids an exact f64 comparison.
    if params.erase_activation_energy_ev <= f64::EPSILON {
        return 1.0;
    }
    let t = temp_c + 273.15;
    let t_ref = params.ref_temp_c + 273.15;
    (params.erase_activation_energy_ev / BOLTZMANN_EV_PER_K * (1.0 / t_ref - 1.0 / t)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellStatics, EarlyTrap};
    use crate::params::PhysicsParams;
    use crate::program::apply_program;
    use crate::rng::SplitMix64;

    fn programmed_cell(params: &PhysicsParams, seed: u64, idx: u64) -> (CellStatics, CellState) {
        let statics = CellStatics::derive(params, seed, idx);
        let mut state = CellState::fresh(&statics);
        let mut rng = SplitMix64::new(1);
        apply_program(params, &statics, &mut state, &mut rng);
        (statics, state)
    }

    /// One-shot lookups through a fresh table on the parameters' grid.
    fn cache(params: &PhysicsParams) -> EraseDistCache {
        EraseDistCache::new(params.erase_dist_grid_kcycles)
    }

    fn t_cross(params: &PhysicsParams, statics: &CellStatics, wear_cycles: f64) -> f64 {
        t_cross_us_cached(params, statics, wear_cycles, &mut cache(params))
    }

    fn erase(
        params: &PhysicsParams,
        statics: &CellStatics,
        state: &mut CellState,
        effective_us: f64,
    ) -> EraseOutcome {
        apply_erase_cached(params, statics, state, effective_us, &mut cache(params))
    }

    #[test]
    fn t_cross_grows_with_wear() {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 3, 3);
        let mut prev = 0.0;
        for w in [0.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0] {
            let t = t_cross(&params, &statics, w);
            assert!(t > prev, "t_cross not increasing at wear {w}");
            prev = t;
        }
    }

    #[test]
    fn fresh_cells_cross_in_paper_window() {
        // Fig. 4: fresh cells transition between ~18 µs and ~35 µs.
        let params = PhysicsParams::msp430_like();
        let mut min_t = f64::INFINITY;
        let mut max_t: f64 = 0.0;
        for i in 0..4096u64 {
            let s = CellStatics::derive(&params, 0x5EED, i);
            let t = t_cross(&params, &s, 0.0);
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        assert!((12.0..=22.0).contains(&min_t), "min {min_t}");
        assert!((24.0..=40.0).contains(&max_t), "max {max_t}");
    }

    #[test]
    fn full_pulse_erases_programmed_cell() {
        let params = PhysicsParams::msp430_like();
        let (statics, mut state) = programmed_cell(&params, 9, 1);
        let t_full = t_full_us_cached(&params, &statics, &state, &mut cache(&params));
        let out = erase(&params, &statics, &mut state, t_full * 1.01);
        assert!(out.crossed && out.completed);
        assert!(state.ideal_bit(&params));
    }

    #[test]
    fn short_pulse_leaves_cell_programmed() {
        let params = PhysicsParams::msp430_like();
        let (statics, mut state) = programmed_cell(&params, 9, 2);
        let t_cross = t_cross(&params, &statics, state.wear_cycles);
        let out = erase(&params, &statics, &mut state, t_cross * 0.5);
        assert!(!out.crossed);
        assert!(!state.ideal_bit(&params));
    }

    #[test]
    fn crossing_happens_at_t_cross() {
        let params = PhysicsParams::msp430_like();
        let (statics, state0) = programmed_cell(&params, 9, 3);
        let t_cross = t_cross(&params, &statics, state0.wear_cycles);

        let mut before = state0;
        erase(&params, &statics, &mut before, t_cross * 0.98);
        // Slight slack: the programmed vth has op noise around the nominal
        // level the slope is derived from.
        let mut after = state0;
        erase(&params, &statics, &mut after, t_cross * 1.05);
        assert!(after.vth < before.vth);
        assert!(
            after.ideal_bit(&params),
            "cell should read 1 just after t_cross"
        );
    }

    #[test]
    fn two_partial_pulses_equal_one_full() {
        let params = PhysicsParams::msp430_like();
        let (statics, state0) = programmed_cell(&params, 9, 4);

        let mut split = state0;
        erase(&params, &statics, &mut split, 10.0);
        erase(&params, &statics, &mut split, 10.0);

        let mut whole = state0;
        erase(&params, &statics, &mut whole, 20.0);

        // vth path is piecewise linear in elapsed time, so splitting the pulse
        // must land within the wear-induced slope drift (tiny for 10 µs).
        assert!(
            (split.vth - whole.vth).abs() < 0.02,
            "{} vs {}",
            split.vth,
            whole.vth
        );
    }

    #[test]
    fn erase_accrues_wear() {
        let params = PhysicsParams::msp430_like();
        let (statics, mut state) = programmed_cell(&params, 9, 5);
        let w0 = state.wear_cycles;
        erase(&params, &statics, &mut state, 1e4);
        assert!(state.wear_cycles > w0);
        assert!((state.wear_cycles - w0 - params.wear.erase).abs() < 1e-9);
    }

    #[test]
    fn erase_only_wear_is_small() {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 9, 6);
        let mut state = CellState::fresh(&statics);
        erase(&params, &statics, &mut state, 1e4);
        assert!(state.wear_cycles <= params.wear.erase_only + 1e-12);
    }

    #[test]
    fn early_trap_speeds_up_erase_after_activation() {
        let params = PhysicsParams::msp430_like();
        let mut statics = CellStatics::derive(&params, 9, 7);
        statics.straggler_extra = None;
        // Unit susceptibility so the raw-wear kcycles below straddle the
        // trap's activation threshold regardless of the derived draw.
        statics.susceptibility = 1.0;
        statics.early = Some(EarlyTrap {
            activation_kcycles: 30.0,
            factor: 0.5,
        });
        let before = t_cross(&params, &statics, 29_000.0);
        let after = t_cross(&params, &statics, 31_000.0);
        // Wear alone increases t_cross slightly; the trap halves it.
        assert!(after < before * 0.6, "before {before} after {after}");
    }

    #[test]
    fn straggler_slows_erase() {
        let params = PhysicsParams::msp430_like();
        let mut base = CellStatics::derive(&params, 9, 8);
        base.straggler_extra = None;
        base.early = None;
        let mut strag = base;
        strag.straggler_extra = Some(0.3);
        assert!(t_cross(&params, &strag, 0.0) > t_cross(&params, &base, 0.0));
    }

    #[test]
    fn temp_factor_reference_and_direction() {
        let params = PhysicsParams::msp430_like();
        assert!((erase_temp_factor(&params, params.ref_temp_c) - 1.0).abs() < 1e-12);
        assert!(
            erase_temp_factor(&params, 85.0) > 1.3,
            "hot die erases faster"
        );
        assert!(
            erase_temp_factor(&params, -20.0) < 0.8,
            "cold die erases slower"
        );
        let mut no_temp = params.clone();
        no_temp.erase_activation_energy_ev = 0.0;
        assert_eq!(
            erase_temp_factor(&no_temp, 125.0).to_bits(),
            1.0_f64.to_bits()
        );
    }

    #[test]
    fn quantization_grid_defines_the_distribution_key() {
        let params = PhysicsParams::msp430_like();
        let mut statics = CellStatics::derive(&params, 9, 10);
        statics.early = None;
        statics.susceptibility = 1.0;
        let grid_cycles = params.erase_dist_grid_kcycles * 1000.0;
        // Wears inside the same bucket share the exact crossing time; wears
        // in adjacent buckets see different calibration entries.
        for bucket in [0u32, 1, 7, 160, 400] {
            let centre = f64::from(bucket) * grid_cycles;
            let lo = (centre - 0.49 * grid_cycles).max(0.0);
            let hi = centre + 0.49 * grid_cycles;
            assert_eq!(
                t_cross(&params, &statics, lo).to_bits(),
                t_cross(&params, &statics, hi).to_bits(),
                "bucket {bucket} not flat"
            );
            let next = centre + 1.01 * grid_cycles;
            assert!(
                t_cross(&params, &statics, next) > t_cross(&params, &statics, centre),
                "bucket {bucket} boundary has no step"
            );
        }
    }
}
