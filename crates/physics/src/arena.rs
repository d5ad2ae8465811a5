//! Structure-of-arrays cell storage and chunked lane kernels.
//!
//! The per-cell scalar API ([`CellStatics`] + [`CellState`] + the functions
//! in [`crate::erase`] / [`crate::program`] / [`crate::wear`]) is the
//! *specification*: every kernel here is a data-layout transformation of a
//! scalar loop over that API and is required to produce **bit-identical**
//! results (see the `reference` module and the property tests that pin the
//! equivalence).
//!
//! A [`CellArena`] stores one `f64` lane per `CellStatics`/`CellState` field
//! in contiguous arrays, so the hot loops — erase-time sampling, threshold
//! comparison, wear accumulation — walk flat slices instead of chasing
//! per-cell structs with `Option` payloads. The `Option` fields are lane-
//! encoded with sentinels chosen so the kernels stay branch-free:
//!
//! | field | lane encoding |
//! |---|---|
//! | `straggler_extra: Option<f64>` | `ln(1 + extra)` additive term, `0.0` for `None` |
//! | `early: Option<EarlyTrap>` | activation `+∞` for `None` (never activates), `ln factor` `0.0` |
//!
//! Kernels process cells in [`LANES`]-wide chunks with a scalar tail. There
//! is no `unsafe` and no explicit SIMD: the chunk bodies are written so the
//! autovectorizer can keep each lane independent, and `f64::max` reductions
//! are exact (commutative and associative on the NaN-free domain), so the
//! chunked reduction order cannot change the result bit.
//!
//! Randomness inside kernels comes from counter-based streams
//! ([`CounterStream`]): every deviate is a pure function of
//! `(seed, cell_index, draw)`, so lanes need no serial generator state and
//! any subset of cells can be replayed in any order.

use crate::cell::{CellState, CellStatics, EarlyTrap};
use crate::erase::{ln_t_cross, wear_bucket, EraseDistCache};
use crate::noise::PulseNoise;
use crate::params::PhysicsParams;
use crate::program::PROG_OP_NOISE_SIGMA;
use crate::rng::CounterStream;

/// Lane width of the chunked kernels (8 × `f64` = one 512-bit row, two
/// AVX2 registers — wide enough to keep the autovectorizer busy, small
/// enough that the scalar tail stays cheap).
pub const LANES: usize = 8;

/// Pruning margin (in log-time units) for the frontier fast path of
/// [`CellArena::max_ln_t_cross_multi`]: a cell is discarded only when a kept
/// candidate provably exceeds it by more than this margin, which dwarfs the
/// few-ulp rounding slack of the bound arithmetic (~1e-14 at these
/// magnitudes).
const PRUNE_MARGIN: f64 = 1e-9;

/// Bits per machine word of the simulated array.
const WORD_BITS: usize = 16;

/// A structure-of-arrays arena of flash cells.
///
/// Statics lanes are immutable after [`CellArena::derive`]; `vth` and
/// `wear_cycles` are the dynamic state. The arena also carries a per-cell
/// crossing-time memo (valid because `t_cross` is a pure function of the
/// quantized wear bucket, the trap activation flag, and the cell statics).
#[derive(Debug, Clone)]
pub struct CellArena {
    // --- statics lanes (fixed at derive) ---
    erase_z: Vec<f64>,
    /// Raw `straggler_extra`, `NaN` for `None` (kept only so
    /// [`Self::statics_at`] can reconstruct the exact `Option`).
    straggler_extra: Vec<f64>,
    ln_straggler: Vec<f64>,
    early_activation: Vec<f64>,
    early_factor: Vec<f64>,
    ln_early_factor: Vec<f64>,
    vth_erased0: Vec<f64>,
    vth_prog0: Vec<f64>,
    prog_time_us: Vec<f64>,
    retention_z: Vec<f64>,
    susceptibility: Vec<f64>,
    /// Cell indices sorted by descending susceptibility (ties by index) —
    /// the scan order of the frontier-pruned max kernels.
    susc_order: Vec<u32>,
    max_susceptibility: f64,
    // --- dynamic state lanes ---
    vth: Vec<f64>,
    wear_cycles: Vec<f64>,
    // --- crossing-time memo: key = (bucket << 1) | trap_active ---
    t_cross_key: Vec<u64>,
    t_cross_val: Vec<f64>,
}

impl CellArena {
    /// Derives `n` fresh cells starting at global index `base_cell` on chip
    /// `chip_seed`. Statics come from [`CellStatics::derive`] unchanged, so
    /// the simulated chip is the same chip the scalar API sees.
    #[must_use]
    pub fn derive(params: &PhysicsParams, chip_seed: u64, base_cell: u64, n: usize) -> Self {
        let mut arena = Self {
            erase_z: Vec::with_capacity(n),
            straggler_extra: Vec::with_capacity(n),
            ln_straggler: Vec::with_capacity(n),
            early_activation: Vec::with_capacity(n),
            early_factor: Vec::with_capacity(n),
            ln_early_factor: Vec::with_capacity(n),
            vth_erased0: Vec::with_capacity(n),
            vth_prog0: Vec::with_capacity(n),
            prog_time_us: Vec::with_capacity(n),
            retention_z: Vec::with_capacity(n),
            susceptibility: Vec::with_capacity(n),
            susc_order: Vec::new(),
            max_susceptibility: 0.0,
            vth: Vec::with_capacity(n),
            wear_cycles: Vec::with_capacity(n),
            t_cross_key: vec![u64::MAX; n],
            t_cross_val: vec![0.0; n],
        };
        for i in 0..n {
            let statics = CellStatics::derive(params, chip_seed, base_cell + i as u64);
            arena.erase_z.push(statics.erase_z);
            arena
                .straggler_extra
                .push(statics.straggler_extra.unwrap_or(f64::NAN));
            arena.ln_straggler.push(statics.ln_straggler());
            arena
                .early_activation
                .push(statics.early_activation_kcycles());
            arena
                .early_factor
                .push(statics.early.map_or(1.0, |trap| trap.factor));
            arena.ln_early_factor.push(statics.ln_early_factor());
            arena.vth_erased0.push(statics.vth_erased0);
            arena.vth_prog0.push(statics.vth_prog0);
            arena.prog_time_us.push(statics.prog_time_us);
            arena.retention_z.push(statics.retention_z);
            arena.susceptibility.push(statics.susceptibility);
            arena.vth.push(statics.vth_erased0);
            arena.wear_cycles.push(0.0);
        }
        arena.max_susceptibility = arena
            .susceptibility
            .iter()
            .fold(0.0f64, |acc, &s| acc.max(s));
        arena.susc_order = (0..n as u32).collect();
        arena.susc_order.sort_unstable_by(|&a, &b| {
            arena.susceptibility[b as usize]
                .total_cmp(&arena.susceptibility[a as usize])
                .then(a.cmp(&b))
        });
        arena
    }

    /// Number of cells in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vth.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vth.is_empty()
    }

    /// Reconstructs the exact [`CellStatics`] of cell `i` from the lanes.
    #[must_use]
    pub fn statics_at(&self, i: usize) -> CellStatics {
        CellStatics {
            erase_z: self.erase_z[i],
            straggler_extra: if self.straggler_extra[i].is_nan() {
                None
            } else {
                Some(self.straggler_extra[i])
            },
            early: if self.early_activation[i].is_finite() {
                Some(EarlyTrap {
                    activation_kcycles: self.early_activation[i],
                    factor: self.early_factor[i],
                })
            } else {
                None
            },
            vth_erased0: self.vth_erased0[i],
            vth_prog0: self.vth_prog0[i],
            prog_time_us: self.prog_time_us[i],
            retention_z: self.retention_z[i],
            susceptibility: self.susceptibility[i],
        }
    }

    /// The dynamic [`CellState`] of cell `i`.
    #[must_use]
    pub fn state_at(&self, i: usize) -> CellState {
        CellState {
            vth: self.vth[i],
            wear_cycles: self.wear_cycles[i],
        }
    }

    /// Writes cell `i`'s dynamic state back into the lanes. The crossing-
    /// time memo stays valid: its key re-derives from the wear on every use.
    pub fn set_state(&mut self, i: usize, state: CellState) {
        self.vth[i] = state.vth;
        self.wear_cycles[i] = state.wear_cycles;
    }

    /// The threshold-voltage lane.
    #[must_use]
    pub fn vth(&self) -> &[f64] {
        &self.vth
    }

    /// The accumulated-wear lane.
    #[must_use]
    pub fn wear_cycles(&self) -> &[f64] {
        &self.wear_cycles
    }

    /// Pre-fills `cache` so every bucket any cell of this arena can reach at
    /// wear up to `max_wear` is resident, and the kernel loops are pure
    /// reads. Uses the arena-wide susceptibility maximum; `fl` monotonicity
    /// of `*` and `/` guarantees no per-cell bucket exceeds the bound.
    fn ensure_cache(&self, params: &PhysicsParams, cache: &mut EraseDistCache, max_wear: f64) {
        let max_k = max_wear * self.max_susceptibility / 1000.0;
        cache.ensure(&params.erase_cal, wear_bucket(max_k, cache.grid_kcycles()));
    }

    /// Chunked-lane maximum of the log-domain reference-crossing time over
    /// all cells, where stressed cells (per `stressed`) sit at
    /// `stressed_wear` and the rest at `spared_wear`.
    ///
    /// Bit-identical to folding
    /// [`ln_t_cross_us_cached`](crate::erase::ln_t_cross_us_cached) over the
    /// cells with `f64::max` (see [`reference::max_ln_t_cross`]). Returns
    /// `-∞` for an empty arena; the caller takes the final `exp`.
    ///
    /// # Panics
    ///
    /// Panics if `stressed.len() != self.len()`.
    pub fn max_ln_t_cross(
        &self,
        params: &PhysicsParams,
        cache: &mut EraseDistCache,
        stressed: &[bool],
        stressed_wear: f64,
        spared_wear: f64,
    ) -> f64 {
        let n = self.len();
        assert_eq!(stressed.len(), n, "stress mask length mismatch");
        self.ensure_cache(params, cache, stressed_wear.max(spared_wear));
        let (ln_median, sigma) = cache.tables();
        let grid = cache.grid_kcycles();
        let lane = |i: usize| -> f64 {
            let wear = if stressed[i] {
                stressed_wear
            } else {
                spared_wear
            };
            let k = wear * self.susceptibility[i] / 1000.0;
            let bucket = wear_bucket(k, grid);
            ln_t_cross(
                ln_median[bucket],
                sigma[bucket],
                self.erase_z[i],
                self.ln_straggler[i],
                self.early_activation[i],
                self.ln_early_factor[i],
                k,
            )
        };
        let chunks = n / LANES;
        let mut acc = [f64::NEG_INFINITY; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            for (j, slot) in acc.iter_mut().enumerate() {
                *slot = slot.max(lane(base + j));
            }
        }
        let mut worst = acc.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        for i in chunks * LANES..n {
            worst = worst.max(lane(i));
        }
        worst
    }

    /// [`Self::max_ln_t_cross`] for a whole schedule of
    /// `(stressed_wear, spared_wear)` pairs in one call.
    ///
    /// Bit-identical to calling [`Self::max_ln_t_cross`] once per pair, but
    /// instead of scanning all cells per pair it scans each stress class
    /// **once** in descending-susceptibility order and keeps only the
    /// Pareto frontier of cells that can attain the maximum at *some* wear:
    ///
    /// * within a class every cell sees the same wear, so the quantized
    ///   wear bucket — and with it `ln median` (non-decreasing by the
    ///   calibration's construction) — is monotone in susceptibility;
    /// * a cell whose wear-independent offset (`sigma·z + ln straggler +
    ///   trap`) is provably below that of a higher-susceptibility candidate
    ///   by more than a 1e-9 pruning margin is therefore strictly below it at
    ///   every wear, and can never be the maximum.
    ///
    /// The bounds use the global sigma range of the filled table and the
    /// trap-active/-inactive extremes, so pruning is conservative; surviving
    /// candidates (typically a few dozen of 4096) are evaluated exactly per
    /// pair. If a hand-built calibration breaks `ln median` monotonicity
    /// ([`EraseDistCache::is_monotone`]), the kernel falls back to full
    /// chunked scans.
    ///
    /// # Panics
    ///
    /// Panics if `stressed.len() != self.len()`.
    pub fn max_ln_t_cross_multi(
        &self,
        params: &PhysicsParams,
        cache: &mut EraseDistCache,
        stressed: &[bool],
        wear_pairs: &[(f64, f64)],
    ) -> Vec<f64> {
        let n = self.len();
        assert_eq!(stressed.len(), n, "stress mask length mismatch");
        let max_wear = wear_pairs
            .iter()
            .fold(0.0f64, |acc, &(s, p)| acc.max(s).max(p));
        self.ensure_cache(params, cache, max_wear);
        if !cache.is_monotone() {
            return wear_pairs
                .iter()
                .map(|&(s, p)| self.max_ln_t_cross(params, cache, stressed, s, p))
                .collect();
        }
        let (ln_median, sigma) = cache.tables();
        let grid = cache.grid_kcycles();
        let (sig_lo, sig_hi) = sigma
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        let stressed_cands = self.frontier(stressed, true, sig_lo, sig_hi);
        let spared_cands = self.frontier(stressed, false, sig_lo, sig_hi);
        let eval = |cands: &[u32], wear: f64| -> f64 {
            let mut worst = f64::NEG_INFINITY;
            for &oi in cands {
                let i = oi as usize;
                let k = wear * self.susceptibility[i] / 1000.0;
                let bucket = wear_bucket(k, grid);
                worst = worst.max(ln_t_cross(
                    ln_median[bucket],
                    sigma[bucket],
                    self.erase_z[i],
                    self.ln_straggler[i],
                    self.early_activation[i],
                    self.ln_early_factor[i],
                    k,
                ));
            }
            worst
        };
        wear_pairs
            .iter()
            .map(|&(s, p)| eval(&stressed_cands, s).max(eval(&spared_cands, p)))
            .collect()
    }

    /// One descending-susceptibility sweep over the cells of one stress
    /// class, keeping every cell not strictly dominated by an
    /// earlier (≥ susceptibility) candidate. `d_hi`/`d_lo` bound the cell's
    /// wear-independent log-time offset over all sigmas in the table and
    /// both trap states; `fl` monotonicity of `*`/`+` keeps the bounds valid
    /// in floating point, and [`PRUNE_MARGIN`] absorbs the cross-expression
    /// rounding slack.
    fn frontier(&self, stressed: &[bool], want: bool, sig_lo: f64, sig_hi: f64) -> Vec<u32> {
        let mut cands = Vec::new();
        let mut best_d_lo = f64::NEG_INFINITY;
        for &oi in &self.susc_order {
            let i = oi as usize;
            if stressed[i] != want {
                continue;
            }
            let z = self.erase_z[i];
            let straggler = self.ln_straggler[i];
            let zs_a = sig_lo * z;
            let zs_b = sig_hi * z;
            let d_hi = zs_a.max(zs_b) + straggler;
            // `ln_early_factor` ≤ 0: the trap-active variant is the floor.
            let d_lo = zs_a.min(zs_b) + straggler + self.ln_early_factor[i];
            if best_d_lo >= d_hi + PRUNE_MARGIN {
                continue;
            }
            cands.push(oi);
            best_d_lo = best_d_lo.max(d_lo);
        }
        cands
    }

    /// Applies one erase pulse of nominal duration `nominal_us` (scaled by
    /// the die-temperature factor) to every cell; returns `true` once all
    /// cells have fully erased.
    ///
    /// Bit-identical to the scalar loop of
    /// [`apply_erase_cached`](crate::erase::apply_erase_cached) over
    /// [`PulseNoise::effective_us`] durations (see
    /// [`reference::erase_pulse`]). The crossing time is memoized per cell
    /// under the key `(wear bucket, trap active)` — between consecutive
    /// pulses of an erase-until-clean loop the bucket rarely moves, so the
    /// log-normal `exp` is skipped for almost every cell.
    pub fn erase_pulse(
        &mut self,
        params: &PhysicsParams,
        cache: &mut EraseDistCache,
        base_cell: u64,
        pulse: &PulseNoise,
        nominal_us: f64,
        temp_factor: f64,
    ) -> bool {
        let n = self.len();
        let max_wear = self.wear_cycles.iter().fold(0.0f64, |acc, &w| acc.max(w));
        self.ensure_cache(params, cache, max_wear);
        let (ln_median, sigma) = cache.tables();
        let grid = cache.grid_kcycles();
        let vref = params.vref.get();
        let p_shift = params.programmed_vth_shift_per_kcycle;
        let e_shift = params.erased_vth_shift_per_kcycle;
        let wear_erase = params.wear.erase;
        let wear_erase_only = params.wear.erase_only;
        let mut all_done = true;
        for i in 0..n {
            let eff = pulse.effective_us(params, base_cell + i as u64, nominal_us) * temp_factor;
            let wear = self.wear_cycles[i];
            let susceptibility = self.susceptibility[i];
            // t_cross (memoized): a pure function of the quantized bucket,
            // the trap-activation flag, and the cell statics.
            let k = wear * susceptibility / 1000.0;
            let bucket = wear_bucket(k, grid);
            let active = k >= self.early_activation[i];
            let key = ((bucket as u64) << 1) | u64::from(active);
            let t_cross = if self.t_cross_key[i] == key {
                self.t_cross_val[i]
            } else {
                let t = ln_t_cross(
                    ln_median[bucket],
                    sigma[bucket],
                    self.erase_z[i],
                    self.ln_straggler[i],
                    self.early_activation[i],
                    self.ln_early_factor[i],
                    k,
                )
                .exp();
                self.t_cross_key[i] = key;
                self.t_cross_val[i] = t;
                t
            };
            // t_full: extend the crossing time to the full erase span.
            let keff = (wear / 1000.0) * susceptibility;
            let vth_prog = self.vth_prog0[i] + p_shift * keff;
            let vth_end = self.vth_erased0[i] + e_shift * keff;
            let span_to_ref = vth_prog - vref;
            let span_total = vth_prog - vth_end;
            let t_full = if span_to_ref <= 0.0 {
                t_cross
            } else {
                t_cross * (span_total / span_to_ref)
            };
            // Linear descent toward the wear-shifted erased level.
            let vth = self.vth[i];
            let was_programmed = vth >= vref;
            let t_full = t_full.max(1e-9);
            let slope = (vth_prog - vth_end).max(0.0) / t_full;
            let new_vth = (vth - slope * eff).max(vth_end);
            let fraction = (eff / t_full).min(1.0);
            let weight = if was_programmed {
                wear_erase
            } else {
                wear_erase_only
            };
            self.wear_cycles[i] = wear + weight * fraction;
            self.vth[i] = new_vth;
            all_done &= new_vth <= vth_end + 1e-12;
        }
        all_done
    }

    /// Senses one 16-bit word starting at cell offset `offset`; bit `b`
    /// reads 1 when cell `offset + b` conducts under a fresh noise draw
    /// (`stream` draw index = bit index).
    #[must_use]
    pub fn sense_word(&self, params: &PhysicsParams, offset: usize, stream: &CounterStream) -> u16 {
        let vref = params.vref.get();
        let sigma = params.read_noise_sigma;
        let mut value = 0u16;
        for bit in 0..WORD_BITS {
            let noise = sigma * stream.normal(bit as u64);
            if self.vth[offset + bit] + noise < vref {
                value |= 1 << bit;
            }
        }
        value
    }

    /// Programs the 0 bits of `value` into the word at cell offset `offset`
    /// (flash programming only moves bits 1 → 0); `stream` draw index = bit
    /// index.
    pub fn program_word(
        &mut self,
        params: &PhysicsParams,
        offset: usize,
        value: u16,
        stream: &CounterStream,
    ) {
        let p_shift = params.programmed_vth_shift_per_kcycle;
        let e_shift = params.erased_vth_shift_per_kcycle;
        let w_prog = params.wear.program;
        for bit in 0..WORD_BITS {
            if value & (1 << bit) == 0 {
                let i = offset + bit;
                // Lane replication of `apply_program_with_z` — exact formula
                // parity, including the `(wear / 1000.0) * susceptibility`
                // grouping of the effective wear.
                let keff = (self.wear_cycles[i] / 1000.0) * self.susceptibility[i];
                let vth_prog = self.vth_prog0[i] + p_shift * keff;
                let vth_erased = self.vth_erased0[i] + e_shift * keff;
                let target = vth_prog + PROG_OP_NOISE_SIGMA * stream.normal(bit as u64);
                let span = (vth_prog - vth_erased).max(1e-9);
                let injected = ((target - self.vth[i]) / span).clamp(0.0, 1.0);
                self.wear_cycles[i] += w_prog * injected;
                self.vth[i] = self.vth[i].max(target);
            }
        }
    }

    /// Chunked-lane closed-form P/E stress: cells flagged in `stressed` take
    /// `cycles` full program+erase cycles and end programmed; the rest take
    /// erase-only wear and end erased.
    ///
    /// Bit-identical to the scalar loop of
    /// [`bulk_pe_stress`](crate::wear::bulk_pe_stress) (see
    /// [`reference::bulk_stress`]).
    ///
    /// # Panics
    ///
    /// Panics if `stressed.len() != self.len()` or `cycles` is negative.
    pub fn bulk_stress(&mut self, params: &PhysicsParams, stressed: &[bool], cycles: f64) {
        let n = self.len();
        assert_eq!(stressed.len(), n, "stress mask length mismatch");
        assert!(cycles >= 0.0, "negative cycle count");
        let per_pe = params.wear.program + params.wear.erase;
        let per_erase_only = params.wear.erase_only;
        let p_shift = params.programmed_vth_shift_per_kcycle;
        let e_shift = params.erased_vth_shift_per_kcycle;
        let mut step = |i: usize| {
            let per_cycle = if stressed[i] { per_pe } else { per_erase_only };
            let wear = self.wear_cycles[i] + per_cycle * cycles;
            self.wear_cycles[i] = wear;
            let keff = (wear / 1000.0) * self.susceptibility[i];
            self.vth[i] = if stressed[i] {
                self.vth_prog0[i] + p_shift * keff
            } else {
                self.vth_erased0[i] + e_shift * keff
            };
        };
        let chunks = n / LANES;
        for c in 0..chunks {
            let base = c * LANES;
            for j in 0..LANES {
                step(base + j);
            }
        }
        for i in chunks * LANES..n {
            step(i);
        }
    }
}

/// Scalar reference loops over the canonical per-cell API.
///
/// Each function here is the specification its [`CellArena`] kernel must
/// match bit-for-bit; the property tests in `tests/properties.rs` pin the
/// equivalence across cell counts (chunk-tail edges) and wear levels (LUT
/// bucket boundaries). They are deliberately written with
/// [`CellArena::statics_at`] / [`CellArena::state_at`] round-trips so they
/// also exercise the lane encodings.
pub mod reference {
    use super::CellArena;
    use crate::erase::{apply_erase_cached, ln_t_cross_us_cached, EraseDistCache};
    use crate::noise::PulseNoise;
    use crate::params::PhysicsParams;
    use crate::wear::bulk_pe_stress;

    /// Scalar fold of [`ln_t_cross_us_cached`] — the reference for
    /// [`CellArena::max_ln_t_cross`].
    pub fn max_ln_t_cross(
        arena: &CellArena,
        params: &PhysicsParams,
        cache: &mut EraseDistCache,
        stressed: &[bool],
        stressed_wear: f64,
        spared_wear: f64,
    ) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for (i, &is_stressed) in stressed.iter().enumerate().take(arena.len()) {
            let statics = arena.statics_at(i);
            let wear = if is_stressed {
                stressed_wear
            } else {
                spared_wear
            };
            worst = worst.max(ln_t_cross_us_cached(params, &statics, wear, cache));
        }
        worst
    }

    /// Scalar loop of [`apply_erase_cached`] — the reference for
    /// [`CellArena::erase_pulse`].
    pub fn erase_pulse(
        arena: &mut CellArena,
        params: &PhysicsParams,
        cache: &mut EraseDistCache,
        base_cell: u64,
        pulse: &PulseNoise,
        nominal_us: f64,
        temp_factor: f64,
    ) -> bool {
        let mut all_done = true;
        for i in 0..arena.len() {
            let statics = arena.statics_at(i);
            let mut state = arena.state_at(i);
            let eff = pulse.effective_us(params, base_cell + i as u64, nominal_us) * temp_factor;
            let outcome = apply_erase_cached(params, &statics, &mut state, eff, cache);
            arena.set_state(i, state);
            all_done &= outcome.completed;
        }
        all_done
    }

    /// Scalar loop of [`bulk_pe_stress`] — the reference for
    /// [`CellArena::bulk_stress`].
    pub fn bulk_stress(
        arena: &mut CellArena,
        params: &PhysicsParams,
        stressed: &[bool],
        cycles: f64,
    ) {
        for (i, &is_stressed) in stressed.iter().enumerate().take(arena.len()) {
            let statics = arena.statics_at(i);
            let mut state = arena.state_at(i);
            bulk_pe_stress(
                params,
                &statics,
                &mut state,
                cycles,
                is_stressed,
                is_stressed,
            );
            arena.set_state(i, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellStatics;
    use crate::rng::SplitMix64;

    const CHIP: u64 = 0xA4E7A;

    fn arena(n: usize) -> (PhysicsParams, CellArena) {
        let params = PhysicsParams::msp430_like();
        let arena = CellArena::derive(&params, CHIP, 64, n);
        (params, arena)
    }

    fn mask(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 3 != 0).collect()
    }

    #[test]
    fn statics_roundtrip_exactly() {
        let (params, arena) = arena(600);
        for i in 0..arena.len() {
            let direct = CellStatics::derive(&params, CHIP, 64 + i as u64);
            assert_eq!(arena.statics_at(i), direct, "cell {i}");
        }
    }

    #[test]
    fn max_kernel_matches_scalar_reference() {
        let (params, arena) = arena(333);
        let stressed = mask(arena.len());
        for wear in [0.0, 4_000.0, 40_000.0, 100_000.0] {
            let mut c1 = EraseDistCache::new(params.erase_dist_grid_kcycles);
            let mut c2 = EraseDistCache::new(params.erase_dist_grid_kcycles);
            let fast = arena.max_ln_t_cross(&params, &mut c1, &stressed, wear, wear * 0.04);
            let slow =
                reference::max_ln_t_cross(&arena, &params, &mut c2, &stressed, wear, wear * 0.04);
            assert_eq!(fast.to_bits(), slow.to_bits(), "wear {wear}");
        }
    }

    #[test]
    fn multi_kernel_matches_single_calls_bitwise() {
        let (params, arena) = arena(1024);
        let stressed = mask(arena.len());
        let pairs: Vec<(f64, f64)> = (0..=16)
            .map(|s| {
                let w = 40_000.0 * f64::from(s) / 16.0;
                (w, w * 0.017_241)
            })
            .collect();
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let multi = arena.max_ln_t_cross_multi(&params, &mut cache, &stressed, &pairs);
        for (idx, &(s, p)) in pairs.iter().enumerate() {
            let single = arena.max_ln_t_cross(&params, &mut cache, &stressed, s, p);
            assert_eq!(multi[idx].to_bits(), single.to_bits(), "pair {idx}");
        }
    }

    #[test]
    fn program_word_matches_scalar_reference() {
        use crate::program::apply_program_with_z;
        let (params, mut fast) = arena(64);
        let mut slow = fast.clone();
        fast.bulk_stress(&params, &mask(fast.len()), 12_000.0);
        slow.bulk_stress(&params, &mask(slow.len()), 12_000.0);
        for (word, value) in [(0usize, 0x0000u16), (1, 0x5A5A), (2, 0xFFFE), (3, 0x8001)] {
            let stream = CounterStream::new(CHIP, 0x9806 ^ word as u64, word as u64);
            fast.program_word(&params, word * 16, value, &stream);
            for bit in 0..16 {
                if value & (1 << bit) == 0 {
                    let i = word * 16 + bit;
                    let statics = slow.statics_at(i);
                    let mut state = slow.state_at(i);
                    apply_program_with_z(&params, &statics, &mut state, stream.normal(bit as u64));
                    slow.set_state(i, state);
                }
            }
        }
        for i in 0..fast.len() {
            assert_eq!(fast.vth()[i].to_bits(), slow.vth()[i].to_bits(), "vth {i}");
            assert_eq!(
                fast.wear_cycles()[i].to_bits(),
                slow.wear_cycles()[i].to_bits(),
                "wear {i}"
            );
        }
    }

    #[test]
    fn erase_pulse_matches_scalar_reference() {
        let (params, mut fast) = arena(200);
        let mut slow = fast.clone();
        let stressed = mask(fast.len());
        fast.bulk_stress(&params, &stressed, 30_000.0);
        slow.bulk_stress(&params, &stressed, 30_000.0);
        let mut c1 = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let mut c2 = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let mut rng = SplitMix64::new(0xE7A);
        for pulse_no in 0..24 {
            let pulse = PulseNoise::draw(&params, &mut rng);
            let a = fast.erase_pulse(&params, &mut c1, 64, &pulse, 25.0, 1.07);
            let b = reference::erase_pulse(&mut slow, &params, &mut c2, 64, &pulse, 25.0, 1.07);
            assert_eq!(a, b, "pulse {pulse_no} completion");
            for i in 0..fast.len() {
                assert_eq!(
                    fast.vth()[i].to_bits(),
                    slow.vth()[i].to_bits(),
                    "pulse {pulse_no} cell {i} vth"
                );
                assert_eq!(
                    fast.wear_cycles()[i].to_bits(),
                    slow.wear_cycles()[i].to_bits(),
                    "pulse {pulse_no} cell {i} wear"
                );
            }
        }
    }

    #[test]
    fn bulk_stress_matches_scalar_reference() {
        let (params, mut fast) = arena(257);
        let mut slow = fast.clone();
        let stressed = mask(fast.len());
        for cycles in [0.0, 1.0, 12_345.0, 40_000.0] {
            fast.bulk_stress(&params, &stressed, cycles);
            reference::bulk_stress(&mut slow, &params, &stressed, cycles);
            for i in 0..fast.len() {
                assert_eq!(fast.vth()[i].to_bits(), slow.vth()[i].to_bits());
                assert_eq!(
                    fast.wear_cycles()[i].to_bits(),
                    slow.wear_cycles()[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn counter_streams_make_word_ops_order_independent() {
        let (params, mut a) = arena(64);
        let mut b = a.clone();
        let stream0 = CounterStream::new(1, 2, 3);
        let stream1 = CounterStream::new(1, 2, 4);
        a.program_word(&params, 0, 0x00FF, &stream0);
        a.program_word(&params, 16, 0xF00F, &stream1);
        // Reverse order on the twin arena: counter streams are stateless,
        // so the cells end bit-identical.
        b.program_word(&params, 16, 0xF00F, &stream1);
        b.program_word(&params, 0, 0x00FF, &stream0);
        for i in 0..a.len() {
            assert_eq!(a.vth()[i].to_bits(), b.vth()[i].to_bits());
        }
        assert_eq!(
            a.sense_word(&params, 0, &stream1),
            b.sense_word(&params, 0, &stream1)
        );
    }

    #[test]
    fn empty_arena_max_is_neg_infinity() {
        let (params, arena) = arena(0);
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let worst = arena.max_ln_t_cross(&params, &mut cache, &[], 10_000.0, 0.0);
        assert!(worst.is_infinite() && worst < 0.0);
        assert_eq!(worst.exp().to_bits(), 0.0_f64.to_bits());
    }
}
