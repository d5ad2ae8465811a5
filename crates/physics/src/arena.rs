//! Structure-of-arrays cell storage and chunked lane kernels.
//!
//! The per-cell scalar API ([`CellStatics`] + [`CellState`] + the functions
//! in [`crate::erase`] / [`crate::program`] / [`crate::wear`]) is the
//! *specification*: every kernel here is a data-layout transformation of a
//! scalar loop over that API and is required to produce **bit-identical**
//! results (see the `reference` module and the property tests that pin the
//! equivalence).
//!
//! A [`CellArena`] stores one contiguous `f64` lane per [`CellState`] field
//! and per [`CellStatics`] quantity a kernel reads, so the hot loops —
//! erase-time sampling, threshold comparison, wear accumulation — walk flat
//! slices instead of chasing per-cell structs with `Option` payloads. The
//! two `Option` fields exist only in a lane encoding whose sentinels keep
//! the kernels branch-free:
//!
//! | field | lane encoding |
//! |---|---|
//! | `straggler_extra: Option<f64>` | `ln(1 + extra)` additive term, `0.0` for `None` |
//! | `early: Option<EarlyTrap>` | activation `+∞` for `None` (never activates), `ln factor` `0.0` |
//!
//! The statics no kernel reads (the raw `Option`s, `prog_time_us`,
//! `retention_z`) have no lane: [`CellArena::statics_at`] re-derives a
//! cell's whole [`CellStatics`] for the scalar per-cell loops and the
//! `reference` module. The statics lanes are a pure function of `(params,
//! chip_seed, base_cell)` and never change after [`CellArena::derive`], so
//! they sit behind an [`Arc`] that every clone of the arena shares. The
//! per-chip state lanes, `vth` and `wear_cycles`, sit behind a second
//! [`Arc`] and are copy-on-write: a clone copies two pointers, and the
//! first write to a state that another clone still holds copies its lanes.
//!
//! The statics lanes are a cache: [`CellArena::shed_statics`] drops them
//! and keeps the state, so a shed cell costs its 16 state bytes instead of
//! 72. The next kernel that reads them on that arena (or on a clone taken
//! after the shed) derives them again, bit for bit, from the chip seed and
//! base cell the arena keeps.
//!
//! There is no `unsafe` and no explicit SIMD. The exact erase pulse and the
//! statics fill run a `CHUNK` of cells at a time, `bulk_stress` runs
//! fixed-width chunks with a scalar tail, and the closed-form erase, reads
//! and programs are plain loops; each loop body keeps the cells independent
//! so the autovectorizer can work, and `f64::max` reductions are exact
//! (commutative and associative on the NaN-free domain), so a kernel may
//! reduce in any cell order without changing the result bit.
//!
//! Randomness inside kernels comes from counter-based streams
//! ([`CounterStream`]): every deviate is a pure function of
//! `(seed, cell_index, draw)`, so lanes need no serial generator state and
//! any subset of cells can be replayed in any order. The kernels that draw
//! normals make no call per draw: the exact erase pulse and the statics
//! fill stack a `CHUNK` of uniforms and turn them into deviates with one
//! batched inverse CDF, `program_word` does the same for its 16 bits, and
//! `sense_word` draws only the bits whose cells sit within the read
//! noise's reach of `vref`. Dropped arenas and shed statics hand their
//! lanes to a bounded per-thread free list, which the next copy or derive
//! of a lane of the same length draws from.

use std::sync::Arc;

use crate::cell::{field, CellState, CellStatics};
use crate::erase::{ln_t_cross, wear_bucket, EraseDistCache};
use crate::noise::{PulseNoise, Z_BOUND};
use crate::params::PhysicsParams;
use crate::program::PROG_OP_NOISE_SIGMA;
use crate::rng::{cell_uniform, Channel, CounterStream};
use crate::variation::inverse_normal_cdf_batch;

/// Cells per chunk of the kernels that draw normal deviates (the exact
/// erase pulse and the statics fill): each chunk's uniforms sit in a stack
/// array, and one [`inverse_normal_cdf_batch`] turns them into deviates.
/// 64 cells keep every chunk array within 512 bytes.
pub(crate) const CHUNK: usize = 64;

/// Pruning margin (in log-time units) for the frontier fast path of
/// [`CellArena::max_ln_t_cross_multi`]: a cell is discarded only when a kept
/// candidate provably exceeds it by more than this margin, which dwarfs the
/// few-ulp rounding slack of the bound arithmetic (~1e-14 at these
/// magnitudes).
const PRUNE_MARGIN: f64 = 1e-9;

/// Log-domain margin of the crossing-time ceiling behind the closed-form
/// full erase (see [`CellArena::erase_pulse`]): it keeps the ceiling strictly
/// above every cell's `t_cross` by far more than the few-ulp error of
/// `exp`, which IEEE 754 does not pin the way it pins `+`, `*` and `/`.
const CEILING_MARGIN: f64 = 1e-9;

/// Bits per machine word of the simulated array.
const WORD_BITS: usize = 16;

/// The lanes fixed at [`CellArena::derive`], shared by every clone that
/// holds them: the seven statics the cell kernels read, and their maxima.
#[derive(Debug)]
struct Statics {
    erase_z: Vec<f64>,
    ln_straggler: Vec<f64>,
    early_activation: Vec<f64>,
    ln_early_factor: Vec<f64>,
    vth_erased0: Vec<f64>,
    vth_prog0: Vec<f64>,
    susceptibility: Vec<f64>,
    // --- lane maxima (`-∞` on an empty arena, susceptibility `0`) ---
    max_susceptibility: f64,
    max_erase_z: f64,
    max_ln_straggler: f64,
    max_ln_early_factor: f64,
}

impl Statics {
    /// Fills the lanes in one pass over the cells, through the same
    /// per-field formulas as [`CellStatics::derive`]; the fields no kernel
    /// reads (`prog_time_us`, `retention_z`) are never drawn. The pass runs
    /// a [`CHUNK`] of cells at a time: one loop fills the uniform-drawn
    /// lanes and stacks the uniforms of the three normal deviates
    /// (`erase_z`, `vth_erased0`, `vth_prog0`; the channels of
    /// [`field::erase_z`], [`field::vth_erased0`] and [`field::vth_prog0`]),
    /// which three [`inverse_normal_cdf_batch`] calls then turn into the
    /// lanes. Every draw of a cell shares the `mix2(chip_seed, cell)`
    /// prefix, so the one loop hashes it once.
    fn derive(params: &PhysicsParams, chip_seed: u64, base_cell: u64, n: usize) -> Self {
        let mut erase_z = pool::filled(n, 0.0);
        let mut ln_straggler = pool::filled(n, 0.0);
        let mut early_activation = pool::filled(n, 0.0);
        let mut ln_early_factor = pool::filled(n, 0.0);
        let mut vth_erased0 = pool::filled(n, 0.0);
        let mut vth_prog0 = pool::filled(n, 0.0);
        let mut susceptibility = pool::filled(n, 0.0);
        let mut uniforms = [[0.0; CHUNK]; 3];
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            for (j, i) in (start..start + len).enumerate() {
                let cell = base_cell + i as u64;
                let early = field::early(params, chip_seed, cell);
                uniforms[0][j] = cell_uniform(chip_seed, cell, Channel::EraseSpeed);
                ln_straggler[i] =
                    field::ln_straggler(field::straggler_extra(params, chip_seed, cell));
                early_activation[i] = field::early_activation_kcycles(early);
                ln_early_factor[i] = field::ln_early_factor(early);
                uniforms[1][j] = cell_uniform(chip_seed, cell, Channel::VthErased);
                uniforms[2][j] = cell_uniform(chip_seed, cell, Channel::VthProgrammed);
                susceptibility[i] = field::susceptibility(params, chip_seed, cell);
            }
            let lanes = start..start + len;
            inverse_normal_cdf_batch(&uniforms[0][..len], &mut erase_z[lanes.clone()]);
            let vth_erased0 = &mut vth_erased0[lanes.clone()];
            inverse_normal_cdf_batch(&uniforms[1][..len], vth_erased0);
            for v in vth_erased0 {
                *v = field::vth_erased0(params, *v);
            }
            let vth_prog0 = &mut vth_prog0[lanes];
            inverse_normal_cdf_batch(&uniforms[2][..len], vth_prog0);
            for v in vth_prog0 {
                *v = field::vth_prog0(params, *v);
            }
        }
        let lane_max = |lane: &[f64], init: f64| lane.iter().fold(init, |acc, &v| acc.max(v));
        Self {
            max_susceptibility: lane_max(&susceptibility, 0.0),
            max_erase_z: lane_max(&erase_z, f64::NEG_INFINITY),
            max_ln_straggler: lane_max(&ln_straggler, f64::NEG_INFINITY),
            max_ln_early_factor: lane_max(&ln_early_factor, f64::NEG_INFINITY),
            erase_z,
            ln_straggler,
            early_activation,
            ln_early_factor,
            vth_erased0,
            vth_prog0,
            susceptibility,
        }
    }

    /// Pre-fills `cache` so every bucket any cell of these lanes can reach
    /// at wear up to `max_wear` is resident, and the kernel loops are pure
    /// reads; returns that highest bucket. Uses the lane-wide
    /// susceptibility maximum; `fl` monotonicity of `*` and `/` guarantees
    /// no per-cell bucket exceeds the bound.
    fn ensure_cache(
        &self,
        params: &PhysicsParams,
        cache: &mut EraseDistCache,
        max_wear: f64,
    ) -> usize {
        let max_k = max_wear * self.max_susceptibility / 1000.0;
        let max_bucket = wear_bucket(max_k, cache.grid_kcycles());
        cache.ensure(&params.erase_cal, max_bucket);
        max_bucket
    }

    /// One sweep in `order` (descending susceptibility, see [`scan_order`])
    /// over the cells of one stress class, keeping every cell not strictly
    /// dominated by an earlier (≥ susceptibility) candidate. `d_hi`/`d_lo`
    /// bound the cell's wear-independent log-time offset over all sigmas in
    /// the table and both trap states; `fl` monotonicity of `*`/`+` keeps
    /// the bounds valid in floating point, and [`PRUNE_MARGIN`] absorbs the
    /// cross-expression rounding slack.
    fn frontier(
        &self,
        order: &[u32],
        stressed: &[bool],
        want: bool,
        sig_lo: f64,
        sig_hi: f64,
    ) -> Vec<u32> {
        let mut cands = Vec::new();
        let mut best_d_lo = f64::NEG_INFINITY;
        for &oi in order {
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

    /// A ceiling on every cell's crossing time this pulse: each term of
    /// [`ln_t_cross`] replaced by its maximum over the cells and over the
    /// buckets `0..=max_bucket` they can reach, plus [`CEILING_MARGIN`].
    /// Table sigmas are never negative (the calibration clamps them at 0),
    /// so `sigma·z ≤ max sigma · max(max z, 0)`, and the trap term is either
    /// `0` or the cell's `ln factor`; IEEE `+` and `*` are monotone, so the
    /// bound holds bit for bit.
    fn t_cross_ceiling(&self, pass: &ErasePass<'_>, max_bucket: usize) -> f64 {
        let lane_max = |lane: &[f64]| lane.iter().fold(f64::NEG_INFINITY, |acc, &v| acc.max(v));
        let ln_median_hi = lane_max(&pass.ln_median[..=max_bucket]);
        let sigma_hi = lane_max(&pass.sigma[..=max_bucket]);
        (ln_median_hi
            + sigma_hi * self.max_erase_z.max(0.0)
            + self.max_ln_straggler
            + self.max_ln_early_factor.max(0.0)
            + CEILING_MARGIN)
            .exp()
    }

    /// Cell `i`'s log-domain crossing time at `wear`: [`ln_t_cross`] over
    /// the cell's lanes, in the table bucket of its effective wear.
    #[inline]
    fn ln_t_cross(&self, i: usize, wear: f64, pass: &ErasePass<'_>) -> f64 {
        let k = wear * self.susceptibility[i] / 1000.0;
        let bucket = wear_bucket(k, pass.grid);
        ln_t_cross(
            pass.ln_median[bucket],
            pass.sigma[bucket],
            self.erase_z[i],
            self.ln_straggler[i],
            self.early_activation[i],
            self.ln_early_factor[i],
            k,
        )
    }
}

impl Drop for Statics {
    fn drop(&mut self) {
        for lane in [
            &mut self.erase_z,
            &mut self.ln_straggler,
            &mut self.early_activation,
            &mut self.ln_early_factor,
            &mut self.vth_erased0,
            &mut self.vth_prog0,
            &mut self.susceptibility,
        ] {
            pool::recycle(std::mem::take(lane));
        }
    }
}

/// The inputs of the crossing-time and erase kernels: the filled
/// distribution table and the parameters the per-cell erase step reads.
struct ErasePass<'a> {
    ln_median: &'a [f64],
    sigma: &'a [f64],
    grid: f64,
    vref: f64,
    p_shift: f64,
    e_shift: f64,
    wear_erase: f64,
    wear_erase_only: f64,
}

impl<'a> ErasePass<'a> {
    fn new(params: &PhysicsParams, cache: &'a EraseDistCache) -> Self {
        let (ln_median, sigma) = cache.tables();
        Self {
            ln_median,
            sigma,
            grid: cache.grid_kcycles(),
            vref: params.vref.get(),
            p_shift: params.programmed_vth_shift_per_kcycle,
            e_shift: params.erased_vth_shift_per_kcycle,
            wear_erase: params.wear.erase,
            wear_erase_only: params.wear.erase_only,
        }
    }

    /// A crossing time extended to the full erase span, floored at 1 ns.
    #[inline]
    fn t_full(&self, t_cross: f64, vth_prog: f64, vth_end: f64) -> f64 {
        let span_to_ref = vth_prog - self.vref;
        let span_total = vth_prog - vth_end;
        let t_full = if span_to_ref <= 0.0 {
            t_cross
        } else {
            t_cross * (span_total / span_to_ref)
        };
        t_full.max(1e-9)
    }

    /// Wear weight of a full erase of a cell at `vth`: a programmed cell
    /// tunnels its whole charge, an erased one only sees the field.
    #[inline]
    fn weight(&self, vth: f64) -> f64 {
        if vth >= self.vref {
            self.wear_erase
        } else {
            self.wear_erase_only
        }
    }
}

/// A structure-of-arrays arena of flash cells.
///
/// The statics lanes are immutable after [`CellArena::derive`] and shared
/// (behind an [`Arc`]) by every clone that holds them; an arena may shed
/// them ([`CellArena::shed_statics`]) and derives them again when a kernel
/// next reads them. The per-chip lanes — `vth` and `wear_cycles`, the
/// dynamic state — sit behind their own [`Arc`], and a clone is
/// copy-on-write: it shares them with its source until one of the two
/// writes, and that write copies the lanes for the writer alone.
#[derive(Debug, Clone)]
pub struct CellArena {
    /// `None` once shed; `CellArena::lanes` derives them again.
    statics: Option<Arc<Statics>>,
    state: Arc<State>,
    /// The chip and first cell the statics derive from.
    chip_seed: u64,
    base_cell: u64,
}

/// The lanes one chip owns: `vth` and `wear_cycles`, the dynamic state.
///
/// The kernels that write these lanes are methods here that take the
/// shared [`Statics`] as an argument: two distinct reference arguments tell
/// the compiler a write to the state cannot move the statics lanes, so it
/// keeps their bounds in registers instead of reloading them per cell.
#[derive(Debug)]
struct State {
    vth: Vec<f64>,
    wear_cycles: Vec<f64>,
}

impl Clone for State {
    fn clone(&self) -> Self {
        Self {
            vth: pool::copied(&self.vth),
            wear_cycles: pool::copied(&self.wear_cycles),
        }
    }
}

impl Drop for State {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.vth));
        pool::recycle(std::mem::take(&mut self.wear_cycles));
    }
}

impl CellArena {
    /// Derives `n` fresh cells starting at global index `base_cell` on chip
    /// `chip_seed`. The statics lanes come from the per-field formulas of
    /// [`CellStatics::derive`], so the simulated chip is the same chip the
    /// scalar API sees. Each lane takes a fitting buffer from this thread's
    /// lane free list when one is kept, and writes every element of it.
    #[must_use]
    pub fn derive(params: &PhysicsParams, chip_seed: u64, base_cell: u64, n: usize) -> Self {
        let statics = Statics::derive(params, chip_seed, base_cell, n);
        Self {
            state: Arc::new(State {
                vth: pool::copied(&statics.vth_erased0),
                wear_cycles: pool::filled(n, 0.0),
            }),
            statics: Some(Arc::new(statics)),
            chip_seed,
            base_cell,
        }
    }

    /// Drops the arena's statics lanes and keeps its state (`vth` and
    /// wear), so the arena costs 16 bytes a cell instead of 72. The next
    /// kernel that reads the statics derives them again, bit for bit; a
    /// clone taken before the shed keeps its own. The last holder's lanes
    /// go to this thread's lane free list.
    pub fn shed_statics(&mut self) {
        self.statics = None;
    }

    /// The statics lanes, derived again if the arena shed them, and the
    /// state borrowed apart from them.
    fn lanes(&mut self, params: &PhysicsParams) -> (&Statics, &mut Arc<State>) {
        let Self {
            statics,
            state,
            chip_seed,
            base_cell,
        } = self;
        let statics = statics.get_or_insert_with(|| {
            Arc::new(Statics::derive(
                params,
                *chip_seed,
                *base_cell,
                state.vth.len(),
            ))
        });
        (statics, state)
    }

    /// Number of cells in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.vth.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.vth.is_empty()
    }

    /// The [`CellStatics`] of cell `i`: [`CellStatics::derive`] at the
    /// arena's chip and cell index, the specification every lane is filled
    /// from. `params` must be the set the arena was derived with.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn statics_at(&self, params: &PhysicsParams, i: usize) -> CellStatics {
        assert!(
            i < self.len(),
            "cell {i} outside an arena of {}",
            self.len()
        );
        CellStatics::derive(params, self.chip_seed, self.base_cell + i as u64)
    }

    /// The dynamic [`CellState`] of cell `i`.
    #[must_use]
    pub fn state_at(&self, i: usize) -> CellState {
        CellState {
            vth: self.state.vth[i],
            wear_cycles: self.state.wear_cycles[i],
        }
    }

    /// Writes cell `i`'s dynamic state back into the lanes.
    pub fn set_state(&mut self, i: usize, state: CellState) {
        let lanes = Arc::make_mut(&mut self.state);
        lanes.vth[i] = state.vth;
        lanes.wear_cycles[i] = state.wear_cycles;
    }

    /// The threshold-voltage lane.
    #[must_use]
    pub fn vth(&self) -> &[f64] {
        &self.state.vth
    }

    /// The accumulated-wear lane.
    #[must_use]
    pub fn wear_cycles(&self) -> &[f64] {
        &self.state.wear_cycles
    }

    /// The log-domain reference-crossing time maximized over all cells,
    /// for each `(stressed_wear, spared_wear)` pair of a schedule: stressed
    /// cells (per `stressed`) sit at `stressed_wear`, the rest at
    /// `spared_wear`. Returns `-∞` for an empty arena; the caller takes the
    /// final `exp`.
    ///
    /// Bit-identical to folding
    /// [`ln_t_cross_us_cached`](crate::erase::ln_t_cross_us_cached) over the
    /// cells with `f64::max` once per pair (see
    /// [`reference::max_ln_t_cross`]), but instead of scanning all cells per
    /// pair it scans each stress class **once** in descending-susceptibility
    /// order and keeps only the Pareto frontier of cells that can attain
    /// the maximum at *some* wear:
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
    /// pair. The scan order is sorted on each call (~110 µs for 4096
    /// cells), once per accelerated imprint, rather than at derive, which
    /// every wear probe pays. If a hand-built calibration breaks `ln median`
    /// monotonicity ([`EraseDistCache::is_monotone`]), every cell of a class
    /// is a candidate and nothing is sorted.
    ///
    /// # Panics
    ///
    /// Panics if `stressed.len() != self.len()`.
    pub fn max_ln_t_cross_multi(
        &mut self,
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
        let (s, _) = self.lanes(params);
        s.ensure_cache(params, cache, max_wear);
        let pass = ErasePass::new(params, cache);
        let (stressed_cands, spared_cands) = if cache.is_monotone() {
            let (sig_lo, sig_hi) = pass
                .sigma
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                    (lo.min(s), hi.max(s))
                });
            let order = scan_order(&s.susceptibility);
            (
                s.frontier(&order, stressed, true, sig_lo, sig_hi),
                s.frontier(&order, stressed, false, sig_lo, sig_hi),
            )
        } else {
            let class = |want: bool| -> Vec<u32> {
                (0..n as u32)
                    .filter(|&i| stressed[i as usize] == want)
                    .collect()
            };
            (class(true), class(false))
        };
        let eval = |cands: &[u32], wear: f64| -> f64 {
            let mut worst = f64::NEG_INFINITY;
            for &i in cands {
                worst = worst.max(s.ln_t_cross(i as usize, wear, &pass));
            }
            worst
        };
        wear_pairs
            .iter()
            .map(|&(sw, pw)| eval(&stressed_cands, sw).max(eval(&spared_cands, pw)))
            .collect()
    }

    /// Applies one erase pulse of nominal duration `nominal_us` (scaled by
    /// the die-temperature factor) to every cell; returns `true` once all
    /// cells have fully erased.
    ///
    /// Bit-identical to the scalar loop of
    /// [`apply_erase_cached`](crate::erase::apply_erase_cached) over
    /// [`PulseNoise::effective_us`] durations (see
    /// [`reference::erase_pulse`]).
    ///
    /// A full erase (a nominal `TERASE` that outlasts every cell's erase
    /// time many times over) takes a closed form. `floor`, the shortest
    /// duration any cell can draw from this pulse, is compared with
    /// `t_ub`, a ceiling on every cell's crossing time. When
    /// `floor ≥ t_ub`, each cell whose full-erase time under the ceiling
    /// still fits in `floor`, with the slope under the ceiling reaching
    /// its erased level, is written straight to that level with one
    /// erase's wear: IEEE `*`, `/` and `-` are monotone, so the exact step
    /// would land on the same bits (`fraction == 1.0`, `vth == vth_end`).
    /// Those cells skip the jitter hash, the inverse-CDF normal and both
    /// `exp` calls. Any cell the bound does not settle, and every pulse
    /// with `floor < t_ub` (partial erases, erase-until-clean polls), takes
    /// the exact step.
    ///
    /// The exact pulse runs a `CHUNK` of cells at a time in three passes:
    /// the jitter (hash, one batched inverse CDF, `exp`, the multiplication
    /// by `temp_factor`), the crossing times, then the step over pre-sliced
    /// lanes, whose divisions vectorize.
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
        let max_wear = self.state.max_wear();
        let (s, state) = self.lanes(params);
        let max_bucket = s.ensure_cache(params, cache, max_wear);
        let pass = ErasePass::new(params, cache);
        let floor = pulse.min_effective_us(params, nominal_us) * temp_factor;
        let state = Arc::make_mut(state);
        let t_ub = s.t_cross_ceiling(&pass, max_bucket);
        let mut all_done = true;
        if floor >= t_ub {
            for i in 0..n {
                if !state.erase_cell_closed_form(s, i, floor, t_ub, &pass) {
                    let eff =
                        pulse.effective_us(params, base_cell + i as u64, nominal_us) * temp_factor;
                    all_done &= state.erase_chunk(s, i, &[eff], &pass);
                }
            }
        } else {
            let mut eff = [0.0; CHUNK];
            for start in (0..n).step_by(CHUNK) {
                let eff = &mut eff[..CHUNK.min(n - start)];
                let first_cell = base_cell + start as u64;
                pulse.effective_us_chunk(params, first_cell, nominal_us, temp_factor, eff);
                all_done &= state.erase_chunk(s, start, eff, &pass);
            }
        }
        all_done
    }

    /// Senses one 16-bit word starting at cell offset `offset`; bit `b`
    /// reads 1 when cell `offset + b` conducts under a fresh noise draw
    /// (`stream` draw index = bit index).
    ///
    /// Bit-identical to drawing every bit (see [`reference::sense_word`]),
    /// but only the bits in the noise band are drawn. Every deviate lies
    /// inside `±Z_BOUND` (9), and IEEE `*` and `+` are monotone, so
    /// `σ·z ∈ [−|σ|·9, |σ|·9]`: a cell with `vth + |σ|·9 < vref` reads 1
    /// under any draw, and one with `vth − |σ|·9 ≥ vref` reads 0. A NaN
    /// `vth` or `σ` fails both tests and takes the draw. On a programmed
    /// segment no bit is in the band.
    #[must_use]
    pub fn sense_word(&self, params: &PhysicsParams, offset: usize, stream: &CounterStream) -> u16 {
        let vref = params.vref.get();
        let sigma = params.read_noise_sigma;
        let reach = sigma.abs() * Z_BOUND;
        let vth = &self.state.vth[offset..offset + WORD_BITS];
        let mut value = 0u16;
        let mut band = 0u16;
        for (bit, &v) in vth.iter().enumerate() {
            let one = v + reach < vref;
            let zero = v - reach >= vref;
            value |= u16::from(one) << bit;
            band |= u16::from(!one && !zero) << bit;
        }
        // Walk the in-band bits by their mask. `word_normal` takes each
        // draw's index salt from a table: hashing the index in the loop
        // made a read with 92 % of its cells in band ~30 % slower than
        // drawing every bit.
        while band != 0 {
            let bit = band.trailing_zeros();
            band &= band - 1;
            let noise = sigma * stream.word_normal(bit);
            value |= u16::from(vth[bit as usize] + noise < vref) << bit;
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
        let (s, state) = self.lanes(params);
        Arc::make_mut(state).program_word(s, params, offset, value, *stream);
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
        assert_eq!(stressed.len(), self.len(), "stress mask length mismatch");
        assert!(cycles >= 0.0, "negative cycle count");
        let (s, state) = self.lanes(params);
        Arc::make_mut(state).bulk_stress(s, params, stressed, cycles);
    }
}

/// Cell indices by descending susceptibility, ties by ascending index: the
/// scan order of the frontier pruning in
/// [`CellArena::max_ln_t_cross_multi`]. Susceptibility is always positive
/// (the table rejects anchors ≤ 0), and positive floats order like their
/// bits, so sorting `(!bits, index)` pairs gives that order with no
/// indirect load per comparison.
fn scan_order(susceptibility: &[f64]) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = susceptibility
        .iter()
        .zip(0..)
        .map(|(&s, i)| (!s.to_bits(), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[allow(
    clippy::inline_always,
    reason = "left to `#[inline]`, the per-cell erase steps stay calls and partial erases run ~8 % slower"
)]
impl State {
    /// The largest wear over the cells (`0` for an empty arena).
    fn max_wear(&self) -> f64 {
        self.wear_cycles.iter().fold(0.0f64, |acc, &w| acc.max(w))
    }

    /// The closed form of a full erase of cell `i`: when the pulse floor
    /// outlasts the cell's full-erase time under the ceiling `t_ub`, and the
    /// slope under the ceiling already takes the cell below its erased
    /// level within the floor, the exact step ends the cell at that level
    /// with wear fraction 1, so write that. Returns `false`, leaving the
    /// cell untouched, when the bound does not settle it.
    #[inline(always)]
    fn erase_cell_closed_form(
        &mut self,
        s: &Statics,
        i: usize,
        floor: f64,
        t_ub: f64,
        pass: &ErasePass<'_>,
    ) -> bool {
        let wear = self.wear_cycles[i];
        let keff = (wear / 1000.0) * s.susceptibility[i];
        let vth_prog = s.vth_prog0[i] + pass.p_shift * keff;
        let vth_end = s.vth_erased0[i] + pass.e_shift * keff;
        let t_full_ub = pass.t_full(t_ub, vth_prog, vth_end);
        let slope_lb = (vth_prog - vth_end).max(0.0) / t_full_ub;
        let vth = self.vth[i];
        // Strict `<`: `max` then returns `vth_end` itself, even at ±0.
        if !(floor >= t_full_ub && vth - slope_lb * floor < vth_end) {
            return false;
        }
        self.wear_cycles[i] = wear + pass.weight(vth);
        self.vth[i] = vth_end;
        true
    }

    /// The exact erase kernel over the cells `start..start + eff.len()`
    /// (at most [`CHUNK`]) under effective pulses of `eff` µs: lane
    /// replication of [`apply_erase_cached`](crate::erase::apply_erase_cached).
    /// A first pass computes every crossing time, so the step pass is
    /// straight-line arithmetic over pre-sliced lanes. Returns whether
    /// every cell completed.
    #[inline(always)]
    fn erase_chunk(
        &mut self,
        s: &Statics,
        start: usize,
        eff: &[f64],
        pass: &ErasePass<'_>,
    ) -> bool {
        let len = eff.len();
        let mut t_cross = [0.0; CHUNK];
        let t_cross = &mut t_cross[..len];
        for (i, t) in (start..).zip(t_cross.iter_mut()) {
            *t = s.ln_t_cross(i, self.wear_cycles[i], pass).exp();
        }
        let lanes = start..start + len;
        let vth = &mut self.vth[lanes.clone()];
        let wear = &mut self.wear_cycles[lanes.clone()];
        let susceptibility = &s.susceptibility[lanes.clone()];
        let vth_prog0 = &s.vth_prog0[lanes.clone()];
        let vth_erased0 = &s.vth_erased0[lanes];
        let mut done = true;
        for j in 0..len {
            // Linear descent toward the wear-shifted erased level.
            let keff = (wear[j] / 1000.0) * susceptibility[j];
            let vth_prog = vth_prog0[j] + pass.p_shift * keff;
            let vth_end = vth_erased0[j] + pass.e_shift * keff;
            let t_full = pass.t_full(t_cross[j], vth_prog, vth_end);
            let slope = (vth_prog - vth_end).max(0.0) / t_full;
            let new_vth = (vth[j] - slope * eff[j]).max(vth_end);
            let fraction = (eff[j] / t_full).min(1.0);
            wear[j] += pass.weight(vth[j]) * fraction;
            vth[j] = new_vth;
            done &= new_vth <= vth_end + 1e-12;
        }
        done
    }

    /// [`CellArena::program_word`] over the state lanes. The word's 16
    /// deviates are drawn in one [`inverse_normal_cdf_batch`] (a deviate
    /// of a bit left at 1 goes unused), then each 0 bit is programmed.
    fn program_word(
        &mut self,
        s: &Statics,
        params: &PhysicsParams,
        offset: usize,
        value: u16,
        stream: CounterStream,
    ) {
        let p_shift = params.programmed_vth_shift_per_kcycle;
        let e_shift = params.erased_vth_shift_per_kcycle;
        let w_prog = params.wear.program;
        let mut uniforms = [0.0; WORD_BITS];
        for (draw, u) in (0..).zip(uniforms.iter_mut()) {
            *u = stream.uniform(draw);
        }
        let mut z = [0.0; WORD_BITS];
        inverse_normal_cdf_batch(&uniforms, &mut z);
        let mut zeros = !value;
        while zeros != 0 {
            let bit = zeros.trailing_zeros() as usize;
            zeros &= zeros - 1;
            let i = offset + bit;
            // Lane replication of `apply_program_with_z` — exact formula
            // parity, including the `(wear / 1000.0) * susceptibility`
            // grouping of the effective wear.
            let keff = (self.wear_cycles[i] / 1000.0) * s.susceptibility[i];
            let vth_prog = s.vth_prog0[i] + p_shift * keff;
            let vth_erased = s.vth_erased0[i] + e_shift * keff;
            let target = vth_prog + PROG_OP_NOISE_SIGMA * z[bit];
            let span = (vth_prog - vth_erased).max(1e-9);
            let injected = ((target - self.vth[i]) / span).clamp(0.0, 1.0);
            self.wear_cycles[i] += w_prog * injected;
            self.vth[i] = self.vth[i].max(target);
        }
    }

    /// [`CellArena::bulk_stress`] over the state lanes, in `LANES`-wide
    /// chunks with a scalar tail.
    fn bulk_stress(&mut self, s: &Statics, params: &PhysicsParams, stressed: &[bool], cycles: f64) {
        /// Cells per chunk: 8 × `f64` is one 512-bit row, two AVX2
        /// registers. A plain loop over the cells measured no faster on
        /// `kernel/bulk_stress_5k`.
        const LANES: usize = 8;
        let n = self.vth.len();
        let per_pe = params.wear.program + params.wear.erase;
        let per_erase_only = params.wear.erase_only;
        let p_shift = params.programmed_vth_shift_per_kcycle;
        let e_shift = params.erased_vth_shift_per_kcycle;
        let mut step = |i: usize| {
            let per_cycle = if stressed[i] { per_pe } else { per_erase_only };
            let wear = self.wear_cycles[i] + per_cycle * cycles;
            self.wear_cycles[i] = wear;
            let keff = (wear / 1000.0) * s.susceptibility[i];
            self.vth[i] = if stressed[i] {
                s.vth_prog0[i] + p_shift * keff
            } else {
                s.vth_erased0[i] + e_shift * keff
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

/// A bounded per-thread free list of lane buffers.
///
/// A wear probe derives a segment on a chip's throwaway copy, a copy that
/// computes on a segment whose statics were shed derives them again, and
/// a request's first write to a state it shares copies that state's
/// lanes; the request then drops them all, up to ~0.5 MB in 32 KB lanes.
/// Handed back to the allocator, that much free memory at the heap top is
/// returned to the OS, and the next request faults the pages back in.
/// Dropped arenas and statics (shed ones included) put their lanes here
/// instead, and the next copy or derive draws from them. A buffer keeps no values (a derive
/// fills and a copy overwrites the whole lane), so reuse changes no result.
///
/// A taker gets only a buffer that fits its lane: capacity at least the
/// lane's length and under twice it. A list that handed any buffer to any
/// taker gave the 4 096-cell lanes of main-memory segments to the
/// 1 024-cell arenas of the info memory, so every enrolled chip kept 24 KB
/// of slack per lane; that slack, not the reuse, raised the peak RSS of a
/// quick `inspect_tray` run from 85.1 to 93.5 MB once derives drew from
/// the list.
///
/// A chip's own segments draw from the list too.
mod pool {
    use std::cell::RefCell;
    use std::mem::size_of;

    /// The most lane bytes one thread keeps: a probe's statics and state
    /// lanes (9 of 32 KB each), and then some.
    pub(super) const MAX_BYTES: usize = 1 << 20;

    /// The kept buffers and their total capacity.
    struct Free {
        lanes: Vec<Vec<f64>>,
        bytes: usize,
    }

    thread_local! {
        static FREE: RefCell<Free> = const {
            RefCell::new(Free {
                lanes: Vec::new(),
                bytes: 0,
            })
        };
    }

    /// The newest kept buffer that fits a lane of `len` elements
    /// (`len ≤ capacity < 2·len`), emptied; `None` if none fits (or during
    /// thread teardown).
    fn take(len: usize) -> Option<Vec<f64>> {
        FREE.try_with(|free| {
            let free = &mut *free.borrow_mut();
            let fits = |buf: &Vec<f64>| (len..2 * len).contains(&buf.capacity());
            let at = free.lanes.iter().rposition(fits)?;
            let buf = free.lanes.remove(at);
            free.bytes -= buf.capacity() * size_of::<f64>();
            Some(buf)
        })
        .ok()
        .flatten()
    }

    /// A lane holding a copy of `src`.
    pub(super) fn copied(src: &[f64]) -> Vec<f64> {
        match take(src.len()) {
            Some(mut lane) => {
                lane.extend_from_slice(src);
                lane
            }
            None => src.to_vec(),
        }
    }

    /// A lane of `len` copies of `value`.
    pub(super) fn filled(len: usize, value: f64) -> Vec<f64> {
        match take(len) {
            Some(mut lane) => {
                lane.resize(len, value);
                lane
            }
            None => vec![value; len],
        }
    }

    /// The lane bytes this thread keeps.
    #[cfg(test)]
    pub(super) fn kept_bytes() -> usize {
        FREE.with(|free| free.borrow().bytes)
    }

    /// Keeps `lane`'s buffer for the next taker while the thread holds
    /// under [`MAX_BYTES`]; frees it otherwise.
    pub(super) fn recycle(mut lane: Vec<f64>) {
        let bytes = lane.capacity() * size_of::<f64>();
        if bytes == 0 {
            return;
        }
        lane.clear();
        let _ = FREE.try_with(|free| {
            let free = &mut *free.borrow_mut();
            if free.bytes + bytes <= MAX_BYTES {
                free.bytes += bytes;
                free.lanes.push(lane);
            }
        });
    }
}

/// Scalar reference loops over the canonical per-cell API.
///
/// Each function here is the specification its [`CellArena`] kernel must
/// match bit-for-bit; the property tests in `tests/properties.rs` pin the
/// equivalence across cell counts (chunk-tail edges) and wear levels (LUT
/// bucket boundaries). Each cell's statics come from
/// [`CellArena::statics_at`], which re-derives them with
/// [`CellStatics::derive`](crate::cell::CellStatics::derive), so the
/// comparison also checks every lane the kernel reads against the
/// specification.
pub mod reference {
    use super::CellArena;
    use crate::erase::{apply_erase_cached, ln_t_cross_us_cached, EraseDistCache};
    use crate::noise::PulseNoise;
    use crate::params::PhysicsParams;
    use crate::rng::CounterStream;
    use crate::wear::bulk_pe_stress;

    /// Scalar fold of [`ln_t_cross_us_cached`] for one wear pair — the
    /// reference for each entry of [`CellArena::max_ln_t_cross_multi`].
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
            let statics = arena.statics_at(params, i);
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
            let statics = arena.statics_at(params, i);
            let mut state = arena.state_at(i);
            let eff = pulse.effective_us(params, base_cell + i as u64, nominal_us) * temp_factor;
            let completed = apply_erase_cached(params, &statics, &mut state, eff, cache);
            arena.set_state(i, state);
            all_done &= completed;
        }
        all_done
    }

    /// A draw for every bit, as a read without the noise band takes it —
    /// the reference for [`CellArena::sense_word`].
    pub fn sense_word(
        arena: &CellArena,
        params: &PhysicsParams,
        offset: usize,
        stream: &CounterStream,
    ) -> u16 {
        let mut value = 0u16;
        for bit in 0..16 {
            let noise = params.read_noise_sigma * stream.normal(bit);
            if arena.vth()[offset + bit as usize] + noise < params.vref.get() {
                value |= 1 << bit;
            }
        }
        value
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
            let statics = arena.statics_at(params, i);
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

    /// The statics lanes an arena holds.
    fn held(a: &CellArena) -> &Statics {
        a.statics.as_deref().expect("the arena holds its statics")
    }

    /// Every lane a kernel reads equals its [`CellStatics::derive`] field
    /// or accessor bit for bit, and every lane maximum is that lane's fold:
    /// all three presets, four chips, base cells up to 2⁴⁰, and lengths on
    /// both sides of the chunk edge.
    #[test]
    fn kernel_lanes_match_the_spec_bitwise() {
        let presets = [
            PhysicsParams::msp430_like(),
            PhysicsParams::generic_nor(),
            PhysicsParams::fast_standalone_nor(),
        ];
        let chips = [
            (CHIP, 64),
            (0, 0),
            (0x5EED_CAFE, (1 << 40) - 4096),
            (u64::MAX, 1 << 40),
        ];
        for (preset, params) in presets.iter().enumerate() {
            for (chip, base) in chips {
                for n in [0, 1, 7, 8, 9, 4096] {
                    let s = Statics::derive(params, chip, base, n);
                    let at = format!("preset {preset} chip {chip:#x} base {base} n {n}");
                    assert_statics_match_spec(params, (chip, base, n), &s, &at);
                }
            }
        }
    }

    /// Asserts that `s` holds the `n` cells of `chip` from `base` on: every
    /// lane has `n` elements, each equal to its [`CellStatics::derive`]
    /// field or accessor bit for bit, and every lane maximum is that
    /// lane's fold.
    fn assert_statics_match_spec(
        params: &PhysicsParams,
        (chip, base, n): (u64, u64, usize),
        s: &Statics,
        at: &str,
    ) {
        let lens = [
            s.erase_z.len(),
            s.ln_straggler.len(),
            s.early_activation.len(),
            s.ln_early_factor.len(),
            s.vth_erased0.len(),
            s.vth_prog0.len(),
            s.susceptibility.len(),
        ];
        assert_eq!(lens, [n; 7], "{at}: lane lengths");
        let mut max = [0.0, f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];
        for i in 0..n {
            let spec = CellStatics::derive(params, chip, base + i as u64);
            let lanes = [
                ("erase_z", s.erase_z[i], spec.erase_z),
                ("ln_straggler", s.ln_straggler[i], spec.ln_straggler()),
                (
                    "early_activation",
                    s.early_activation[i],
                    spec.early_activation_kcycles(),
                ),
                (
                    "ln_early_factor",
                    s.ln_early_factor[i],
                    spec.ln_early_factor(),
                ),
                ("vth_erased0", s.vth_erased0[i], spec.vth_erased0),
                ("vth_prog0", s.vth_prog0[i], spec.vth_prog0),
                ("susceptibility", s.susceptibility[i], spec.susceptibility),
            ];
            for (lane, got, want) in lanes {
                assert_eq!(got.to_bits(), want.to_bits(), "{at} cell {i}: {lane}");
            }
            max = [
                max[0].max(spec.susceptibility),
                max[1].max(spec.erase_z),
                max[2].max(spec.ln_straggler()),
                max[3].max(spec.ln_early_factor()),
            ];
        }
        let got = [
            s.max_susceptibility,
            s.max_erase_z,
            s.max_ln_straggler,
            s.max_ln_early_factor,
        ];
        assert_eq!(got.map(f64::to_bits), max.map(f64::to_bits), "{at}: maxima");
    }

    /// The frontier scans cells by descending susceptibility, ties by
    /// ascending index: the keyed sort gives the order of the comparison
    /// sort it replaced, on a derived lane and on a lane of many ties.
    #[test]
    fn scan_order_is_descending_susceptibility_then_index() {
        let comparison_sort = |lane: &[f64]| {
            let mut order: Vec<u32> = (0..lane.len() as u32).collect();
            order.sort_by(|&a, &b| {
                lane[b as usize]
                    .total_cmp(&lane[a as usize])
                    .then(a.cmp(&b))
            });
            order
        };
        let (_, derived) = arena(4096);
        let ties: Vec<f64> = (0..4096u64)
            .map(|i| [0.018, 0.25, 1.0, 1.06, 1.15][(crate::rng::mix64(i) % 5) as usize])
            .collect();
        for lane in [&held(&derived).susceptibility, &ties] {
            assert_eq!(scan_order(lane), comparison_sort(lane));
        }
    }

    #[test]
    fn max_kernel_matches_scalar_reference() {
        let (params, mut arena) = arena(333);
        let stressed = mask(arena.len());
        for wear in [0.0, 4_000.0, 40_000.0, 100_000.0] {
            let mut c1 = EraseDistCache::new(params.erase_dist_grid_kcycles);
            let mut c2 = EraseDistCache::new(params.erase_dist_grid_kcycles);
            let fast =
                arena.max_ln_t_cross_multi(&params, &mut c1, &stressed, &[(wear, wear * 0.04)]);
            let slow =
                reference::max_ln_t_cross(&arena, &params, &mut c2, &stressed, wear, wear * 0.04);
            assert_eq!(fast[0].to_bits(), slow.to_bits(), "wear {wear}");
        }
    }

    /// A schedule of wear pairs, as one accelerated imprint runs it.
    fn schedule() -> Vec<(f64, f64)> {
        (0..=16)
            .map(|s| {
                let w = 40_000.0 * f64::from(s) / 16.0;
                (w, w * 0.017_241)
            })
            .collect()
    }

    #[test]
    fn multi_kernel_matches_single_calls_bitwise() {
        let (params, mut arena) = arena(1024);
        let stressed = mask(arena.len());
        let pairs = schedule();
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let multi = arena.max_ln_t_cross_multi(&params, &mut cache, &stressed, &pairs);
        for (idx, &(s, p)) in pairs.iter().enumerate() {
            let single = reference::max_ln_t_cross(&arena, &params, &mut cache, &stressed, s, p);
            assert_eq!(multi[idx].to_bits(), single.to_bits(), "pair {idx}");
        }
    }

    /// On a table marked non-monotone the kernel skips the frontier and
    /// evaluates every cell of each class, still bit for bit.
    #[test]
    fn non_monotone_table_scans_every_cell() {
        let (params, mut arena) = arena(1024);
        let stressed = mask(arena.len());
        let pairs = schedule();
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let monotone = arena.max_ln_t_cross_multi(&params, &mut cache, &stressed, &pairs);
        cache.mark_non_monotone();
        assert!(!cache.is_monotone());
        let full_scan = arena.max_ln_t_cross_multi(&params, &mut cache, &stressed, &pairs);
        for (idx, &(s, p)) in pairs.iter().enumerate() {
            let single = reference::max_ln_t_cross(&arena, &params, &mut cache, &stressed, s, p);
            assert_eq!(full_scan[idx].to_bits(), single.to_bits(), "pair {idx}");
            assert_eq!(
                full_scan[idx].to_bits(),
                monotone[idx].to_bits(),
                "pair {idx}"
            );
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
                    let statics = slow.statics_at(&params, i);
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

    /// Derives a 30 K-stressed arena and a full-erase pulse for it.
    fn worn(n: usize) -> (PhysicsParams, CellArena, PulseNoise) {
        let (params, mut arena) = arena(n);
        arena.bulk_stress(&params, &mask(n), 30_000.0);
        let pulse = PulseNoise::from_stream(&params, &CounterStream::new(CHIP, 0xE7A5, 0));
        (params, arena, pulse)
    }

    fn assert_lanes_bitwise(a: &CellArena, b: &CellArena, what: &str) {
        for i in 0..a.len() {
            assert_eq!(
                a.vth()[i].to_bits(),
                b.vth()[i].to_bits(),
                "{what}: vth {i}"
            );
            assert_eq!(
                a.wear_cycles()[i].to_bits(),
                b.wear_cycles()[i].to_bits(),
                "{what}: wear {i}"
            );
        }
    }

    /// A full erase equals the scalar loop bit for bit. Which path each cell
    /// took leaves no trace in the state, so this cannot tell the closed
    /// form from the exact step: `perf_smoke`'s 10 000/s floor on
    /// `kernel/erase_segment` gates that, since an erase whose every cell
    /// takes the exact step costs about what `kernel/partial_erase` does,
    /// under 6 000/s.
    #[test]
    fn full_erase_takes_the_closed_form() {
        let (params, mut fast, pulse) = worn(300);
        let mut slow = fast.clone();
        let grid = params.erase_dist_grid_kcycles;
        let done = fast.erase_pulse(
            &params,
            &mut EraseDistCache::new(grid),
            64,
            &pulse,
            25_000.0,
            1.0,
        );
        let want = reference::erase_pulse(
            &mut slow,
            &params,
            &mut EraseDistCache::new(grid),
            64,
            &pulse,
            25_000.0,
            1.0,
        );
        assert!(done && want);
        assert_lanes_bitwise(&fast, &slow, "full erase");
    }

    #[test]
    fn closed_form_leaves_program_overshoot_to_the_exact_step() {
        // Without per-cell jitter every cell's pulse is exactly the floor. A
        // lone cell with no straggler or trap and `erase_z > 0` sits right at
        // the ceiling, so a floor 0.1 % above its full-erase time under the
        // ceiling passes the time test. Programmed 50 mV above its nominal
        // level, the cell still needs more than that: only the slope test
        // keeps it out of the closed form.
        let mut params = PhysicsParams::msp430_like();
        params.op_jitter_sigma = 0.0;
        let mut cell = (0..1000)
            .map(|chip| CellArena::derive(&params, chip, 0, 1))
            .find(|a| {
                let s = a.statics_at(&params, 0);
                s.erase_z > 0.0 && s.straggler_extra.is_none() && s.early.is_none()
            })
            .expect("some chip has a plain cell 0");
        let statics = cell.statics_at(&params, 0);
        let vth_end = statics.vth_erased0;
        cell.set_state(
            0,
            CellState {
                vth: statics.vth_prog0 + 0.05,
                wear_cycles: 0.0,
            },
        );
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let max_bucket = held(&cell).ensure_cache(&params, &mut cache, 0.0);
        let pass = ErasePass::new(&params, &cache);
        let t_full_ub = pass.t_full(
            held(&cell).t_cross_ceiling(&pass, max_bucket),
            statics.vth_prog0,
            vth_end,
        );
        let pulse = PulseNoise::from_stream(&params, &CounterStream::new(CHIP, 0xE7A5, 0));
        let nominal_us = t_full_ub * 1.001 / pulse.common_factor;
        let mut scalar = cell.clone();
        let done = cell.erase_pulse(&params, &mut cache, 0, &pulse, nominal_us, 1.0);
        let want =
            reference::erase_pulse(&mut scalar, &params, &mut cache, 0, &pulse, nominal_us, 1.0);
        assert_eq!(done, want);
        assert_lanes_bitwise(&cell, &scalar, "overshoot");
        assert!(
            !done && cell.vth()[0] > vth_end + 0.04,
            "vth {}",
            cell.vth()[0]
        );
    }

    /// Every bit of an arena's state: `vth` and wear.
    fn state_bits(a: &CellArena) -> [Vec<u64>; 2] {
        let bits = |lane: &[f64]| lane.iter().map(|v| v.to_bits()).collect();
        [bits(a.vth()), bits(a.wear_cycles())]
    }

    /// A clone shares its source's state lanes until one of the two
    /// writes, and each of the four writers copies the lanes for the
    /// writer alone: a write to the clone leaves the source's bits as they
    /// were, and a write to the source leaves the clone's.
    #[test]
    fn clones_are_copy_on_write() {
        type Write = fn(&mut CellArena, &PhysicsParams, &PulseNoise);
        let writes: [(&str, Write); 4] = [
            ("erase_pulse", |a, params, pulse| {
                let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
                a.erase_pulse(params, &mut cache, 64, pulse, 25_000.0, 1.0);
            }),
            ("program_word", |a, params, _| {
                let stream = CounterStream::new(CHIP, 0x9806, 0);
                a.program_word(params, 0, 0x0F0F, &stream);
            }),
            ("bulk_stress", |a, params, _| {
                a.bulk_stress(params, &mask(a.len()), 1_000.0);
            }),
            ("set_state", |a, _, _| {
                let mut cell = a.state_at(3);
                cell.wear_cycles += 1.0;
                a.set_state(3, cell);
            }),
        ];
        for (name, write) in writes {
            let (params, mut source, pulse) = worn(256);
            let before = state_bits(&source);
            let mut copy = source.clone();
            assert!(Arc::ptr_eq(
                source.statics.as_ref().expect("unshed source"),
                copy.statics.as_ref().expect("unshed copy")
            ));
            assert!(Arc::ptr_eq(&source.state, &copy.state), "{name}: shared");
            write(&mut copy, &params, &pulse);
            assert!(!Arc::ptr_eq(&source.state, &copy.state), "{name}: copied");
            assert_ne!(
                state_bits(&copy),
                before,
                "{name}: the write moved the copy"
            );
            assert_eq!(
                state_bits(&source),
                before,
                "{name}: source after the copy's write"
            );
            let second = source.clone();
            write(&mut source, &params, &pulse);
            assert_ne!(
                state_bits(&source),
                before,
                "{name}: the write moved the source"
            );
            assert_eq!(
                state_bits(&second),
                before,
                "{name}: clone after the source's write"
            );
        }
    }

    /// Every kernel that reads the statics gives on a shed arena the
    /// outputs and the `vth`/wear bits of its unshed twin, and leaves the
    /// shed arena holding lanes of its own, derived again to the spec: the
    /// exact and the closed-form erase pulse, word programs, bulk stress
    /// and the crossing-time maxima, over a length off the chunk edges.
    #[test]
    fn shed_arenas_compute_what_unshed_ones_do() {
        type Kernel = fn(&mut CellArena, &PhysicsParams, &PulseNoise) -> Vec<u64>;
        fn erase(
            a: &mut CellArena,
            params: &PhysicsParams,
            pulse: &PulseNoise,
            us: f64,
        ) -> Vec<u64> {
            let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
            vec![u64::from(
                a.erase_pulse(params, &mut cache, 64, pulse, us, 1.07),
            )]
        }
        let kernels: [(&str, Kernel); 5] = [
            ("exact erase_pulse", |a, params, pulse| {
                erase(a, params, pulse, 25.0)
            }),
            ("closed-form erase_pulse", |a, params, pulse| {
                erase(a, params, pulse, 25_000.0)
            }),
            ("program_word", |a, params, _| {
                for w in 0..a.len() / WORD_BITS {
                    let stream = CounterStream::new(CHIP, 0x9806, w as u64);
                    a.program_word(params, w * WORD_BITS, 0x5A0F, &stream);
                }
                Vec::new()
            }),
            ("bulk_stress", |a, params, _| {
                a.bulk_stress(params, &mask(a.len()), 12_345.0);
                Vec::new()
            }),
            ("max_ln_t_cross_multi", |a, params, _| {
                let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
                let worst = a.max_ln_t_cross_multi(params, &mut cache, &mask(a.len()), &schedule());
                worst.into_iter().map(f64::to_bits).collect()
            }),
        ];
        let n = 333;
        for (name, kernel) in kernels {
            let (params, mut unshed, pulse) = worn(n);
            let mut shed = unshed.clone();
            shed.shed_statics();
            assert!(shed.statics.is_none(), "{name}: shed");
            let want = kernel(&mut unshed, &params, &pulse);
            assert_eq!(kernel(&mut shed, &params, &pulse), want, "{name}: outputs");
            assert_lanes_bitwise(&shed, &unshed, name);
            assert!(
                !Arc::ptr_eq(
                    shed.statics.as_ref().expect("derived again"),
                    unshed.statics.as_ref().expect("held")
                ),
                "{name}: the shed arena derived lanes of its own"
            );
            assert_statics_match_spec(&params, (CHIP, 64, n), held(&shed), name);
        }
    }

    /// Shedding the last hold on a segment's statics hands its seven lanes
    /// to the free list; shedding a hold a clone shares hands none. Both
    /// keep their state.
    #[test]
    fn shedding_the_last_holder_recycles_seven_lanes() {
        let n = 4096;
        let (_, mut last) = arena(n);
        let mut first = last.clone();
        let before = state_bits(&last);
        let kept = pool::kept_bytes();
        first.shed_statics();
        assert_eq!(pool::kept_bytes(), kept, "a shared hold frees no lane");
        last.shed_statics();
        assert_eq!(
            pool::kept_bytes(),
            kept + 7 * n * size_of::<f64>(),
            "the last hold freed seven lanes"
        );
        assert_eq!(state_bits(&first), before);
        assert_eq!(state_bits(&last), before);
    }

    /// The free list hands a taker only a buffer that fits its lane: a
    /// recycled 4 096-lane stays kept when a 1 024-lane is copied, and the
    /// next 4 096-lane gets it.
    #[test]
    fn pool_hands_out_only_fitting_lanes() {
        pool::recycle(vec![0.0f64; 4096]);
        let kept = pool::kept_bytes();
        let small = pool::copied(&vec![1.0f64; 1024]);
        assert!(
            small.capacity() < 2048,
            "a 1 024-lane took a buffer of {}",
            small.capacity()
        );
        assert_eq!(pool::kept_bytes(), kept, "the 4 096 buffer stays kept");
        let large = pool::copied(&vec![2.0f64; 4096]);
        assert_eq!(pool::kept_bytes(), kept - large.capacity() * 8);
    }

    /// The banded read equals drawing every bit. Cells sit on both band
    /// edges `vref ± 9σ` and one ulp either side, at `vref` and its
    /// neighbours, far outside the band, and — in every other word — just
    /// past the point where their own draw flips them, which only a band
    /// no narrower than every drawable deviate reads right. Read noise of
    /// the preset, zero, negative and NaN.
    #[test]
    fn sense_word_matches_the_always_draw_reference() {
        let (preset, mut word) = arena(WORD_BITS);
        let sigma0 = preset.read_noise_sigma;
        for sigma in [sigma0, 0.0, -sigma0, f64::NAN] {
            let mut params = preset.clone();
            params.read_noise_sigma = sigma;
            let vref = params.vref.get();
            let reach = sigma.abs() * Z_BOUND;
            let places: Vec<f64> = [vref + reach, vref - reach, vref]
                .into_iter()
                .flat_map(|v| [v, v.next_up(), v.next_down()])
                .chain([vref + 1.0, vref - 1.0])
                .collect();
            let mut drawn = 0;
            for w in 0..4_000u64 {
                let stream = CounterStream::new(CHIP, 0x5E45, w);
                for bit in 0..WORD_BITS {
                    let vth = if w % 2 == 0 {
                        let z = stream.normal(bit as u64);
                        drawn += usize::from(z.abs() > 3.0);
                        vref - sigma * z * (1.0 - 1e-6)
                    } else {
                        places[(bit + w as usize) % places.len()]
                    };
                    word.set_state(
                        bit,
                        CellState {
                            vth,
                            wear_cycles: 0.0,
                        },
                    );
                }
                assert_eq!(
                    word.sense_word(&params, 0, &stream),
                    reference::sense_word(&word, &params, 0, &stream),
                    "sigma {sigma} word {w}"
                );
            }
            assert!(drawn > 50, "only {drawn} deviates beyond 3");
        }
    }

    /// The chunked exact pulse equals the scalar loop at every chunk edge
    /// (empty, one cell, either side of one chunk, a full segment and one
    /// cell short of it), over mixed wear, through a partial erase, two
    /// erase-until-clean polls and a full erase on a hot die, from a
    /// programmed start and again from a half-programmed one.
    #[test]
    fn chunked_erase_pulse_matches_the_reference_at_chunk_edges() {
        for n in [0, 1, 63, 64, 65, 4095, 4096] {
            let (params, mut fast) = arena(n);
            fast.bulk_stress(&params, &mask(n), 30_000.0);
            let every_fifth: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
            fast.bulk_stress(&params, &every_fifth, 55_000.0);
            let mut slow = fast.clone();
            let mut grid_caches = (
                EraseDistCache::new(params.erase_dist_grid_kcycles),
                EraseDistCache::new(params.erase_dist_grid_kcycles),
            );
            for round in 0..2u64 {
                for (k, nominal_us, temp_factor) in [
                    (0, 20.5, 1.0),
                    (1, 25.0, 1.0),
                    (2, 25.0, 1.0),
                    (3, 25_000.0, 1.3),
                ] {
                    let pulse = PulseNoise::from_stream(
                        &params,
                        &CounterStream::new(CHIP, 0xE7A5, round * 4 + k),
                    );
                    let (c1, c2) = &mut grid_caches;
                    let a = fast.erase_pulse(&params, c1, 64, &pulse, nominal_us, temp_factor);
                    let b = reference::erase_pulse(
                        &mut slow,
                        &params,
                        c2,
                        64,
                        &pulse,
                        nominal_us,
                        temp_factor,
                    );
                    let what = format!("n {n} round {round} pulse {k}");
                    assert_eq!(a, b, "{what}: completion");
                    assert_lanes_bitwise(&fast, &slow, &what);
                }
                for w in 0..n / WORD_BITS {
                    let stream = CounterStream::new(CHIP, 0x9806, w as u64);
                    for a in [&mut fast, &mut slow] {
                        a.program_word(&params, w * WORD_BITS, 0x00FF, &stream);
                    }
                }
            }
        }
    }

    /// A derive and a clone's first write take their lanes from recycled
    /// buffers, and whatever those buffers held, every lane of the derive
    /// equals the spec and the copy equals its source. The copy takes
    /// exactly its two state lanes. The free list never keeps more than its
    /// budget.
    #[test]
    fn recycled_lanes_carry_no_values() {
        let (params, original, _) = worn(4096);
        for _ in 0..64 {
            drop(worn(4096));
            assert!(pool::kept_bytes() <= pool::MAX_BYTES);
        }
        assert!(pool::kept_bytes() > 0, "dropped lanes were kept");
        // Another chip, so no recycled lane holds the values it needs.
        let kept = pool::kept_bytes();
        let asked = (CHIP + 1, 64, 4096);
        let derived = CellArena::derive(&params, asked.0, asked.1, asked.2);
        assert!(pool::kept_bytes() < kept, "the derive drew recycled lanes");
        assert_eq!(
            (derived.chip_seed, derived.base_cell),
            (asked.0, asked.1),
            "recycled derive: seed and base"
        );
        assert_statics_match_spec(&params, asked, held(&derived), "recycled derive");
        let fresh = held(&derived).vth_erased0.iter().map(|v| v.to_bits());
        let zeros = || vec![0.0f64.to_bits(); 4096];
        assert_eq!(
            state_bits(&derived),
            [fresh.collect(), zeros()],
            "recycled derive: vth and wear"
        );
        drop(derived);
        let kept = pool::kept_bytes();
        let mut copy = original.clone();
        copy.set_state(0, original.state_at(0));
        assert_eq!(
            pool::kept_bytes(),
            kept - 2 * 4096 * size_of::<f64>(),
            "the copy drew two recycled 4 096-cell lanes"
        );
        assert_eq!(state_bits(&copy), state_bits(&original));
    }

    #[test]
    fn empty_arena_max_is_neg_infinity() {
        let (params, mut arena) = arena(0);
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let worst = arena.max_ln_t_cross_multi(&params, &mut cache, &[], &[(10_000.0, 0.0)])[0];
        assert!(worst.is_infinite() && worst < 0.0);
        assert_eq!(worst.exp().to_bits(), 0.0_f64.to_bits());
    }
}
