//! The cell array: per-segment cell state over the physics models.
//!
//! The array is purely about cell *state*; timing and command sequencing
//! live in [`FlashController`](crate::controller::FlashController). Segments
//! are materialized lazily — simulating a 256 KB device costs memory only
//! for the segments an experiment actually touches.
//!
//! Cell storage is a structure-of-arrays
//! [`CellArena`] per segment, and the batched
//! operations (reads, programs, erase pulses, bulk stress, the early-exit
//! erase estimator) run as the arena's chunked lane kernels. Per-operation
//! randomness comes from counter-based streams: each operation derives a
//! [`CounterStream`] from `(op seed, entity index, op counter)`, so a batched
//! sweep draws exactly the deviates a word-by-word loop would, bit for bit.

use std::collections::BTreeMap;

use flashmark_physics::arena::CellArena;
use flashmark_physics::cell::CellState;
use flashmark_physics::erase::erase_temp_factor;
use flashmark_physics::noise::PulseNoise;
use flashmark_physics::program::apply_partial_program;
use flashmark_physics::retention::apply_bake;
use flashmark_physics::rng::{mix2, CounterStream, SplitMix64};
use flashmark_physics::EraseDistCache;
use flashmark_physics::{Micros, PhysicsParams};

use crate::addr::{SegmentAddr, WordAddr};
use crate::error::NorError;
use crate::geometry::{FlashGeometry, WORD_BITS};

/// Cells of one segment, stored as a structure-of-arrays arena.
#[derive(Debug, Clone)]
pub struct SegmentCells {
    arena: CellArena,
}

impl SegmentCells {
    fn materialize(params: &PhysicsParams, chip_seed: u64, base_cell: u64, n: usize) -> Self {
        Self {
            arena: CellArena::derive(params, chip_seed, base_cell, n),
        }
    }

    /// The structure-of-arrays cell storage.
    #[must_use]
    pub fn arena(&self) -> &CellArena {
        &self.arena
    }

    /// The dynamic state of cell `i` (reconstructed from the lanes).
    #[must_use]
    pub fn state_at(&self, i: usize) -> CellState {
        self.arena.state_at(i)
    }
}

/// Wear statistics of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearStats {
    /// Minimum wear over the segment's cells (cycles).
    pub min_cycles: f64,
    /// Maximum wear over the segment's cells (cycles).
    pub max_cycles: f64,
    /// Mean wear over the segment's cells (cycles).
    pub mean_cycles: f64,
}

/// The flash cell array of one chip.
#[derive(Debug, Clone)]
pub struct FlashArray {
    params: PhysicsParams,
    geometry: FlashGeometry,
    chip_seed: u64,
    segments: BTreeMap<u32, SegmentCells>,
    /// Seed coordinate of every per-operation [`CounterStream`].
    op_seed: u64,
    /// Monotone operation counter — the third stream coordinate. Advances
    /// exactly as a word-by-word loop would, so batched sweeps stay
    /// bit-identical to looped ones.
    op_counter: u64,
    temp_c: f64,
    dist_cache: EraseDistCache,
}

impl FlashArray {
    /// Creates the array of chip `chip_seed`.
    #[must_use]
    pub fn new(params: PhysicsParams, geometry: FlashGeometry, chip_seed: u64) -> Self {
        let dist_cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        Self {
            params,
            geometry,
            chip_seed,
            segments: BTreeMap::new(),
            op_seed: mix2(chip_seed, 0x0505_0505),
            op_counter: 0,
            temp_c: 25.0,
            dist_cache,
        }
    }

    /// Sets the die temperature for subsequent operations.
    pub fn set_temperature_c(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
    }

    /// The physics parameter set.
    #[must_use]
    pub fn params(&self) -> &PhysicsParams {
        &self.params
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// The chip seed (identity) of this array.
    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    fn segment_cells(&mut self, seg: SegmentAddr) -> &mut SegmentCells {
        let n = self.geometry.cells_per_segment();
        let base_cell = seg.index() as u64 * n as u64;
        let params = &self.params;
        let chip_seed = self.chip_seed;
        self.segments
            .entry(seg.index())
            .or_insert_with(|| SegmentCells::materialize(params, chip_seed, base_cell, n))
    }

    /// Read-only view of a segment's cells (materializing it if needed).
    pub fn segment(&mut self, seg: SegmentAddr) -> &SegmentCells {
        self.segment_cells(seg)
    }

    /// Splits the borrow of `self` into the disjoint parts an operation
    /// needs — parameters, the (lazily materialized) segment cells, the op
    /// counter, and the erase-distribution cache — so hot paths never clone
    /// `PhysicsParams` (whose calibration tables are `Vec`-backed and would
    /// cost two heap allocations per operation).
    fn op_context(
        &mut self,
        seg: SegmentAddr,
    ) -> (
        &PhysicsParams,
        &mut SegmentCells,
        &mut u64,
        &mut EraseDistCache,
    ) {
        let n = self.geometry.cells_per_segment();
        let base_cell = seg.index() as u64 * n as u64;
        let Self {
            params,
            segments,
            chip_seed,
            op_counter,
            dist_cache,
            ..
        } = self;
        let cells = segments
            .entry(seg.index())
            .or_insert_with(|| SegmentCells::materialize(params, *chip_seed, base_cell, n));
        (params, cells, op_counter, dist_cache)
    }

    /// Expands a per-word pattern into the per-cell stress mask the arena
    /// kernels take: bit 0 of the pattern word means "stressed".
    fn stressed_mask(pattern: &[u16]) -> Vec<bool> {
        let mut mask = Vec::with_capacity(pattern.len() * WORD_BITS);
        for &value in pattern {
            for bit in 0..WORD_BITS {
                mask.push(value & (1 << bit) == 0);
            }
        }
        mask
    }

    /// Senses one word with read noise (one fresh noise draw per bit).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::WordOutOfRange`] for an address past the device.
    pub fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.geometry.check_word(word)?;
        let seg = self.geometry.segment_of(word);
        let offset = self.geometry.word_offset_in_segment(word) * WORD_BITS;
        let op_seed = self.op_seed;
        let (params, cells, op_counter, _) = self.op_context(seg);
        let stream = CounterStream::new(op_seed, u64::from(word.index()), *op_counter);
        *op_counter += 1;
        Ok(cells.arena.sense_word(params, offset, &stream))
    }

    /// Senses every word of a segment in one sweep (the bulk-read kernel).
    ///
    /// Stream derivation and results are bit-identical to calling
    /// [`FlashArray::read_word`] on each word of the segment in order; the
    /// batched form pays the parameter/segment lookup once instead of per
    /// word.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address.
    pub fn read_segment_words(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        self.geometry.check_segment(seg)?;
        let words = self.geometry.words_per_segment();
        let base = self.geometry.first_word(seg);
        let op_seed = self.op_seed;
        let (params, cells, op_counter, _) = self.op_context(seg);
        let mut out = Vec::with_capacity(words);
        for w in 0..words {
            let word_index = u64::from(base.offset(w as u32).index());
            let stream = CounterStream::new(op_seed, word_index, *op_counter);
            *op_counter += 1;
            out.push(cells.arena.sense_word(params, w * WORD_BITS, &stream));
        }
        Ok(out)
    }

    /// Noise-free logical value of every cell of a segment (ground truth for
    /// experiments; not reachable through the digital interface).
    pub fn ideal_bits(&mut self, seg: SegmentAddr) -> Vec<bool> {
        let (params, cells, _, _) = self.op_context(seg);
        let vref = params.vref.get();
        cells.arena.vth().iter().map(|&vth| vth < vref).collect()
    }

    /// Programs the 0-bits of `value` into a word (flash semantics: a
    /// program can only flip bits from 1 to 0, so the result is the AND of
    /// old and new contents, as on real parts).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::WordOutOfRange`].
    pub fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.geometry.check_word(word)?;
        let seg = self.geometry.segment_of(word);
        let offset = self.geometry.word_offset_in_segment(word) * WORD_BITS;
        let op_seed = self.op_seed;
        let (params, cells, op_counter, _) = self.op_context(seg);
        let stream =
            CounterStream::new(op_seed, 0x9806_0000 ^ u64::from(word.index()), *op_counter);
        *op_counter += 1;
        cells.arena.program_word(params, offset, value, &stream);
        Ok(())
    }

    /// Programs every word of a segment in one sweep (the bulk-program
    /// kernel behind block programming).
    ///
    /// Stream derivation and cell updates are bit-identical to calling
    /// [`FlashArray::program_word`] on each word in order.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] or
    /// [`NorError::BlockLengthMismatch`].
    pub fn program_segment_words(
        &mut self,
        seg: SegmentAddr,
        values: &[u16],
    ) -> Result<(), NorError> {
        self.geometry.check_segment(seg)?;
        if values.len() != self.geometry.words_per_segment() {
            return Err(NorError::BlockLengthMismatch {
                got: values.len(),
                expected: self.geometry.words_per_segment(),
            });
        }
        let base = self.geometry.first_word(seg);
        let op_seed = self.op_seed;
        let (params, cells, op_counter, _) = self.op_context(seg);
        for (w, &value) in values.iter().enumerate() {
            let word_index = base.offset(w as u32).index();
            let stream =
                CounterStream::new(op_seed, 0x9806_0000 ^ u64::from(word_index), *op_counter);
            *op_counter += 1;
            cells
                .arena
                .program_word(params, w * WORD_BITS, value, &stream);
        }
        Ok(())
    }

    /// Applies a *partial program* pulse of duration `t_pp` to every cell of
    /// a segment (the sweeping-partial-program primitive of the FFD-style
    /// recycled-flash detectors, paper refs \[6\]/\[7\]). Worn cells program
    /// faster, so more of them cross the read reference in the same time.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address.
    pub fn program_pulse(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError> {
        self.geometry.check_segment(seg)?;
        let op_seed = self.op_seed;
        let (params, cells, op_counter, _) = self.op_context(seg);
        let stream = CounterStream::new(op_seed, 0x9A27 ^ u64::from(seg.index()), *op_counter);
        *op_counter += 1;
        // Partial program is inherently serial (each cell draws its own op
        // noise from the shared sweep stream), so it stays a scalar loop
        // seeded from the counter stream's key.
        let mut rng = SplitMix64::new(stream.key());
        for i in 0..cells.arena.len() {
            let statics = cells.arena.statics_at(i);
            let mut state = cells.arena.state_at(i);
            apply_partial_program(params, &statics, &mut state, t_pp.get(), &mut rng);
            cells.arena.set_state(i, state);
        }
        Ok(())
    }

    /// Applies an erase pulse of nominal duration `t_pe` to a whole segment,
    /// with per-pulse common-mode and per-cell jitter (the arena's erase
    /// lane kernel).
    ///
    /// Returns `true` if every cell completed its erase within the pulse.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address.
    pub fn erase_pulse(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<bool, NorError> {
        self.geometry.check_segment(seg)?;
        let temp = erase_temp_factor(&self.params, self.temp_c);
        let base_cell = seg.index() as u64 * self.geometry.cells_per_segment() as u64;
        let op_seed = self.op_seed;
        let (params, cells, op_counter, dist_cache) = self.op_context(seg);
        let stream = CounterStream::new(op_seed, 0xE7A5 ^ u64::from(seg.index()), *op_counter);
        *op_counter += 1;
        let pulse = PulseNoise::from_stream(params, &stream);
        Ok(cells
            .arena
            .erase_pulse(params, dist_cache, base_cell, &pulse, t_pe.get(), temp))
    }

    /// Fully erases a segment (a nominal-duration erase always completes:
    /// even 100 K-cycle cells finish in under a millisecond, far below
    /// `TERASE`).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] for a bad address.
    pub fn erase_complete(&mut self, seg: SegmentAddr, nominal: Micros) -> Result<(), NorError> {
        let done = self.erase_pulse(seg, nominal)?;
        debug_assert!(
            done,
            "nominal erase did not complete; calibration out of range?"
        );
        Ok(())
    }

    /// Worst-case read-reference crossing time (µs) over a segment's cells
    /// at *hypothetical* per-cell wear, for a whole schedule of
    /// `(stressed_wear, spared_wear)` pairs in one call: cells whose pattern
    /// bit is 0 are evaluated at `stressed_wear`, the rest at
    /// `spared_wear`. This is the early-exit-erase estimator used by the
    /// accelerated imprint schedule. The arena prunes the segment to the
    /// Pareto frontier of cells that can attain the maximum, then
    /// evaluates only those per pair, bit-identically to the one-pair
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] or
    /// [`NorError::BlockLengthMismatch`].
    pub fn worst_t_cross_multi(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        wear_pairs: &[(f64, f64)],
    ) -> Result<Vec<f64>, NorError> {
        self.check_pattern(seg, pattern)?;
        let (params, cells, _, dist_cache) = self.op_context(seg);
        let mask = Self::stressed_mask(pattern);
        Ok(cells
            .arena
            .max_ln_t_cross_multi(params, dist_cache, &mask, wear_pairs)
            .into_iter()
            .map(f64::exp)
            .collect())
    }

    fn check_pattern(&self, seg: SegmentAddr, pattern: &[u16]) -> Result<(), NorError> {
        self.geometry.check_segment(seg)?;
        if pattern.len() != self.geometry.words_per_segment() {
            return Err(NorError::BlockLengthMismatch {
                got: pattern.len(),
                expected: self.geometry.words_per_segment(),
            });
        }
        Ok(())
    }

    /// Applies `cycles` P/E cycles of `pattern` to a segment in closed form
    /// (the fast path behind [`BulkStress`](crate::interface::BulkStress)).
    ///
    /// `pattern` holds one word per segment word; 0-bits are programmed every
    /// cycle, 1-bits only see erase pulses. The segment ends holding
    /// `pattern` (last operation of an imprint cycle is the program).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::SegmentOutOfRange`] or
    /// [`NorError::BlockLengthMismatch`].
    pub fn bulk_stress(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
    ) -> Result<(), NorError> {
        self.check_pattern(seg, pattern)?;
        let (params, cells, _, _) = self.op_context(seg);
        let mask = Self::stressed_mask(pattern);
        cells.arena.bulk_stress(params, &mask, cycles as f64);
        Ok(())
    }

    /// Stores the chip at `temp_c` for `hours` (retention bake).
    ///
    /// Only materialized segments are affected — untouched segments hold no
    /// charge anyway.
    pub fn bake(&mut self, hours: f64, temp_c: f64) {
        let Self {
            params, segments, ..
        } = self;
        for cells in segments.values_mut() {
            for i in 0..cells.arena.len() {
                let statics = cells.arena.statics_at(i);
                let mut state = cells.arena.state_at(i);
                apply_bake(params, &statics, &mut state, hours, temp_c);
                cells.arena.set_state(i, state);
            }
        }
    }

    /// Wear statistics of a segment.
    pub fn wear_stats(&mut self, seg: SegmentAddr) -> WearStats {
        let cells = self.segment_cells(seg);
        let wear = cells.arena.wear_cycles();
        let n = wear.len() as f64;
        let mut stats = WearStats {
            min_cycles: f64::INFINITY,
            ..WearStats::default()
        };
        for &w in wear {
            stats.min_cycles = stats.min_cycles.min(w);
            stats.max_cycles = stats.max_cycles.max(w);
            stats.mean_cycles += w / n;
        }
        if stats.min_cycles.is_infinite() {
            stats.min_cycles = 0.0;
        }
        stats
    }

    /// Segment indices that have been touched (materialized) so far.
    #[must_use]
    pub fn touched_segments(&self) -> Vec<SegmentAddr> {
        let mut v: Vec<SegmentAddr> = self.segments.keys().map(|&i| SegmentAddr::new(i)).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> FlashArray {
        FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            0xFACE,
        )
    }

    #[test]
    fn fresh_array_reads_all_ones() {
        let mut a = array();
        assert_eq!(a.read_word(WordAddr::new(0)).unwrap(), 0xFFFF);
        assert_eq!(a.read_word(WordAddr::new(300)).unwrap(), 0xFFFF);
    }

    #[test]
    fn program_then_read_back() {
        let mut a = array();
        let w = WordAddr::new(10);
        a.program_word(w, 0x5443).unwrap();
        assert_eq!(a.read_word(w).unwrap(), 0x5443);
    }

    #[test]
    fn program_is_logical_and() {
        let mut a = array();
        let w = WordAddr::new(11);
        a.program_word(w, 0xFF0F).unwrap();
        a.program_word(w, 0x0FFF).unwrap();
        assert_eq!(a.read_word(w).unwrap(), 0x0F0F);
    }

    #[test]
    fn erase_restores_ones() {
        let mut a = array();
        let seg = SegmentAddr::new(1);
        let w = WordAddr::new(256);
        a.program_word(w, 0x0000).unwrap();
        a.erase_complete(seg, Micros::from_millis(25.0)).unwrap();
        assert_eq!(a.read_word(w).unwrap(), 0xFFFF);
    }

    #[test]
    fn short_pulse_does_not_erase_fresh_segment() {
        let mut a = array();
        let seg = SegmentAddr::new(2);
        for w in a.geometry().segment_words(seg) {
            a.program_word(w, 0x0000).unwrap();
        }
        let done = a.erase_pulse(seg, Micros::new(5.0)).unwrap();
        assert!(!done);
        let zeros = a.ideal_bits(seg).iter().filter(|&&b| !b).count();
        assert_eq!(zeros, 4096, "5 µs must not flip any fresh cell");
    }

    #[test]
    fn medium_pulse_partially_erases() {
        let mut a = array();
        let seg = SegmentAddr::new(3);
        for w in a.geometry().segment_words(seg) {
            a.program_word(w, 0x0000).unwrap();
        }
        // ~median crossing time for fresh cells: a mid-range fraction flips.
        a.erase_pulse(seg, Micros::new(20.5)).unwrap();
        let ones = a.ideal_bits(seg).iter().filter(|&&b| b).count();
        assert!((600..3500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn bulk_stress_accumulates_wear_pattern() {
        let mut a = array();
        let seg = SegmentAddr::new(4);
        let mut pattern = vec![0xFFFFu16; 256];
        pattern[0] = 0x0000; // first word stressed
        a.bulk_stress(seg, &pattern, 20_000).unwrap();
        let wear = a.segment(seg).arena().wear_cycles();
        let stressed = wear[5];
        let spared = wear[16 + 5];
        assert!(stressed > 19_000.0, "stressed wear {stressed}");
        assert!(spared < 1_000.0, "spared wear {spared}");
    }

    #[test]
    fn bulk_stress_validates_pattern_length() {
        let mut a = array();
        let err = a
            .bulk_stress(SegmentAddr::new(0), &[0u16; 3], 10)
            .unwrap_err();
        assert!(matches!(
            err,
            NorError::BlockLengthMismatch {
                got: 3,
                expected: 256
            }
        ));
    }

    #[test]
    fn out_of_range_addresses_error() {
        let mut a = array();
        assert!(a.read_word(WordAddr::new(8 * 256)).is_err());
        assert!(a
            .erase_pulse(SegmentAddr::new(8), Micros::new(1.0))
            .is_err());
    }

    #[test]
    fn same_seed_same_chip() {
        let mut a = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            7,
        );
        let mut b = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            7,
        );
        let seg = SegmentAddr::new(0);
        for arr in [&mut a, &mut b] {
            for w in arr.geometry().segment_words(seg) {
                arr.program_word(w, 0x0000).unwrap();
            }
            arr.erase_pulse(seg, Micros::new(20.0)).unwrap();
        }
        assert_eq!(a.ideal_bits(seg), b.ideal_bits(seg));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            7,
        );
        let mut b = FlashArray::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            8,
        );
        let seg = SegmentAddr::new(0);
        for arr in [&mut a, &mut b] {
            for w in arr.geometry().segment_words(seg) {
                arr.program_word(w, 0x0000).unwrap();
            }
            arr.erase_pulse(seg, Micros::new(20.0)).unwrap();
        }
        assert_ne!(a.ideal_bits(seg), b.ideal_bits(seg));
    }

    #[test]
    fn touched_segments_tracks_materialization() {
        let mut a = array();
        assert!(a.touched_segments().is_empty());
        let _ = a.read_word(WordAddr::new(256));
        let _ = a.read_word(WordAddr::new(0));
        assert_eq!(
            a.touched_segments(),
            vec![SegmentAddr::new(0), SegmentAddr::new(1)]
        );
    }

    #[test]
    fn hot_die_erases_more_cells_per_pulse() {
        let mut cold = array();
        let mut hot = array();
        hot.set_temperature_c(85.0);
        cold.set_temperature_c(-20.0);
        let seg = SegmentAddr::new(0);
        for a in [&mut cold, &mut hot] {
            for w in a.geometry().segment_words(seg) {
                a.program_word(w, 0x0000).unwrap();
            }
            a.erase_pulse(seg, Micros::new(19.0)).unwrap();
        }
        let ones_cold = cold.ideal_bits(seg).iter().filter(|&&b| b).count();
        let ones_hot = hot.ideal_bits(seg).iter().filter(|&&b| b).count();
        assert!(
            ones_hot > ones_cold + 400,
            "hot {ones_hot} vs cold {ones_cold}: temperature must accelerate erase"
        );
    }

    #[test]
    fn batched_read_matches_word_loop_bitwise() {
        let mut a = array();
        let mut b = array();
        let seg = SegmentAddr::new(3);
        for arr in [&mut a, &mut b] {
            for w in arr.geometry().segment_words(seg) {
                arr.program_word(w, (w.index() as u16).rotate_left(3))
                    .unwrap();
            }
            // A partial erase puts many cells near the reference so read
            // noise actually matters to the compared values.
            arr.erase_pulse(seg, Micros::new(20.5)).unwrap();
        }
        let batched = a.read_segment_words(seg).unwrap();
        let looped: Vec<u16> = b
            .geometry()
            .segment_words(seg)
            .map(|w| b.read_word(w).unwrap())
            .collect();
        assert_eq!(batched, looped);
        // And the op-counter streams are in the same state afterwards.
        assert_eq!(a.read_word(WordAddr::new(0)), b.read_word(WordAddr::new(0)));
    }

    #[test]
    fn batched_program_matches_word_loop_bitwise() {
        let mut a = array();
        let mut b = array();
        let seg = SegmentAddr::new(2);
        let values: Vec<u16> = (0..256).map(|i| !(i as u16).wrapping_mul(0x1357)).collect();
        a.program_segment_words(seg, &values).unwrap();
        for (w, &v) in b.geometry().segment_words(seg).zip(&values) {
            b.program_word(w, v).unwrap();
        }
        assert_eq!(a.ideal_bits(seg), b.ideal_bits(seg));
        let (sa_vth, sa_wear) = {
            let cells = a.segment(seg).arena();
            (cells.vth().to_vec(), cells.wear_cycles().to_vec())
        };
        let cells_b = b.segment(seg).arena();
        for i in 0..sa_vth.len() {
            assert_eq!(sa_vth[i].to_bits(), cells_b.vth()[i].to_bits());
            assert_eq!(sa_wear[i].to_bits(), cells_b.wear_cycles()[i].to_bits());
        }
    }

    #[test]
    fn batched_program_validates_length() {
        let mut a = array();
        let seg = SegmentAddr::new(1);
        assert!(matches!(
            a.program_segment_words(seg, &[0u16; 3]),
            Err(NorError::BlockLengthMismatch {
                got: 3,
                expected: 256
            })
        ));
    }

    #[test]
    fn worst_t_cross_tracks_stress_pattern() {
        let mut a = array();
        let seg = SegmentAddr::new(0);
        let all_stressed = vec![0x0000u16; 256];
        let worst = a
            .worst_t_cross_multi(seg, &all_stressed, &[(0.0, 0.0), (60_000.0, 0.0)])
            .unwrap();
        let (fresh, worn) = (worst[0], worst[1]);
        assert!(fresh > 0.0);
        assert!(worn > fresh * 2.0, "worn {worn} vs fresh {fresh}");
        assert!(matches!(
            a.worst_t_cross_multi(seg, &[0u16; 2], &[(0.0, 0.0)]),
            Err(NorError::BlockLengthMismatch { .. })
        ));
    }

    #[test]
    fn bake_flips_no_wear() {
        let mut a = array();
        let seg = SegmentAddr::new(0);
        a.bulk_stress(seg, &vec![0x0000u16; 256], 10_000).unwrap();
        let before = a.wear_stats(seg);
        a.bake(87_600.0, 85.0);
        let after = a.wear_stats(seg);
        assert_eq!(before, after);
    }
}
