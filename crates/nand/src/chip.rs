//! The NAND chip: page register semantics, NOP limits, abortable block
//! erase.

use std::collections::BTreeMap;

use flashmark_nor::timing::SimClock;
use flashmark_physics::cell::{sense, CellState, CellStatics};
use flashmark_physics::erase::{apply_erase_cached, EraseDistCache};
use flashmark_physics::noise::PulseNoise;
use flashmark_physics::program::{apply_partial_program, apply_program};
use flashmark_physics::rng::{mix2, SplitMix64};
use flashmark_physics::variation::Normal;
use flashmark_physics::wear::bulk_pe_stress;
use flashmark_physics::{Micros, PhysicsParams, Seconds};

use crate::geometry::{BlockAddr, NandGeometry, PageAddr};
use crate::timing::NandTimings;

/// Maximum partial-page programs between erases (classic SLC NOP limit).
pub const NOP_LIMIT: u8 = 4;

/// Errors from the NAND chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// Block index past the device.
    BlockOutOfRange {
        /// Offending block.
        block: u32,
        /// Device block count.
        total: u32,
    },
    /// Page index past the block.
    PageOutOfRange {
        /// Offending page.
        page: u32,
        /// Pages per block.
        total: u32,
    },
    /// Page buffer length does not match the page size.
    DataLength {
        /// Bytes supplied.
        got: usize,
        /// Bytes per page.
        expected: usize,
    },
    /// More partial-page programs than the NOP limit allows.
    NopLimitExceeded {
        /// The limit.
        limit: u8,
    },
    /// A pulse duration was negative or not finite; the operation was
    /// refused before any cell, wear or clock state changed.
    InvalidPulse,
}

impl core::fmt::Display for NandError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BlockOutOfRange { block, total } => {
                write!(f, "block {block} out of range (device has {total})")
            }
            Self::PageOutOfRange { page, total } => {
                write!(f, "page {page} out of range (block has {total})")
            }
            Self::DataLength { got, expected } => {
                write!(f, "page buffer has {got} bytes, page holds {expected}")
            }
            Self::NopLimitExceeded { limit } => {
                write!(
                    f,
                    "page programmed more than {limit} times since the last erase"
                )
            }
            Self::InvalidPulse => write!(f, "pulse duration must be finite and not negative"),
        }
    }
}

impl std::error::Error for NandError {}

/// Refuses a pulse that would undo wear: a negative or non-finite duration
/// (a zero-length pulse is legal and changes nothing).
fn check_pulse(t: Micros) -> Result<(), NandError> {
    if t.is_finite() && t.get() >= 0.0 {
        Ok(())
    } else {
        Err(NandError::InvalidPulse)
    }
}

#[derive(Debug, Clone)]
struct BlockCells {
    statics: Vec<CellStatics>,
    states: Vec<CellState>,
    nop_counts: Vec<u8>,
}

/// A NAND-flavoured physics preset: same wear physics as the NOR model but
/// with the slightly wider cell-to-cell variation typical of NAND arrays.
#[must_use]
pub fn nand_physics() -> PhysicsParams {
    let mut p = PhysicsParams::msp430_like();
    p.vth_erased = Normal::new(1.8, 0.08);
    p.vth_programmed = Normal::new(5.6, 0.11);
    p.read_noise_sigma = 0.05;
    p
}

/// One simulated SLC NAND chip.
#[derive(Debug, Clone)]
pub struct NandChip {
    params: PhysicsParams,
    geometry: NandGeometry,
    timings: NandTimings,
    chip_seed: u64,
    blocks: BTreeMap<u32, BlockCells>,
    op_rng: SplitMix64,
    clock: SimClock,
    /// Wear-keyed erase-time distribution table (a pure cache).
    dist_cache: EraseDistCache,
}

impl NandChip {
    /// Creates a chip with NAND-preset physics.
    #[must_use]
    pub fn new(geometry: NandGeometry, chip_seed: u64) -> Self {
        Self::with_params(nand_physics(), geometry, NandTimings::slc(), chip_seed)
    }

    /// Creates a chip with explicit physics/timing.
    ///
    /// # Panics
    ///
    /// Panics unless every duration of `timings` is finite and
    /// non-negative.
    #[must_use]
    pub fn with_params(
        params: PhysicsParams,
        geometry: NandGeometry,
        timings: NandTimings,
        chip_seed: u64,
    ) -> Self {
        timings.assert_valid();
        let dist_cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        Self {
            params,
            geometry,
            timings,
            chip_seed,
            blocks: BTreeMap::new(),
            op_rng: SplitMix64::new(mix2(chip_seed, 0x0DA1)),
            clock: SimClock::new(),
            dist_cache,
        }
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> NandGeometry {
        self.geometry
    }

    /// The timing set.
    #[must_use]
    pub fn timings(&self) -> &NandTimings {
        &self.timings
    }

    /// Simulated time elapsed on this chip.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        self.clock.now()
    }

    fn check_block(&self, block: BlockAddr) -> Result<(), NandError> {
        if block.index() < self.geometry.blocks() {
            Ok(())
        } else {
            Err(NandError::BlockOutOfRange {
                block: block.index(),
                total: self.geometry.blocks(),
            })
        }
    }

    fn check_page(&self, page: PageAddr) -> Result<(), NandError> {
        self.check_block(page.block)?;
        if page.page < self.geometry.pages_per_block() {
            Ok(())
        } else {
            Err(NandError::PageOutOfRange {
                page: page.page,
                total: self.geometry.pages_per_block(),
            })
        }
    }

    fn block_cells(&mut self, block: BlockAddr) -> &mut BlockCells {
        let n = self.geometry.cells_per_block();
        let base = block.index() as u64 * n as u64;
        let params = &self.params;
        let seed = self.chip_seed;
        let pages = self.geometry.pages_per_block() as usize;
        self.blocks.entry(block.index()).or_insert_with(|| {
            let statics: Vec<CellStatics> = (0..n as u64)
                .map(|i| CellStatics::derive(params, seed, base + i))
                .collect();
            let states = statics.iter().map(CellState::fresh).collect();
            BlockCells {
                statics,
                states,
                nop_counts: vec![0; pages],
            }
        })
    }

    /// Reads one page (one array sense + serial out).
    ///
    /// # Errors
    ///
    /// Address errors.
    pub fn read_page(&mut self, page: PageAddr) -> Result<Vec<u8>, NandError> {
        self.check_page(page)?;
        let params = self.params.clone();
        let cells_per_page = self.geometry.cells_per_page();
        let bytes = self.geometry.bytes_per_page() as usize;
        let mut rng = self
            .op_rng
            .fork(mix2(page.block.index() as u64, page.page as u64));
        let cells = self.block_cells(page.block);
        let base = page.page as usize * cells_per_page;
        let mut out = vec![0u8; bytes];
        for (i, byte) in out.iter_mut().enumerate() {
            for bit in 0..8 {
                if sense(&params, &cells.states[base + i * 8 + bit], &mut rng) {
                    *byte |= 1 << bit;
                }
            }
        }
        self.clock.advance(self.timings.page_read_total(bytes));
        Ok(out)
    }

    /// Programs a page (0-bits only, AND semantics). Each page may be
    /// programmed at most [`NOP_LIMIT`] times between erases.
    ///
    /// # Errors
    ///
    /// Address, length, or NOP-limit errors.
    pub fn program_page(&mut self, page: PageAddr, data: &[u8]) -> Result<(), NandError> {
        self.check_page(page)?;
        let bytes = self.geometry.bytes_per_page() as usize;
        if data.len() != bytes {
            return Err(NandError::DataLength {
                got: data.len(),
                expected: bytes,
            });
        }
        let params = self.params.clone();
        let cells_per_page = self.geometry.cells_per_page();
        let mut rng = self.op_rng.fork(mix2(
            0x9806,
            mix2(page.block.index() as u64, page.page as u64),
        ));
        let total = self.timings.page_program_total(bytes);
        let cells = self.block_cells(page.block);
        let nop = &mut cells.nop_counts[page.page as usize];
        if *nop >= NOP_LIMIT {
            return Err(NandError::NopLimitExceeded { limit: NOP_LIMIT });
        }
        *nop += 1;
        let base = page.page as usize * cells_per_page;
        for (i, &byte) in data.iter().enumerate() {
            for bit in 0..8 {
                if byte & (1 << bit) == 0 {
                    let idx = base + i * 8 + bit;
                    apply_program(
                        &params,
                        &cells.statics[idx],
                        &mut cells.states[idx],
                        &mut rng,
                    );
                }
            }
        }
        self.clock.advance(total);
        Ok(())
    }

    /// Applies an erase pulse of `t` to a whole block; returns `true` once
    /// every cell has fully erased. Resets the block's NOP counters.
    ///
    /// # Errors
    ///
    /// Address errors, or [`NandError::InvalidPulse`] for a negative or
    /// non-finite `t`.
    pub fn erase_pulse(&mut self, block: BlockAddr, t: Micros) -> Result<bool, NandError> {
        self.check_block(block)?;
        check_pulse(t)?;
        let params = self.params.clone();
        let pulse = PulseNoise::draw(&params, &mut self.op_rng);
        let base = block.index() as u64 * self.geometry.cells_per_block() as u64;
        let mut cache = std::mem::take(&mut self.dist_cache);
        let cells = self.block_cells(block);
        let mut done = true;
        for (i, (st, state)) in cells
            .statics
            .iter()
            .zip(cells.states.iter_mut())
            .enumerate()
        {
            let eff = pulse.effective_us(&params, base + i as u64, t.get());
            done &= apply_erase_cached(&params, st, state, eff, &mut cache);
        }
        cells.nop_counts.fill(0);
        self.dist_cache = cache;
        Ok(done)
    }

    /// Full block erase (`tBERS` always completes the physics).
    ///
    /// # Errors
    ///
    /// Address errors.
    pub fn erase_block(&mut self, block: BlockAddr) -> Result<(), NandError> {
        let done = self.erase_pulse(block, self.timings.block_erase)?;
        debug_assert!(done, "nominal block erase did not complete");
        self.clock.advance(self.timings.block_erase);
        Ok(())
    }

    /// Starts a block erase and aborts (reset command) after `t`.
    ///
    /// # Errors
    ///
    /// Address errors, or [`NandError::InvalidPulse`] for a negative or
    /// non-finite `t`.
    pub fn partial_erase_block(&mut self, block: BlockAddr, t: Micros) -> Result<(), NandError> {
        self.erase_pulse(block, t)?;
        self.clock.advance(t + self.timings.abort_latency);
        Ok(())
    }

    /// Erases with early exit: short pulses, polling after each, until the
    /// block reads clean. Returns erase time spent.
    ///
    /// # Errors
    ///
    /// Address errors.
    pub fn erase_until_clean(&mut self, block: BlockAddr) -> Result<Micros, NandError> {
        let step = Micros::new(25.0);
        let mut spent = Micros::new(0.0);
        for _ in 0..4096 {
            let done = self.erase_pulse(block, step)?;
            spent += step;
            self.clock.advance(step + self.timings.abort_latency);
            if done {
                break;
            }
        }
        Ok(spent)
    }

    /// Applies a *partial program* pulse of `t_pp` to every cell of a block
    /// and aborts (reset command): each cell's threshold rises in
    /// proportion to its intrinsic program speed, so after a pulse around
    /// half the nominal program time, which cells read 0 is a fingerprint
    /// of the die's process variation — the intrinsic-PUF enrollment
    /// primitive. A test-mode operation: it bypasses the page registers
    /// and does not count toward the NOP limit.
    ///
    /// # Errors
    ///
    /// Address errors, or [`NandError::InvalidPulse`] for a negative or
    /// non-finite `t_pp`.
    pub fn partial_program_block(
        &mut self,
        block: BlockAddr,
        t_pp: Micros,
    ) -> Result<(), NandError> {
        self.check_block(block)?;
        check_pulse(t_pp)?;
        let params = self.params.clone();
        let mut rng = self.op_rng.fork(mix2(0x9A27, block.index() as u64));
        let cells = self.block_cells(block);
        for (st, state) in cells.statics.iter().zip(cells.states.iter_mut()) {
            apply_partial_program(&params, st, state, t_pp.get(), &mut rng);
        }
        self.clock.advance(t_pp + self.timings.abort_latency);
        Ok(())
    }

    /// Noise-free logical value of every cell of a block (ground truth).
    pub fn ideal_bits(&mut self, block: BlockAddr) -> Vec<bool> {
        let params = self.params.clone();
        let cells = self.block_cells(block);
        cells.states.iter().map(|s| s.ideal_bit(&params)).collect()
    }

    /// Mean wear over a block's cells (ground truth), in cycles.
    pub fn mean_wear(&mut self, block: BlockAddr) -> f64 {
        let cells = self.block_cells(block);
        let n = cells.states.len() as f64;
        cells.states.iter().map(|s| s.wear_cycles / n).sum()
    }

    /// Closed-form stress: `cycles` erase+program cycles of `pattern` (one
    /// byte-per-cell-byte over the whole block). The simulated clock
    /// advances by `cycles × (block erase + per-page programs)`.
    ///
    /// # Errors
    ///
    /// Address/length errors.
    pub fn bulk_stress(
        &mut self,
        block: BlockAddr,
        pattern: &[u8],
        cycles: u64,
    ) -> Result<(), NandError> {
        self.check_block(block)?;
        let expected = self.geometry.cells_per_block() / 8;
        if pattern.len() != expected {
            return Err(NandError::DataLength {
                got: pattern.len(),
                expected,
            });
        }
        let params = self.params.clone();
        let page_bytes = self.geometry.bytes_per_page() as usize;
        let pages = self.geometry.pages_per_block() as f64;
        let cells = self.block_cells(block);
        for (i, &byte) in pattern.iter().enumerate() {
            for bit in 0..8 {
                let idx = i * 8 + bit;
                let programmed = byte & (1 << bit) == 0;
                bulk_pe_stress(
                    &params,
                    &cells.statics[idx],
                    &mut cells.states[idx],
                    cycles as f64,
                    programmed,
                    programmed,
                );
            }
        }
        let per_cycle =
            self.timings.block_erase + self.timings.page_program_total(page_bytes) * pages;
        self.clock.advance(per_cycle * cycles as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> NandChip {
        NandChip::new(NandGeometry::tiny(), 0xDA7A)
    }

    fn page0() -> PageAddr {
        PageAddr::new(BlockAddr::new(0), 0)
    }

    #[test]
    fn negative_or_non_finite_timings_are_refused_at_construction() {
        type Setter = fn(&mut NandTimings, Micros);
        let setters: [(&str, Setter); 5] = [
            ("page_read", |t, d| t.page_read = d),
            ("page_program", |t, d| t.page_program = d),
            ("block_erase", |t, d| t.block_erase = d),
            ("abort_latency", |t, d| t.abort_latency = d),
            ("byte_io", |t, d| t.byte_io = d),
        ];
        for (name, set) in setters {
            for d in [-1_000.0, f64::NAN] {
                let mut timings = NandTimings::slc();
                set(&mut timings, Micros::new(d));
                let build =
                    || NandChip::with_params(nand_physics(), NandGeometry::tiny(), timings, 0xDA7A);
                let refused = std::panic::catch_unwind(build).is_err();
                assert!(refused, "`{name}` = {d} us was accepted");
            }
        }
    }

    #[test]
    fn fresh_chip_reads_all_ones() {
        let mut c = chip();
        assert!(c.read_page(page0()).unwrap().iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn program_read_roundtrip() {
        let mut c = chip();
        let mut data = vec![0xFFu8; 512];
        data[0] = 0x54;
        data[1] = 0x43;
        c.program_page(page0(), &data).unwrap();
        assert_eq!(c.read_page(page0()).unwrap(), data);
    }

    #[test]
    fn nop_limit_enforced() {
        let mut c = chip();
        let data = vec![0xFFu8; 512];
        for _ in 0..NOP_LIMIT {
            c.program_page(page0(), &data).unwrap();
        }
        assert_eq!(
            c.program_page(page0(), &data).unwrap_err(),
            NandError::NopLimitExceeded { limit: NOP_LIMIT }
        );
        // Erase resets the counter.
        c.erase_block(BlockAddr::new(0)).unwrap();
        assert!(c.program_page(page0(), &data).is_ok());
    }

    #[test]
    fn erase_restores_ones() {
        let mut c = chip();
        c.program_page(page0(), &vec![0u8; 512]).unwrap();
        c.erase_block(BlockAddr::new(0)).unwrap();
        assert!(c.read_page(page0()).unwrap().iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn partial_erase_leaves_mixed_state() {
        let mut c = chip();
        for p in 0..4 {
            c.program_page(PageAddr::new(BlockAddr::new(0), p), &vec![0u8; 512])
                .unwrap();
        }
        c.partial_erase_block(BlockAddr::new(0), Micros::new(20.5))
            .unwrap();
        let ones = c
            .ideal_bits(BlockAddr::new(0))
            .iter()
            .filter(|&&b| b)
            .count();
        assert!((1000..16_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn invalid_pulse_durations_are_refused_before_anything_moves() {
        type Op = fn(&mut NandChip, Micros) -> Result<(), NandError>;
        const BLOCK: BlockAddr = BlockAddr::new(1);
        let ops: [Op; 3] = [
            |c, t| c.erase_pulse(BLOCK, t).map(drop),
            |c, t| c.partial_erase_block(BLOCK, t),
            |c, t| c.partial_program_block(BLOCK, t),
        ];
        let mut worn = chip();
        worn.bulk_stress(BLOCK, &[0u8; 2048], 30_000).unwrap();
        for op in ops {
            for t in [-500.0, f64::NAN, f64::INFINITY] {
                let mut c = worn.clone();
                assert_eq!(op(&mut c, Micros::new(t)), Err(NandError::InvalidPulse));
                assert_eq!(
                    c.mean_wear(BLOCK).to_bits(),
                    worn.mean_wear(BLOCK).to_bits()
                );
                assert_eq!(c.elapsed().get().to_bits(), worn.elapsed().get().to_bits());
                // Nor did the op noise stream move: the next pulse lands
                // where it lands on an untouched copy.
                let mut twin = worn.clone();
                for copy in [&mut c, &mut twin] {
                    copy.partial_erase_block(BLOCK, Micros::new(20.5)).unwrap();
                }
                assert_eq!(c.ideal_bits(BLOCK), twin.ideal_bits(BLOCK));
            }
        }
    }

    #[test]
    fn bulk_stress_wears_block() {
        let mut c = chip();
        let pattern = vec![0u8; 2048];
        c.bulk_stress(BlockAddr::new(1), &pattern, 30_000).unwrap();
        assert!(c.mean_wear(BlockAddr::new(1)) > 29_000.0);
        // Wear slows the erase down.
        for p in 0..4 {
            let _ = c.program_page(PageAddr::new(BlockAddr::new(1), p), &vec![0u8; 512]);
        }
        // A fresh-block erase time no longer suffices.
        let done = c.erase_pulse(BlockAddr::new(1), Micros::new(40.0)).unwrap();
        assert!(!done);
    }

    #[test]
    fn erase_until_clean_converges() {
        let mut c = chip();
        c.program_page(page0(), &vec![0u8; 512]).unwrap();
        let took = c.erase_until_clean(BlockAddr::new(0)).unwrap();
        assert!(took.get() <= 200.0, "fresh block took {took}");
        assert!(c.ideal_bits(BlockAddr::new(0)).iter().all(|&b| b));
    }

    #[test]
    fn address_validation() {
        let mut c = chip();
        assert!(matches!(
            c.read_page(PageAddr::new(BlockAddr::new(9), 0)),
            Err(NandError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            c.read_page(PageAddr::new(BlockAddr::new(0), 9)),
            Err(NandError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            c.program_page(page0(), &[0u8; 3]),
            Err(NandError::DataLength { .. })
        ));
    }

    #[test]
    fn clock_advances() {
        let mut c = chip();
        let t0 = c.elapsed();
        let _ = c.read_page(page0());
        assert!(c.elapsed() > t0);
    }
}
