//! The emulated ReRAM module: cell array, peripheral timings, sim clock.
//!
//! Structurally a sibling of the NOR `FlashController`, but speaking the
//! resistive-memory operation vocabulary: **set** (program to the
//! low-resistance state, reads 0), **reset** (return to the
//! high-resistance state, reads 1), and **forming** (the one-time
//! filament-creation stress that carries the watermark). The cell
//! population itself is the shared SoA arena from `flashmark-physics`,
//! instantiated with the [`reram_like`] parameter preset.

use flashmark_nor::timing::SimClock;
use flashmark_nor::{FlashArray, FlashGeometry, SegmentAddr, WearStats, WordAddr};
use flashmark_obs as obs;
use flashmark_obs::{FlashOpKind, ObsEvent};
use flashmark_physics::{Micros, PhysicsParams, Seconds};

use crate::error::ReramError;
use crate::params::{reram_like, MAX_FORMING_CYCLES};

/// Operation durations of a ReRAM module. ReRAM switches in the
/// sub-microsecond range — orders of magnitude faster than flash erase —
/// which is what makes the forming-time watermark physically cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReramTimings {
    /// Nominal full reset sweep of a segment (must exceed the slowest
    /// cell's switching time at any calibrated wear).
    pub reset_segment: Micros,
    /// Single-word set.
    pub set_word: Micros,
    /// Per-word time in block-set mode.
    pub set_block_word: Micros,
    /// Block-set setup/teardown per segment.
    pub set_block_overhead: Micros,
    /// Single-word read.
    pub read_word: Micros,
    /// Latency of aborting an in-flight reset pulse.
    pub abort_latency: Micros,
    /// Driver bring-up before a set/reset burst.
    pub setup_overhead: Micros,
    /// One forming pass over a segment (applied once per device, whatever
    /// the programmed forming-stress level — the stress is encoded in the
    /// forming *voltage*, not in repetition).
    pub forming_pass: Micros,
}

impl ReramTimings {
    /// Timings of a HfO₂ filamentary part (100 ns-class set/reset, µs-class
    /// driver overheads, ms-class forming pass).
    #[must_use]
    pub fn hfo2() -> Self {
        Self {
            reset_segment: Micros::from_millis(2.0),
            set_word: Micros::new(1.2),
            set_block_word: Micros::new(0.4),
            set_block_overhead: Micros::new(20.0),
            read_word: Micros::new(0.05),
            abort_latency: Micros::new(1.0),
            setup_overhead: Micros::new(5.0),
            forming_pass: Micros::from_millis(4.0),
        }
    }

    /// Duration of a block set of `words` words.
    #[must_use]
    pub fn block_set(&self, words: usize) -> Micros {
        self.set_block_overhead + self.set_block_word * words as f64
    }
}

impl Default for ReramTimings {
    fn default() -> Self {
        Self::hfo2()
    }
}

/// An emulated ReRAM module (array + timings + clock).
#[derive(Debug, Clone)]
pub struct ReramChip {
    array: FlashArray,
    timings: ReramTimings,
    clock: SimClock,
    poll_step: Micros,
    poll_words: usize,
}

impl ReramChip {
    /// Creates a chip with the [`reram_like`] cell population.
    #[must_use]
    pub fn new(geometry: FlashGeometry, chip_seed: u64) -> Self {
        Self::with_params(reram_like(), geometry, chip_seed)
    }

    /// Creates a chip with explicit physics parameters (sweeps).
    #[must_use]
    pub fn with_params(params: PhysicsParams, geometry: FlashGeometry, chip_seed: u64) -> Self {
        Self {
            array: FlashArray::new(params, geometry, chip_seed),
            timings: ReramTimings::default(),
            clock: SimClock::new(),
            poll_step: Micros::new(25.0),
            poll_words: 16,
        }
    }

    /// The operation timings in force.
    #[must_use]
    pub fn timings(&self) -> &ReramTimings {
        &self.timings
    }

    /// The array geometry.
    #[must_use]
    pub fn geometry(&self) -> FlashGeometry {
        self.array.geometry()
    }

    /// Ground-truth access to the cell array (simulator-only).
    #[must_use]
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Mutable ground-truth access to the cell array.
    pub fn array_mut(&mut self) -> &mut FlashArray {
        &mut self.array
    }

    /// Sets the die temperature (°C) for subsequent operations.
    pub fn set_temperature_c(&mut self, temp_c: f64) {
        self.array.set_temperature_c(temp_c);
    }

    /// Simulated time elapsed since power-on.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        self.clock.now()
    }

    /// Wear statistics of a segment (ground truth).
    pub fn wear_stats(&mut self, seg: SegmentAddr) -> WearStats {
        self.array.wear_stats(seg)
    }

    /// Reads one word.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::Array`] for a bad address.
    pub fn read_word(&mut self, word: WordAddr) -> Result<u16, ReramError> {
        let v = self.array.read_word(word)?;
        self.clock.advance(self.timings.read_word);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ReadWord,
            seg: self.geometry().segment_of(word).index(),
        });
        Ok(v)
    }

    /// Reads every word of a segment.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::Array`] for a bad address.
    pub fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, ReramError> {
        let values = self.array.read_segment_words(seg)?;
        self.clock
            .advance(self.timings.read_word * values.len() as f64);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ReadBlock,
            seg: seg.index(),
        });
        obs::emit(ObsEvent::CellsTouched {
            kind: "read_block",
            cells: self.geometry().cells_per_segment() as u64,
        });
        Ok(values)
    }

    /// Sets one word (drives 0 bits of `value` to the low-resistance
    /// state; like flash programming, sets only move bits toward 0).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::Array`] for a bad address.
    pub fn set_word(&mut self, word: WordAddr, value: u16) -> Result<(), ReramError> {
        self.array.program_word(word, value)?;
        self.clock.advance(self.timings.set_word);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ProgramWord,
            seg: self.geometry().segment_of(word).index(),
        });
        Ok(())
    }

    /// Sets every word of a segment in one burst.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::DataLength`] for a wrong-sized buffer or
    /// [`ReramError::Array`] for a bad address.
    pub fn set_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), ReramError> {
        let n = self.geometry().words_per_segment();
        if values.len() != n {
            return Err(ReramError::DataLength {
                got: values.len(),
                expected: n,
            });
        }
        self.array.program_segment_words(seg, values)?;
        self.clock.advance(self.timings.block_set(n));
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ProgramBlock,
            seg: seg.index(),
        });
        obs::emit(ObsEvent::CellsTouched {
            kind: "program_block",
            cells: self.geometry().cells_per_segment() as u64,
        });
        Ok(())
    }

    /// Fully resets a segment to the high-resistance state.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::Array`] for a bad address.
    pub fn reset_segment(&mut self, seg: SegmentAddr) -> Result<(), ReramError> {
        self.array.erase_complete(seg, self.timings.reset_segment)?;
        self.clock
            .advance(self.timings.setup_overhead + self.timings.reset_segment);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::EraseSegment,
            seg: seg.index(),
        });
        Ok(())
    }

    /// Applies a reset pulse of duration `t_pe` and aborts — the partial
    /// reset behind watermark extraction (`tPEW`-aborted reset: cells with
    /// forming-stressed filaments switch slower, so they are still read as
    /// 0 when fresh cells have already reached the high-resistance state).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::Array`] for a bad address.
    pub fn partial_reset(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), ReramError> {
        self.array.erase_pulse(seg, t_pe)?;
        self.clock
            .advance(self.timings.setup_overhead + t_pe + self.timings.abort_latency);
        obs::emit(ObsEvent::PartialErase {
            seg: seg.index(),
            t_pe_us: t_pe.get(),
        });
        obs::emit(ObsEvent::CellsTouched {
            kind: "partial_erase",
            cells: self.geometry().cells_per_segment() as u64,
        });
        Ok(())
    }

    /// Resets a segment with verify-after-pulse polling, returning the
    /// reset time spent (excluding polling overhead) — the recharacterized
    /// `tPEW` source, exactly like the NOR early-exit erase.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::Array`] for a bad address.
    pub fn reset_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, ReramError> {
        self.clock.advance(self.timings.setup_overhead);
        let poll_overhead =
            self.timings.abort_latency + self.timings.read_word * self.poll_words as f64;
        let mut spent = Micros::new(0.0);
        let mut pulses = 0u64;
        let max_pulses = 4096;
        for _ in 0..max_pulses {
            let done = self.array.erase_pulse(seg, self.poll_step)?;
            pulses += 1;
            spent += self.poll_step;
            self.clock.advance(self.poll_step + poll_overhead);
            if done {
                break;
            }
        }
        obs::emit(ObsEvent::EraseUntilClean {
            seg: seg.index(),
            took_us: spent.get(),
        });
        obs::emit(ObsEvent::CellsTouched {
            kind: "erase_until_clean",
            cells: pulses * self.geometry().cells_per_segment() as u64,
        });
        Ok(spent)
    }

    /// Forms the segment with `cycles` equivalent P/E cycles of stress on
    /// the 0 bits of `pattern`, then leaves the pattern set. This is the
    /// ReRAM imprint: a **single** elevated-voltage forming pass whose
    /// voltage level is calibrated to deposit the requested stress, so the
    /// wall-clock cost is one pass regardless of the stress level — the
    /// decisive cost advantage over the NOR erase/program wear loop.
    ///
    /// Returns the elapsed chip time.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::FormingRange`] if `cycles` exceeds
    /// [`MAX_FORMING_CYCLES`], [`ReramError::DataLength`] for a wrong-sized
    /// pattern, or [`ReramError::Array`] for a bad address.
    pub fn form_mark(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
    ) -> Result<Seconds, ReramError> {
        if cycles > MAX_FORMING_CYCLES {
            return Err(ReramError::FormingRange {
                cycles,
                max: MAX_FORMING_CYCLES,
            });
        }
        let n = self.geometry().words_per_segment();
        if pattern.len() != n {
            return Err(ReramError::DataLength {
                got: pattern.len(),
                expected: n,
            });
        }
        let start = self.clock.now();
        self.array.bulk_stress(seg, pattern, cycles)?;
        self.clock
            .advance(self.timings.setup_overhead + self.timings.forming_pass);
        obs::emit(ObsEvent::BulkImprint {
            seg: seg.index(),
            cycles,
        });
        obs::emit(ObsEvent::CellsTouched {
            kind: "bulk_imprint",
            cells: self.geometry().cells_per_segment() as u64,
        });
        Ok(self.clock.now() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ReramChip {
        ReramChip::new(FlashGeometry::single_bank(8), 0x2E2A)
    }

    #[test]
    fn set_and_read_roundtrip() {
        let mut c = chip();
        c.set_word(WordAddr::new(3), 0x5AA5).unwrap();
        assert_eq!(c.read_word(WordAddr::new(3)).unwrap(), 0x5AA5);
        assert!(c.elapsed().get() > 0.0);
    }

    #[test]
    fn reset_returns_segment_to_ones() {
        let mut c = chip();
        let seg = SegmentAddr::new(1);
        c.set_block(seg, &vec![0u16; 256]).unwrap();
        c.reset_segment(seg).unwrap();
        assert!(c.read_block(seg).unwrap().iter().all(|&w| w == 0xFFFF));
    }

    #[test]
    fn each_operation_emits_one_event_of_its_own_kind() {
        type Op = fn(&mut ReramChip) -> Result<(), ReramError>;
        const SEG: SegmentAddr = SegmentAddr::new(1);
        const W: WordAddr = WordAddr::new(0);
        let ops: [(&str, Op); 8] = [
            ("read_word", |c| c.read_word(W).map(drop)),
            ("read_block", |c| c.read_block(SEG).map(drop)),
            ("program_word", |c| c.set_word(W, 0)),
            ("program_block", |c| c.set_block(SEG, &[0; 256])),
            ("erase_segment", |c| c.reset_segment(SEG)),
            ("partial_erase", |c| c.partial_reset(SEG, Micros::new(20.0))),
            ("erase_until_clean", |c| c.reset_until_clean(SEG).map(drop)),
            ("bulk_imprint", |c| {
                c.form_mark(SEG, &[0; 256], 1_000).map(drop)
            }),
        ];
        for (kind, op) in ops {
            let mut c = chip();
            let (result, collector) = obs::collect(obs::Collector::new(0), || op(&mut c));
            result.unwrap();
            let metrics = collector.metrics();
            assert_eq!(metrics.counter("flash", kind), 1, "{kind}");
            assert_eq!(metrics.group_total("flash"), 1, "{kind} counts once");
        }
    }

    #[test]
    fn forming_is_a_single_cheap_pass() {
        let mut c = chip();
        let dt = c
            .form_mark(SegmentAddr::new(2), &vec![0u16; 256], 60_000)
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
            .form_mark(
                SegmentAddr::new(0),
                &vec![0u16; 256],
                MAX_FORMING_CYCLES + 1,
            )
            .unwrap_err();
        assert!(matches!(err, ReramError::FormingRange { .. }));
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
        c.form_mark(seg, &pattern, 60_000).unwrap();
        c.set_block(seg, &vec![0u16; 256]).unwrap();
        c.partial_reset(seg, Micros::new(28.0)).unwrap();
        let words = c.read_block(seg).unwrap();
        let zeros = |ws: &[u16]| ws.iter().map(|w| w.count_zeros() as usize).sum::<usize>();
        let stressed_zeros = zeros(&words[..128]);
        let spared_zeros = zeros(&words[128..]);
        assert!(
            stressed_zeros > spared_zeros + 500,
            "stressed {stressed_zeros} vs spared {spared_zeros}"
        );
    }

    #[test]
    fn reset_until_clean_tracks_forming_stress() {
        let mut fresh = chip();
        let mut formed = chip();
        let seg = SegmentAddr::new(4);
        formed.form_mark(seg, &vec![0u16; 256], 60_000).unwrap();
        for c in [&mut fresh, &mut formed] {
            c.set_block(seg, &vec![0u16; 256]).unwrap();
        }
        let t_fresh = fresh.reset_until_clean(seg).unwrap();
        let t_formed = formed.reset_until_clean(seg).unwrap();
        assert!(
            t_formed.get() > t_fresh.get(),
            "formed {t_formed} <= fresh {t_fresh}"
        );
    }
}
