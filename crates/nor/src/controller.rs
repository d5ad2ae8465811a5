//! The flash controller: command sequencing, timing, locking.
//!
//! Wraps a [`FlashArray`] with the state machine and wall-clock accounting a
//! real flash module has. All Flashmark algorithms drive this type through
//! the [`FlashInterface`] trait. The same controller runs a resistive
//! (ReRAM) part: program is set, erase is reset, and a bulk imprint with
//! [`FlashTimings::forming`] set is the one-pass forming imprint.

use flashmark_obs as obs;
use flashmark_obs::{FlashOpKind, ObsEvent};
use flashmark_physics::{Micros, PhysicsParams, Seconds};

use crate::addr::{SegmentAddr, WordAddr};
use crate::array::{FlashArray, WearStats};
use crate::error::NorError;
use crate::geometry::FlashGeometry;
use crate::interface::{BulkStress, FlashInterface, ImprintTiming, PartialProgram};
use crate::timing::{FlashTimings, SimClock};

/// A simulated flash controller plus its array.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct FlashController {
    array: FlashArray,
    timings: FlashTimings,
    clock: SimClock,
    locked: bool,
    // tCPT budget per 128-byte flash row, keyed by (segment, row).
    cumulative_program: std::collections::BTreeMap<(u32, u32), Micros>,
}

impl FlashController {
    /// Pulse length of the erase-until-clean loop, which polls the segment
    /// after each pulse.
    const POLL_STEP: Micros = Micros::new(25.0);

    /// Words read by one erase-until-clean poll.
    const POLL_WORDS: usize = 16;

    /// Creates a controller over a fresh chip.
    ///
    /// # Panics
    ///
    /// Panics unless every duration of `timings`, the forming pass's
    /// included, is finite and non-negative.
    #[must_use]
    pub fn new(
        params: PhysicsParams,
        geometry: FlashGeometry,
        timings: FlashTimings,
        chip_seed: u64,
    ) -> Self {
        timings.assert_valid();
        Self {
            array: FlashArray::new(params, geometry, chip_seed),
            timings,
            clock: SimClock::new(),
            locked: false,
            cumulative_program: std::collections::BTreeMap::new(),
        }
    }

    /// The operation timings in force.
    #[must_use]
    pub fn timings(&self) -> &FlashTimings {
        &self.timings
    }

    /// Ground-truth access to the cell array (simulator-only; experiments
    /// use this for reference data a real part could never provide).
    #[must_use]
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Mutable ground-truth access to the cell array.
    pub fn array_mut(&mut self) -> &mut FlashArray {
        &mut self.array
    }

    /// Sets the die temperature (°C) for subsequent operations. Erase
    /// pulses act faster when the die is hot, which shifts the partial-
    /// erase window — the `temperature_sweep` experiment quantifies it.
    pub fn set_temperature_c(&mut self, temp_c: f64) {
        self.array.set_temperature_c(temp_c);
    }

    /// Locks the controller (`LOCK` bit): programs and erases are refused.
    pub fn lock(&mut self) {
        self.locked = true;
    }

    /// Unlocks the controller.
    pub fn unlock(&mut self) {
        self.locked = false;
    }

    /// Wear statistics of a segment (ground truth).
    pub fn wear_stats(&mut self, seg: SegmentAddr) -> WearStats {
        self.array.wear_stats(seg)
    }

    /// Mass erase: every touched segment is fully erased (untouched
    /// segments are already in the erased state).
    ///
    /// # Errors
    ///
    /// Returns [`NorError::Locked`] if the controller is locked.
    pub fn mass_erase(&mut self) -> Result<(), NorError> {
        self.check_writable()?;
        for seg in self.array.touched_segments() {
            self.array.erase_complete(seg, self.timings.mass_erase)?;
        }
        self.cumulative_program.clear();
        self.clock
            .advance(self.timings.setup_overhead + self.timings.mass_erase);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::MassErase,
            seg: 0,
        });
        Ok(())
    }

    /// Charges `dt` of program time against one 128-byte row's `tCPT`
    /// budget (the datasheet bounds cumulative programming per row between
    /// erases).
    fn charge_program_time(
        &mut self,
        seg: SegmentAddr,
        row: u32,
        dt: Micros,
    ) -> Result<(), NorError> {
        let limit = self.timings.cumulative_program_limit;
        if limit.get() <= 0.0 {
            return Ok(());
        }
        let spent = self
            .cumulative_program
            .entry((seg.index(), row))
            .or_insert(Micros::new(0.0));
        if (*spent + dt).get() > limit.get() {
            return Err(NorError::CumulativeProgramTime {
                segment: seg.index(),
            });
        }
        *spent += dt;
        Ok(())
    }

    fn clear_program_budget(&mut self, seg: SegmentAddr) {
        self.cumulative_program
            .retain(|&(s, _), _| s != seg.index());
    }

    fn check_writable(&self) -> Result<(), NorError> {
        if self.locked {
            Err(NorError::Locked)
        } else {
            Ok(())
        }
    }

    fn poll_overhead(&self) -> Micros {
        self.timings.abort_latency + self.timings.read_word * Self::POLL_WORDS as f64
    }

    /// Estimated erase times of early-exited erases at a schedule of
    /// hypothetical uniform wear levels (used by the bulk-imprint time
    /// integral): per level, the slowest stressed cell's crossing time
    /// extended to full completion. One arena kernel call evaluates the
    /// whole schedule, so the Pareto pruning of the candidate set is paid
    /// once instead of per sample.
    fn early_exit_estimates(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        wear_levels: &[f64],
    ) -> Result<Vec<Micros>, NorError> {
        let (full_ratio, spared_ratio) = {
            let params = self.array.params();
            // Ratio of full-erase time to reference-crossing time, from the
            // nominal levels (identical for every cell to first order).
            let span_total = params.vth_programmed.mean - params.vth_erased.mean;
            let span_to_ref = params.vth_programmed.mean - params.vref.get();
            // Spared cells still accrue erase-only wear each cycle.
            let spared_ratio = params.wear.erase_only / (params.wear.program + params.wear.erase);
            ((span_total / span_to_ref).max(1.0), spared_ratio)
        };
        let pairs: Vec<(f64, f64)> = wear_levels
            .iter()
            .map(|&wear_cycles| (wear_cycles, wear_cycles * spared_ratio))
            .collect();
        let worsts = self.array.worst_t_cross_multi(seg, pattern, &pairs)?;
        Ok(worsts
            .into_iter()
            .map(|worst| Micros::new(worst * full_ratio))
            .collect())
    }

    fn emit_cells_touched(kind: &'static str, cells: u64) {
        obs::emit(ObsEvent::CellsTouched { kind, cells });
    }

    fn emit_bulk_imprint(&self, seg: SegmentAddr, cycles: u64) {
        obs::emit(ObsEvent::BulkImprint {
            seg: seg.index(),
            cycles,
        });
        Self::emit_cells_touched("bulk_imprint", self.geometry().cells_per_segment() as u64);
    }
}

impl FlashInterface for FlashController {
    fn geometry(&self) -> FlashGeometry {
        self.array.geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        let v = self.array.read_word(word)?;
        self.clock.advance(self.timings.read_word);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ReadWord,
            seg: self.geometry().segment_of(word).index(),
        });
        Ok(v)
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        let values = self.array.read_segment_words(seg)?;
        // Per-word clock updates in the same order as a word-by-word loop,
        // so elapsed time stays float-identical to the legacy path.
        for _ in 0..values.len() {
            self.clock.advance(self.timings.read_word);
        }
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ReadBlock,
            seg: seg.index(),
        });
        Self::emit_cells_touched("read_block", self.geometry().cells_per_segment() as u64);
        Ok(values)
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.check_writable()?;
        let seg = self.geometry().segment_of(word);
        let row = (self.geometry().word_offset_in_segment(word) / 64) as u32;
        self.charge_program_time(seg, row, self.timings.program_word)?;
        self.array.program_word(word, value)?;
        self.clock.advance(self.timings.program_word);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ProgramWord,
            seg: seg.index(),
        });
        Ok(())
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        self.check_writable()?;
        let n = self.geometry().words_per_segment();
        if values.len() != n {
            return Err(NorError::BlockLengthMismatch {
                got: values.len(),
                expected: n,
            });
        }
        // A block write spreads its time evenly over the segment's rows.
        let rows = (n / 64).max(1) as u32;
        let per_row = self.timings.block_write(n) / f64::from(rows);
        for row in 0..rows {
            self.charge_program_time(seg, row, per_row)?;
        }
        self.array.program_segment_words(seg, values)?;
        self.clock.advance(self.timings.block_write(n));
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::ProgramBlock,
            seg: seg.index(),
        });
        Self::emit_cells_touched("program_block", self.geometry().cells_per_segment() as u64);
        Ok(())
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.check_writable()?;
        self.array.erase_complete(seg, self.timings.erase_segment)?;
        self.clear_program_budget(seg);
        self.clock
            .advance(self.timings.setup_overhead + self.timings.erase_segment);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::EraseSegment,
            seg: seg.index(),
        });
        Ok(())
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        self.check_writable()?;
        self.array.erase_pulse(seg, t_pe)?;
        self.clear_program_budget(seg);
        self.clock
            .advance(self.timings.setup_overhead + t_pe + self.timings.abort_latency);
        obs::emit(ObsEvent::PartialErase {
            seg: seg.index(),
            t_pe_us: t_pe.get(),
        });
        Self::emit_cells_touched("partial_erase", self.geometry().cells_per_segment() as u64);
        Ok(())
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.check_writable()?;
        self.clear_program_budget(seg);
        self.clock.advance(self.timings.setup_overhead);
        let mut spent = Micros::new(0.0);
        let mut pulses = 0u64;
        let max_pulses = 4096; // hard stop far beyond any calibrated wear
        for _ in 0..max_pulses {
            let done = self.array.erase_pulse(seg, Self::POLL_STEP)?;
            pulses += 1;
            spent += Self::POLL_STEP;
            self.clock.advance(Self::POLL_STEP + self.poll_overhead());
            if done {
                break;
            }
        }
        obs::emit(ObsEvent::EraseUntilClean {
            seg: seg.index(),
            took_us: spent.get(),
        });
        Self::emit_cells_touched(
            "erase_until_clean",
            pulses * self.geometry().cells_per_segment() as u64,
        );
        Ok(spent)
    }

    fn elapsed(&self) -> Seconds {
        self.clock.now()
    }
}

impl PartialProgram for FlashController {
    fn partial_program(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError> {
        self.check_writable()?;
        self.array.program_pulse(seg, t_pp)?;
        self.clock
            .advance(self.timings.setup_overhead + t_pp + self.timings.abort_latency);
        obs::emit(ObsEvent::FlashOp {
            kind: FlashOpKind::PartialProgram,
            seg: seg.index(),
        });
        Ok(())
    }
}

impl BulkStress for FlashController {
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        self.check_writable()?;
        let n = self.geometry().words_per_segment();
        if pattern.len() != n {
            return Err(NorError::BlockLengthMismatch {
                got: pattern.len(),
                expected: n,
            });
        }
        let start = self.clock.now();
        if let Some(forming) = self.timings.forming {
            // One forming pass at the voltage that deposits `cycles`: the
            // cost is flat in the stress level, and the imprint-timing
            // schedule (an erase-loop concept) does not apply.
            if cycles > forming.max_cycles {
                return Err(NorError::WearModelRange {
                    kcycles: cycles as f64 / 1000.0,
                });
            }
            self.array.bulk_stress(seg, pattern, cycles)?;
            self.clock
                .advance(self.timings.setup_overhead + forming.pass);
            self.emit_bulk_imprint(seg, cycles);
            return Ok(self.clock.now() - start);
        }
        // Time accounting first (needs pre-stress statics only, but wear is
        // sampled across the whole schedule, so order does not matter).
        let write = self.timings.block_write(n);
        match timing {
            ImprintTiming::Baseline => {
                let cycle = self.timings.setup_overhead + self.timings.erase_segment + write;
                self.clock.advance(cycle * cycles as f64);
            }
            ImprintTiming::Accelerated => {
                // Integrate the early-exit erase time over the wear ramp
                // 0..cycles with a trapezoidal rule over SAMPLES points.
                const SAMPLES: usize = 16;
                let wear_levels: Vec<f64> = (0..=SAMPLES)
                    .map(|s| cycles as f64 * s as f64 / SAMPLES as f64)
                    .collect();
                let estimates = self.early_exit_estimates(seg, pattern, &wear_levels)?;
                let mut erase_total = 0.0;
                for (s, est) in estimates.iter().enumerate() {
                    // Round the estimate up to the polling grid and add the
                    // polling overhead the loop implementation would pay.
                    let step = Self::POLL_STEP.get();
                    let pulses = (est.get() / step).ceil().max(1.0);
                    let per_erase = pulses * (step + self.poll_overhead().get())
                        + self.timings.setup_overhead.get();
                    let weight = if s == 0 || s == SAMPLES { 0.5 } else { 1.0 };
                    erase_total += weight * per_erase;
                }
                erase_total *= cycles as f64 / SAMPLES as f64;
                let write_total = write.get() * cycles as f64;
                self.clock.advance(Micros::new(erase_total + write_total));
                let n_cells = self.geometry().cells_per_segment() as u64;
                Self::emit_cells_touched("early_exit_estimate", (SAMPLES as u64 + 1) * n_cells);
            }
        }
        self.array.bulk_stress(seg, pattern, cycles)?;
        self.emit_bulk_imprint(seg, cycles);
        Ok(self.clock.now() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::FlashInterfaceExt;
    use crate::timing::FormingPass;

    fn controller() -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings::msp430(),
            0xC1A0,
        )
    }

    fn forming_controller() -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(8),
            FlashTimings {
                forming: Some(FormingPass {
                    pass: Micros::from_millis(4.0),
                    max_cycles: 200_000,
                }),
                ..FlashTimings::msp430()
            },
            0xC1A0,
        )
    }

    #[test]
    fn negative_or_non_finite_timings_are_refused_at_construction() {
        type Setter = fn(&mut FlashTimings, Micros);
        fn forming(pass: Micros) -> FlashTimings {
            FlashTimings {
                forming: Some(FormingPass {
                    pass,
                    max_cycles: 200_000,
                }),
                ..FlashTimings::msp430()
            }
        }
        fn build(timings: FlashTimings) -> FlashController {
            FlashController::new(
                PhysicsParams::msp430_like(),
                FlashGeometry::single_bank(8),
                timings,
                0xC1A0,
            )
        }
        let _ = build(forming(Micros::new(0.0)));
        let setters: [(&str, Setter); 10] = [
            ("erase_segment", |t, d| t.erase_segment = d),
            ("mass_erase", |t, d| t.mass_erase = d),
            ("program_word", |t, d| t.program_word = d),
            ("block_write_word", |t, d| t.block_write_word = d),
            ("block_write_overhead", |t, d| t.block_write_overhead = d),
            ("read_word", |t, d| t.read_word = d),
            ("abort_latency", |t, d| t.abort_latency = d),
            ("setup_overhead", |t, d| t.setup_overhead = d),
            ("cumulative_program_limit", |t, d| {
                t.cumulative_program_limit = d;
            }),
            ("forming.pass", |t, d| *t = forming(d)),
        ];
        for (name, set) in setters {
            for d in [-1_000.0, f64::NAN] {
                let mut timings = FlashTimings::msp430();
                set(&mut timings, Micros::new(d));
                let refused = std::panic::catch_unwind(|| build(timings)).is_err();
                assert!(refused, "`{name}` = {d} us was accepted");
            }
        }
    }

    #[test]
    fn program_and_read_advance_clock() {
        let mut ctl = controller();
        let t0 = ctl.elapsed();
        ctl.program_word(WordAddr::new(0), 0x1234).unwrap();
        let t1 = ctl.elapsed();
        assert!(t1 > t0);
        assert_eq!(ctl.read_word(WordAddr::new(0)).unwrap(), 0x1234);
        assert!(ctl.elapsed() > t1);
    }

    #[test]
    fn erase_takes_terase() {
        let mut ctl = controller();
        ctl.erase_segment(SegmentAddr::new(0)).unwrap();
        let ms = ctl.elapsed().get() * 1e3;
        assert!((24.9..=25.3).contains(&ms), "elapsed {ms} ms");
    }

    #[test]
    fn locked_controller_refuses_writes_but_reads() {
        let mut ctl = controller();
        ctl.lock();
        assert_eq!(
            ctl.program_word(WordAddr::new(0), 0).unwrap_err(),
            NorError::Locked
        );
        assert_eq!(
            ctl.erase_segment(SegmentAddr::new(0)).unwrap_err(),
            NorError::Locked
        );
        assert_eq!(
            ctl.partial_erase(SegmentAddr::new(0), Micros::new(10.0))
                .unwrap_err(),
            NorError::Locked
        );
        assert!(ctl.read_word(WordAddr::new(0)).is_ok());
        ctl.unlock();
        assert!(ctl.program_word(WordAddr::new(0), 0).is_ok());
    }

    #[test]
    fn erase_until_clean_fresh_segment_is_fast() {
        let mut ctl = controller();
        let seg = SegmentAddr::new(1);
        ctl.program_all_zero(seg).unwrap();
        let took = ctl.erase_until_clean(seg).unwrap();
        // Fresh cells complete in well under 150 µs.
        assert!(took.get() <= 150.0, "took {took}");
        let words = ctl.read_block(seg).unwrap();
        assert!(words.iter().all(|&w| w == 0xFFFF));
    }

    #[test]
    fn erase_until_clean_tracks_wear() {
        let mut ctl = controller();
        let seg = SegmentAddr::new(2);
        ctl.bulk_imprint(seg, &vec![0u16; 256], 40_000, ImprintTiming::Baseline)
            .unwrap();
        ctl.program_all_zero(seg).unwrap();
        let took = ctl.erase_until_clean(seg).unwrap();
        assert!(
            (150.0..=600.0).contains(&took.get()),
            "40K-worn segment erase took {took}"
        );
    }

    #[test]
    fn bulk_imprint_baseline_matches_paper_times() {
        let mut ctl = controller();
        let seg = SegmentAddr::new(3);
        let dt = ctl
            .bulk_imprint(seg, &vec![0u16; 256], 40_000, ImprintTiming::Baseline)
            .unwrap();
        assert!(
            (1340.0..=1420.0).contains(&dt.get()),
            "baseline 40K took {dt}"
        );
    }

    #[test]
    fn bulk_imprint_accelerated_is_about_3_5x_faster() {
        let mut ctl = controller();
        let seg = SegmentAddr::new(4);
        let fast = ctl
            .bulk_imprint(seg, &vec![0u16; 256], 40_000, ImprintTiming::Accelerated)
            .unwrap();
        let mut ctl2 = controller();
        let slow = ctl2
            .bulk_imprint(
                SegmentAddr::new(4),
                &vec![0u16; 256],
                40_000,
                ImprintTiming::Baseline,
            )
            .unwrap();
        let speedup = slow.get() / fast.get();
        assert!((2.8..=4.5).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn bulk_imprint_leaves_pattern_programmed() {
        let mut ctl = controller();
        let seg = SegmentAddr::new(5);
        let mut pattern = vec![0xFFFFu16; 256];
        pattern[3] = 0x5443;
        ctl.bulk_imprint(seg, &pattern, 1_000, ImprintTiming::Baseline)
            .unwrap();
        let base = ctl.geometry().first_word(seg);
        assert_eq!(ctl.read_word(base.offset(3)).unwrap(), 0x5443);
        assert_eq!(ctl.read_word(base.offset(4)).unwrap(), 0xFFFF);
    }

    #[test]
    fn forming_imprint_costs_one_pass_at_any_stress() {
        let t = *forming_controller().timings();
        let pass = (t.setup_overhead + t.forming.unwrap().pass)
            .to_seconds()
            .get();
        for cycles in [1_000, 150_000] {
            for timing in [ImprintTiming::Baseline, ImprintTiming::Accelerated] {
                let mut ctl = forming_controller();
                let seg = SegmentAddr::new(2);
                let dt = ctl.bulk_imprint(seg, &[0; 256], cycles, timing).unwrap();
                assert_eq!(dt.get().to_bits(), pass.to_bits(), "{cycles} {timing:?}");
                assert_eq!(ctl.elapsed().get().to_bits(), pass.to_bits());
                assert!(ctl.wear_stats(seg).max_cycles > 0.0);
            }
        }
    }

    #[test]
    fn forming_beyond_the_cap_is_refused_without_wear() {
        let mut ctl = forming_controller();
        let seg = SegmentAddr::new(2);
        let err = ctl
            .bulk_imprint(seg, &[0; 256], 200_001, ImprintTiming::Accelerated)
            .unwrap_err();
        assert!(matches!(err, NorError::WearModelRange { .. }), "{err}");
        assert_eq!(ctl.wear_stats(seg).max_cycles.to_bits(), 0.0f64.to_bits());
        assert_eq!(ctl.elapsed().get().to_bits(), 0.0f64.to_bits());
        // The cap itself is inside the calibrated range.
        ctl.bulk_imprint(seg, &[0; 256], 200_000, ImprintTiming::Accelerated)
            .unwrap();
    }

    #[test]
    fn each_operation_emits_one_event_of_its_own_kind() {
        type Op = fn(&mut FlashController) -> Result<(), NorError>;
        const SEG: SegmentAddr = SegmentAddr::new(1);
        const W: WordAddr = WordAddr::new(0);
        let imprint: Op = |c| {
            c.bulk_imprint(SEG, &[0; 256], 1_000, ImprintTiming::Baseline)
                .map(drop)
        };
        let ops: [(&str, Op); 10] = [
            ("read_word", |c| c.read_word(W).map(drop)),
            ("read_block", |c| c.read_block(SEG).map(drop)),
            ("program_word", |c| c.program_word(W, 0)),
            ("program_block", |c| c.program_block(SEG, &[0; 256])),
            ("erase_segment", |c| c.erase_segment(SEG)),
            ("partial_erase", |c| c.partial_erase(SEG, Micros::new(20.0))),
            ("erase_until_clean", |c| c.erase_until_clean(SEG).map(drop)),
            ("mass_erase", FlashController::mass_erase),
            ("partial_program", |c| {
                c.partial_program(SEG, Micros::new(5.0))
            }),
            ("bulk_imprint", imprint),
        ];
        let rows = ops
            .into_iter()
            .map(|(kind, op)| (kind, controller(), op))
            // A forming pass is a bulk imprint too.
            .chain([("bulk_imprint", forming_controller(), imprint)]);
        for (kind, mut ctl, op) in rows {
            let (result, collector) = obs::collect(obs::Collector::new(0), || op(&mut ctl));
            result.unwrap();
            let metrics = collector.metrics();
            assert_eq!(metrics.counter("flash", kind), 1, "{kind}");
            assert_eq!(metrics.group_total("flash"), 1, "{kind} counts once");
        }
    }

    #[test]
    fn read_block_matches_word_loop_including_clock() {
        let mut a = controller();
        let mut b = controller();
        let seg = SegmentAddr::new(1);
        for ctl in [&mut a, &mut b] {
            ctl.program_all_zero(seg).unwrap();
            ctl.partial_erase(seg, Micros::new(20.5)).unwrap();
        }
        let batched = a.read_block(seg).unwrap();
        let looped: Vec<u16> = b
            .geometry()
            .segment_words(seg)
            .map(|w| b.read_word(w).unwrap())
            .collect();
        assert_eq!(batched, looped);
        assert_eq!(a.elapsed().get().to_bits(), b.elapsed().get().to_bits());
    }

    #[test]
    fn cumulative_program_time_enforced_per_row() {
        // Reprogramming the same row hundreds of times without an erase
        // exceeds the datasheet's tCPT budget; an erase resets it.
        let mut ctl = controller();
        let w = WordAddr::new(0);
        let mut hit_limit = false;
        for _ in 0..400 {
            match ctl.program_word(w, 0x0000) {
                Ok(()) => {}
                Err(NorError::CumulativeProgramTime { segment: 0 }) => {
                    hit_limit = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(hit_limit, "tCPT budget never tripped");
        ctl.erase_segment(SegmentAddr::new(0)).unwrap();
        assert!(
            ctl.program_word(w, 0x0000).is_ok(),
            "erase must reset the budget"
        );
    }

    #[test]
    fn normal_flashmark_flows_fit_the_tcpt_budget() {
        // One block write per erase (the imprint/extract pattern) never
        // trips the limit.
        let mut ctl = controller();
        let seg = SegmentAddr::new(0);
        for _ in 0..5 {
            ctl.erase_segment(seg).unwrap();
            ctl.program_block(seg, &vec![0u16; 256]).unwrap();
        }
    }

    #[test]
    fn invalid_pulse_durations_are_refused_before_anything_moves() {
        type Op = fn(&mut FlashController, Micros) -> Result<(), NorError>;
        const SEG: SegmentAddr = SegmentAddr::new(2);
        let ops: [(&str, Op); 3] = [
            ("partial_erase", |c, t| c.partial_erase(SEG, t)),
            ("partial_program", |c, t| c.partial_program(SEG, t)),
            // A full erase under hand-built timings.
            ("erase_segment", |c, t| {
                c.timings.erase_segment = t;
                c.erase_segment(SEG)
            }),
        ];
        let mut worn = controller();
        worn.bulk_imprint(SEG, &[0; 256], 40_000, ImprintTiming::Baseline)
            .unwrap();
        // Charge a row's tCPT budget, which an erase would reset.
        worn.program_word(WordAddr::new(2 * 256), 0).unwrap();
        let wear_bits = |c: &mut FlashController| {
            let w = c.wear_stats(SEG);
            [w.min_cycles, w.max_cycles, w.mean_cycles].map(f64::to_bits)
        };
        for (name, op) in ops {
            for t in [-500.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut ctl = worn.clone();
                let (result, collector) =
                    obs::collect(obs::Collector::new(0), || op(&mut ctl, Micros::new(t)));
                assert_eq!(result, Err(NorError::InvalidPulse), "{name} {t}");
                assert_eq!(collector.ops(), 0, "{name} {t} emitted events");
                assert_eq!(wear_bits(&mut ctl), wear_bits(&mut worn), "{name} {t}");
                assert_eq!(
                    ctl.array_mut().ideal_bits(SEG),
                    worn.array_mut().ideal_bits(SEG)
                );
                assert_eq!(
                    ctl.elapsed().get().to_bits(),
                    worn.elapsed().get().to_bits()
                );
                assert_eq!(ctl.cumulative_program, worn.cumulative_program);
            }
        }
        // A zero-length pulse is legal (a power cut at the pulse's start).
        worn.clone().partial_erase(SEG, Micros::new(0.0)).unwrap();
        worn.clone().partial_program(SEG, Micros::new(0.0)).unwrap();
    }

    #[test]
    fn block_length_validated() {
        let mut ctl = controller();
        assert!(matches!(
            ctl.program_block(SegmentAddr::new(0), &[0u16; 3])
                .unwrap_err(),
            NorError::BlockLengthMismatch { .. }
        ));
    }
}
