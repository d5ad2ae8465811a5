//! Datasheet-derived operation timings and the simulated wall clock.
//!
//! The paper's Section V imprint/extract time results are arithmetic over
//! these durations: a baseline imprint cycle is one full segment erase
//! (~25 ms) plus one block write (~9.5 ms), giving 1380 s at 40 K cycles —
//! exactly the paper's number. The accelerated imprint replaces the fixed
//! erase with an early-exited erase whose duration tracks the wear level.
//! A forming part (ReRAM) sets [`FlashTimings::forming`] instead, and its
//! bulk imprint costs one forming pass whatever the stress level.

use flashmark_physics::{Micros, Seconds};

/// Operation durations of a flash module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashTimings {
    /// Full segment erase (`TERASE`).
    pub erase_segment: Micros,
    /// Full mass (bank) erase.
    pub mass_erase: Micros,
    /// Single-word program (`TPROG`), including per-word overhead.
    pub program_word: Micros,
    /// Per-word time in block-write mode (faster than single-word).
    pub block_write_word: Micros,
    /// Block-write setup/teardown per segment.
    pub block_write_overhead: Micros,
    /// Single-word read.
    pub read_word: Micros,
    /// Latency of the emergency-exit (erase abort) command, including the
    /// time to remove programming voltages.
    pub abort_latency: Micros,
    /// Voltage-generator bring-up before an erase or program burst.
    pub setup_overhead: Micros,
    /// Maximum cumulative program time per segment between erases (`tCPT`
    /// on MSP430 parts): programming heats the cells, and the datasheet
    /// bounds the total before an erase must intervene. Zero disables the
    /// check.
    pub cumulative_program_limit: Micros,
    /// The forming imprint of a resistive part, or `None` on flash. When
    /// set, a bulk imprint is one elevated-voltage pass instead of an
    /// erase/program wear loop.
    pub forming: Option<FormingPass>,
}

/// The one-pass forming imprint: the stress level is set by the forming
/// *voltage*, not by repetition, so the pass costs the same time at any
/// level up to a calibrated cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormingPass {
    /// Duration of one forming pass over a segment.
    pub pass: Micros,
    /// Largest stress, in equivalent P/E cycles, the forming voltage is
    /// calibrated for; beyond it filaments are destroyed, not degraded.
    pub max_cycles: u64,
}

impl FlashTimings {
    /// Timings of the MSP430F5438/F5529 embedded flash, per its datasheet
    /// and the paper (`TERASE` ≈ 23–35 ms, word program 64–85 µs; block
    /// write sized so one erase+block-write cycle is 34.5 ms, matching the
    /// paper's 1380 s / 40 K baseline imprint).
    #[must_use]
    pub fn msp430() -> Self {
        Self {
            erase_segment: Micros::from_millis(25.0),
            mass_erase: Micros::from_millis(25.0),
            program_word: Micros::new(75.0),
            block_write_word: Micros::new(35.0),
            block_write_overhead: Micros::new(540.0),
            read_word: Micros::new(0.2),
            abort_latency: Micros::new(10.0),
            setup_overhead: Micros::new(30.0),
            cumulative_program_limit: Micros::from_millis(16.0),
            forming: None,
        }
    }

    /// Duration of a block write of `words` words.
    #[must_use]
    pub fn block_write(&self, words: usize) -> Micros {
        self.block_write_overhead + self.block_write_word * words as f64
    }
}

/// The simulated wall clock.
///
/// Strictly monotone; every controller operation advances it by the
/// operation's duration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: Seconds,
}

impl SimClock {
    /// A clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Advances the clock.
    ///
    /// # Panics
    ///
    /// Panics (debug) on negative durations — time never goes backwards.
    pub fn advance(&mut self, dt: Micros) {
        debug_assert!(dt.get() >= 0.0, "clock cannot go backwards");
        self.now += dt.to_seconds();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msp430_cycle_matches_paper_arithmetic() {
        let t = FlashTimings::msp430();
        let cycle = t.erase_segment + t.block_write(256);
        // Paper: 40 K cycles -> 1380 s, i.e. 34.5 ms per cycle.
        let ms = cycle.get() * 1e-3;
        assert!((ms - 34.5).abs() < 0.2, "cycle = {ms} ms");
        let total_40k = cycle.to_seconds() * 40_000.0;
        assert!(
            (total_40k.get() - 1380.0).abs() < 10.0,
            "40K imprint = {total_40k}"
        );
        let total_70k = cycle.to_seconds() * 70_000.0;
        assert!(
            (total_70k.get() - 2415.0).abs() < 17.0,
            "70K imprint = {total_70k}"
        );
    }

    #[test]
    fn erase_in_datasheet_window() {
        let t = FlashTimings::msp430();
        let ms = t.erase_segment.get() * 1e-3;
        assert!((23.0..=35.0).contains(&ms));
    }

    #[test]
    fn block_write_faster_than_word_writes() {
        let t = FlashTimings::msp430();
        let block = t.block_write(256);
        let word_by_word = t.program_word * 256.0;
        assert!(block.get() < word_by_word.get());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), Seconds::new(0.0));
        c.advance(Micros::from_millis(25.0));
        c.advance(Micros::new(75.0));
        assert!((c.now().get() - 0.025_075).abs() < 1e-9);
    }
}
