//! Datasheet constants of the MSP430F543x/F552x flash module.
//!
//! Sources: MSP430F5438 datasheet (SLAS612) flash memory electrical
//! characteristics, as cited by the paper: segment erase `TERASE` ≈ 23–35 ms
//! and word program `TPROG` ≈ 64–85 µs, with 10 K minimum rated P/E cycles
//! and ~100 K typical endurance (the paper stresses segments up to 100 K).

use flashmark_nor::FlashTimings;

/// The timing set used by the device models (within datasheet bounds).
#[must_use]
pub fn timings() -> FlashTimings {
    FlashTimings::msp430()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Segment-erase window (ms).
    const T_ERASE_MS: std::ops::RangeInclusive<f64> = 23.0..=35.0;
    /// Word-program window (µs).
    const T_PROG_US: std::ops::RangeInclusive<f64> = 64.0..=85.0;

    #[test]
    fn model_timings_are_in_spec() {
        let t = timings();
        assert!(T_ERASE_MS.contains(&(t.erase_segment.get() / 1000.0)));
        assert!(T_PROG_US.contains(&t.program_word.get()));
    }
}
