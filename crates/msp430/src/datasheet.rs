//! Datasheet constants of the MSP430F543x/F552x flash module.
//!
//! Sources: MSP430F5438 datasheet (SLAS612) flash memory electrical
//! characteristics, as cited by the paper: segment erase `TERASE` ≈ 23–35 ms
//! and word program `TPROG` ≈ 64–85 µs, with 10 K minimum rated P/E cycles
//! and ~100 K typical endurance (the paper stresses segments up to 100 K).

use flashmark_nor::FlashTimings;
use flashmark_physics::Micros;

/// Minimum segment-erase time (ms).
pub const T_ERASE_MIN_MS: f64 = 23.0;
/// Maximum segment-erase time (ms).
pub const T_ERASE_MAX_MS: f64 = 35.0;
/// Minimum word-program time (µs).
pub const T_PROG_MIN_US: f64 = 64.0;
/// Maximum word-program time (µs).
pub const T_PROG_MAX_US: f64 = 85.0;
/// Rated program/erase endurance used by the paper's experiments (cycles).
pub const ENDURANCE_CYCLES: u64 = 100_000;

/// The timing set used by the device models (within datasheet bounds).
#[must_use]
pub fn timings() -> FlashTimings {
    FlashTimings::msp430()
}

/// Whether a measured/simulated segment-erase duration is within the
/// datasheet window.
#[must_use]
pub fn erase_time_in_spec(t: Micros) -> bool {
    (T_ERASE_MIN_MS..=T_ERASE_MAX_MS).contains(&t.as_millis())
}

/// Whether a word-program duration is within the datasheet window.
#[must_use]
pub fn program_time_in_spec(t: Micros) -> bool {
    (T_PROG_MIN_US..=T_PROG_MAX_US).contains(&t.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_timings_are_in_spec() {
        let t = timings();
        assert!(erase_time_in_spec(t.erase_segment));
        assert!(program_time_in_spec(t.program_word));
    }

    #[test]
    fn spec_checks_reject_out_of_window() {
        assert!(!erase_time_in_spec(Micros::from_millis(10.0)));
        assert!(!erase_time_in_spec(Micros::from_millis(50.0)));
        assert!(!program_time_in_spec(Micros::new(10.0)));
        assert!(!program_time_in_spec(Micros::new(200.0)));
    }
}
