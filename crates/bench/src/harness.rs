//! Shared experiment plumbing: chips, stressed segments, watermarks.

use flashmark_core::{CoreError, Watermark};
use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_physics::rng::SplitMix64;
use flashmark_physics::PhysicsParams;

pub use flashmark_par::{default_threads, Trial, TrialRunner};

/// A fresh simulated MSP430-class flash controller with enough segments for
/// a multi-stress-level experiment.
#[must_use]
pub fn test_chip(seed: u64) -> FlashController {
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(16),
        FlashTimings::msp430(),
        seed,
    )
}

/// The chip of one [`Trial`]: a fresh [`test_chip`] keyed by the trial's
/// derived seed, so every trial of a parallel experiment owns an
/// independent, deterministic device.
#[must_use]
pub fn trial_chip(trial: Trial) -> FlashController {
    test_chip(trial.seed)
}

/// Uniformly stresses a whole segment by `cycles` (all cells programmed
/// each cycle) and leaves it erased — the "pre-conditioned segment" of the
/// paper's Section III characterization.
///
/// # Errors
///
/// Flash errors.
pub fn precondition_segment(
    flash: &mut FlashController,
    seg: SegmentAddr,
    cycles: u64,
) -> Result<(), CoreError> {
    if cycles > 0 {
        let words = vec![0u16; 256];
        flash.bulk_imprint(seg, &words, cycles, ImprintTiming::Baseline)?;
    }
    flash.erase_segment(seg)?;
    Ok(())
}

/// A deterministic upper-case-ASCII watermark of `bytes` bytes — the
/// payload class the paper's Fig. 9 uses (512 bytes fill a whole segment).
///
/// # Panics
///
/// Panics if `bytes` is zero: watermarks are non-empty by definition.
#[must_use]
pub fn uppercase_ascii_watermark(bytes: usize, seed: u64) -> Watermark {
    let mut rng = SplitMix64::new(seed);
    let payload: Vec<u8> = (0..bytes)
        .map(|_| b'A' + rng.range_usize(26) as u8)
        .collect();
    Watermark::from_bytes(&payload).expect("non-empty payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_is_uppercase_ascii() {
        let wm = uppercase_ascii_watermark(64, 7);
        let s = wm.to_ascii().expect("ascii");
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c.is_ascii_uppercase()));
    }

    #[test]
    fn watermark_deterministic_per_seed() {
        assert_eq!(
            uppercase_ascii_watermark(16, 3).to_bytes(),
            uppercase_ascii_watermark(16, 3).to_bytes()
        );
        assert_ne!(
            uppercase_ascii_watermark(16, 3).to_bytes(),
            uppercase_ascii_watermark(16, 4).to_bytes()
        );
    }

    #[test]
    fn precondition_wears_and_erases() {
        let mut f = test_chip(1);
        let seg = SegmentAddr::new(0);
        precondition_segment(&mut f, seg, 10_000).unwrap();
        let stats = f.wear_stats(seg);
        assert!(stats.mean_cycles > 9_500.0);
        assert!(f.array_mut().ideal_bits(seg).iter().all(|&b| b));
    }
}
