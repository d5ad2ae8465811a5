//! Field-usage profiles: how a chip's *first life* wears its flash.
//!
//! Recycled chips are detected by the stress their prior use left behind
//! (Section I pathway 1; the recycling probe reuses the Fig. 5 detector).
//! Real firmware does not wear flash uniformly — logging hammers a few
//! segments, firmware updates barely touch anything — so the detector's
//! probe placement matters. These profiles generate realistic wear maps for
//! that analysis.

use flashmark_core::CoreError;
use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::SegmentAddr;
use flashmark_physics::rng::SplitMix64;

use crate::chip::Chip;

/// A first-life usage pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum UsageProfile {
    /// Sensor/data logger: a small log region cycled hard and evenly.
    DataLogger {
        /// First segment of the log region.
        log_start: u32,
        /// Segments in the log region.
        log_segments: u32,
        /// P/E cycles each log segment accumulated.
        cycles: u64,
    },
    /// Occasional firmware updates: every code segment erased/rewritten a
    /// few times.
    FirmwareUpdates {
        /// Segments holding the firmware image.
        code_segments: u32,
        /// Number of updates over the product's life.
        updates: u64,
    },
    /// A wear-leveled circular buffer: writes spread over a ring, leaving a
    /// moderate, uniform signature.
    CircularBuffer {
        /// First segment of the ring.
        ring_start: u32,
        /// Segments in the ring.
        ring_segments: u32,
        /// Total segment-erase operations across the ring.
        total_erases: u64,
    },
}

impl UsageProfile {
    /// Wear (cycles) this profile puts on each touched segment.
    #[must_use]
    pub fn wear_map(&self) -> Vec<(SegmentAddr, u64)> {
        match *self {
            Self::DataLogger {
                log_start,
                log_segments,
                cycles,
            } => (0..log_segments)
                .map(|i| (SegmentAddr::new(log_start + i), cycles))
                .collect(),
            Self::FirmwareUpdates {
                code_segments,
                updates,
            } => (0..code_segments)
                .map(|i| (SegmentAddr::new(i), updates))
                .collect(),
            Self::CircularBuffer {
                ring_start,
                ring_segments,
                total_erases,
            } => {
                let per = total_erases / u64::from(ring_segments.max(1));
                (0..ring_segments)
                    .map(|i| (SegmentAddr::new(ring_start + i), per))
                    .collect()
            }
        }
    }
}

/// Applies a first life to a chip (wear accumulates; data is wiped at
/// resale, which changes nothing about the wear).
///
/// # Errors
///
/// Flash errors.
pub fn live_first_life(chip: &mut Chip, profile: &UsageProfile) -> Result<(), CoreError> {
    let words = chip.flash.geometry().words_per_segment();
    for (seg, cycles) in profile.wear_map() {
        if cycles == 0 {
            continue;
        }
        chip.flash
            .bulk_imprint(seg, &vec![0u16; words], cycles, ImprintTiming::Baseline)?;
        chip.flash.erase_segment(seg)?;
    }
    Ok(())
}

/// Picks `count` distinct probe segments spread over the device — the
/// integrator does not know where the first life concentrated its wear, so
/// it samples.
#[must_use]
pub fn sampled_probe_segments(total_segments: u32, count: usize, seed: u64) -> Vec<SegmentAddr> {
    let mut rng = SplitMix64::new(seed);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(total_segments as usize) {
        picked.insert(rng.range_usize(total_segments as usize) as u32);
    }
    picked.into_iter().map(SegmentAddr::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Provenance;
    use flashmark_msp430::Msp430Variant;

    /// The heaviest per-segment wear a profile causes.
    fn peak_cycles(profile: &UsageProfile) -> u64 {
        profile
            .wear_map()
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn wear_maps_cover_expected_segments() {
        let logger = UsageProfile::DataLogger {
            log_start: 10,
            log_segments: 3,
            cycles: 40_000,
        };
        assert_eq!(logger.wear_map().len(), 3);
        assert_eq!(peak_cycles(&logger), 40_000);

        let fw = UsageProfile::FirmwareUpdates {
            code_segments: 8,
            updates: 20,
        };
        assert_eq!(peak_cycles(&fw), 20);

        let ring = UsageProfile::CircularBuffer {
            ring_start: 0,
            ring_segments: 4,
            total_erases: 40_000,
        };
        assert_eq!(peak_cycles(&ring), 10_000);
    }

    #[test]
    fn first_life_wears_the_profiled_segments() {
        let mut chip = Chip::fresh(Msp430Variant::F5438, 0x11FE, Provenance::GenuineAccept);
        let profile = UsageProfile::DataLogger {
            log_start: 5,
            log_segments: 2,
            cycles: 20_000,
        };
        live_first_life(&mut chip, &profile).unwrap();
        let worn = chip.flash.main_mut().wear_stats(SegmentAddr::new(5));
        assert!(worn.mean_cycles > 19_000.0);
        let untouched = chip.flash.main_mut().wear_stats(SegmentAddr::new(100));
        assert!(untouched.mean_cycles < 1.0);
    }

    #[test]
    fn sampled_probes_are_distinct_and_in_range() {
        let probes = sampled_probe_segments(512, 8, 42);
        assert_eq!(probes.len(), 8);
        assert!(probes.iter().all(|s| s.index() < 512));
        let dedup: std::collections::BTreeSet<_> = probes.iter().collect();
        assert_eq!(dedup.len(), 8);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        assert_eq!(
            sampled_probe_segments(512, 4, 7),
            sampled_probe_segments(512, 4, 7)
        );
        assert_ne!(
            sampled_probe_segments(512, 4, 7),
            sampled_probe_segments(512, 4, 8)
        );
    }
}
