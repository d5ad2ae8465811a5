//! End-to-end supply-chain scenarios: mixed populations through inspection.

use flashmark_core::{CoreError, FlashmarkConfig, TestStatus};
use flashmark_msp430::Msp430Variant;
use flashmark_nor::interface::FlashInterface;
use flashmark_nor::SegmentAddr;
use flashmark_physics::rng::SplitMix64;

use crate::chip::{Chip, Provenance};
use crate::counterfeiter::{
    simulate_field_use, Attack, CloneData, EraseAndReprogram, MetadataForge, StressPadding,
};
use crate::integrator::SystemIntegrator;
use crate::manufacturer::Manufacturer;
use crate::report::DetectionStats;

/// Population mix of a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed (chip identities derive from it).
    pub seed: u64,
    /// Genuine accepted chips.
    pub genuine: usize,
    /// Fall-out dies pushed back into the chain (metadata forged).
    pub fallout: usize,
    /// Recycled chips (field use then resale).
    pub recycled: usize,
    /// Fresh foreign silicon with cloned watermark data.
    pub clones: usize,
    /// Re-branded chips with no watermark at all.
    pub rebranded: usize,
    /// Fall-out dies whose attacker additionally stress-pads the watermark.
    pub stress_padded: usize,
    /// Field-use cycles a recycled chip accumulated.
    pub recycled_use_cycles: u64,
    /// The manufacturer's imprint configuration.
    pub flashmark: FlashmarkConfig,
}

impl ScenarioConfig {
    /// A small but complete mix (one of each pathway, three genuine chips)
    /// that runs in seconds — used by tests and the quickstart example.
    ///
    /// # Panics
    ///
    /// Never (the built-in configuration is valid).
    #[must_use]
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            genuine: 3,
            fallout: 1,
            recycled: 1,
            clones: 1,
            rebranded: 1,
            stress_padded: 1,
            recycled_use_cycles: 40_000,
            flashmark: FlashmarkConfig::builder()
                .n_pe(80_000)
                .replicas(7)
                .build()
                .expect("valid defaults"),
        }
    }
}

/// A runnable supply-chain simulation.
#[derive(Debug)]
pub struct SupplyChainScenario {
    config: ScenarioConfig,
    rng: SplitMix64,
}

impl SupplyChainScenario {
    /// Creates the scenario.
    #[must_use]
    pub fn new(config: ScenarioConfig) -> Self {
        let rng = SplitMix64::new(config.seed);
        Self { config, rng }
    }

    fn seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Builds the population, runs inspection on every chip, and tallies
    /// the results.
    ///
    /// # Errors
    ///
    /// Flash or configuration errors from the underlying procedures.
    pub fn run(&mut self) -> Result<DetectionStats, CoreError> {
        const MFG_ID: u16 = 0x7C01;
        let mut manufacturer =
            Manufacturer::new(MFG_ID, Msp430Variant::F5438, self.config.flashmark.clone());
        let integrator = SystemIntegrator::new(self.config.flashmark.clone(), MFG_ID)?;
        let mut population: Vec<(Chip, &'static str)> = Vec::new();

        for _ in 0..self.config.genuine {
            let chip = manufacturer.produce(self.seed(), TestStatus::Accept)?;
            population.push((chip, "genuine accept"));
        }

        for _ in 0..self.config.fallout {
            // A reject die stolen from the packaging site; the counterfeiter
            // forges the metadata to say accept.
            let mut chip = manufacturer.produce(self.seed(), TestStatus::Reject)?;
            MetadataForge.apply(&mut chip)?;
            population.push((chip, "fall-out, metadata forged"));
        }

        for _ in 0..self.config.stress_padded {
            // A reject die whose attacker also tries to destroy the reject
            // record by stressing the whole watermark segment.
            let mut chip = manufacturer.produce(self.seed(), TestStatus::Reject)?;
            StressPadding { cycles: 40_000 }.apply(&mut chip)?;
            population.push((chip, "fall-out, stress padded"));
        }

        for _ in 0..self.config.recycled {
            let mut chip = manufacturer.produce(self.seed(), TestStatus::Accept)?;
            // A realistic first life: wear spread over a wide region (the
            // integrator's sampled probes do not know where to look).
            for seg in (0..256u32).step_by(8) {
                simulate_field_use(
                    &mut chip,
                    SegmentAddr::new(seg),
                    self.config.recycled_use_cycles,
                )?;
            }
            chip.provenance = Provenance::Recycled {
                prior_cycles: self.config.recycled_use_cycles,
            };
            // The counterfeiter wipes the user data before resale.
            EraseAndReprogram {
                pattern: vec![0xFFFF; chip.flash.geometry().words_per_segment()],
            }
            .apply(&mut chip)?;
            population.push((chip, "recycled"));
        }

        if self.config.clones > 0 {
            // Harvest one genuine donor once.
            let mut donor = manufacturer.produce(self.seed(), TestStatus::Accept)?;
            let donor_bits = CloneData::harvest(&mut donor, 3)?;
            for _ in 0..self.config.clones {
                let mut chip = Chip::fresh(Msp430Variant::F5438, self.seed(), Provenance::Clone);
                CloneData {
                    config: self.config.flashmark.clone(),
                    donor_bits: donor_bits.clone(),
                }
                .apply(&mut chip)?;
                population.push((chip, "clone"));
            }
        }

        for _ in 0..self.config.rebranded {
            // Inferior silicon, re-marked; never saw the trusted fab's
            // die-sort imprint.
            let chip = Chip::fresh(Msp430Variant::F5529, self.seed(), Provenance::Rebranded);
            population.push((chip, "rebranded"));
        }

        let mut stats = DetectionStats::new();
        for (mut chip, label) in population {
            let assessment = integrator.inspect(&mut chip)?;
            stats.record(chip.provenance, label, assessment.accepted);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_catches_everything() {
        let mut s = SupplyChainScenario::new(ScenarioConfig::small(0xBEEF));
        let stats = s.run().unwrap();
        assert_eq!(stats.total(), 8);
        assert_eq!(
            stats.false_positives(),
            0,
            "genuine chips must pass\n{stats}"
        );
        assert_eq!(
            stats.false_negatives(),
            0,
            "all counterfeits must be caught\n{stats}"
        );
        assert_eq!(stats.detection_rate().to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn different_seeds_different_chips_same_outcome() {
        for seed in [1u64, 2, 3] {
            let stats = SupplyChainScenario::new(ScenarioConfig::small(seed))
                .run()
                .unwrap();
            assert_eq!(stats.false_negatives(), 0, "seed {seed}:\n{stats}");
        }
    }
}
