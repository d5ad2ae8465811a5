//! Enrolled chip populations the verification service serves requests
//! against.
//!
//! Each enrolled chip is a chip *identity* — a die family plus its
//! as-received device state (watermark imprinted at die sort, any
//! first-life wear, any counterfeiter tampering). Serving a request
//! materializes a fresh copy of that state, modeling repeated incoming
//! inspections of parts from the same lot without the inspector's own
//! extractions accumulating wear on a single simulated die.
//!
//! An enrolled chip keeps only its wear: enrollment sheds the per-cell
//! statics, which are a pure function of the chip seed, and a request's
//! copy that computes on a segment derives them again for itself.

use flashmark_core::{CoreError, FlashmarkConfig, TestStatus, Verifier};
use flashmark_msp430::Msp430Variant;
use flashmark_nor::SegmentAddr;
use flashmark_physics::rng::mix2;
use flashmark_supply::counterfeiter::{simulate_field_use, Attack, CloneData, MetadataForge};
use flashmark_supply::{Chip, Manufacturer, Provenance};

/// Dies (the first draw plus its re-spins) die-sort screening tries before
/// it gives up on a recipe under which no record decodes.
const MAX_SCREENED_DIES: u64 = 64;

/// Stable provenance-class labels used in registry records.
pub mod class {
    /// Genuine accepted part.
    pub const GENUINE: &str = "genuine";
    /// Fall-out (reject) die with forged accept metadata.
    pub const FALLOUT: &str = "fallout_forged";
    /// Recycled part with first-life wear.
    pub const RECYCLED: &str = "recycled";
    /// Fresh foreign silicon with a cloned watermark image.
    pub const CLONE: &str = "clone";
    /// Re-branded blank part (no watermark at all).
    pub const REBRANDED: &str = "rebranded";
}

/// One chip identity the service can inspect.
#[derive(Debug, Clone)]
pub struct EnrolledChip {
    /// Identity (index into the population; also the registry `chip_id`).
    pub chip_id: u64,
    /// Ground-truth provenance-class label (see [`class`]).
    pub class: &'static str,
    /// The as-received device state.
    pub chip: Chip,
}

/// Population mix for a service campaign.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Seed all chip identities derive from.
    pub seed: u64,
    /// Genuine accepted chips.
    pub genuine: usize,
    /// Fall-out dies with forged metadata.
    pub fallout: usize,
    /// Recycled chips.
    pub recycled: usize,
    /// Clones of one genuine donor.
    pub clones: usize,
    /// Re-branded blank chips.
    pub rebranded: usize,
    /// First-life P/E cycles each worn segment of a recycled chip
    /// accumulated.
    pub recycled_cycles: u64,
    /// Segments a recycled chip's first life wore (kept inside the
    /// service's published probe window so sampled probes have a chance).
    pub worn_segments: Vec<u32>,
}

impl PopulationSpec {
    /// The mix used by the million-request campaign: mostly honest parts
    /// with every counterfeit pathway represented.
    #[must_use]
    pub fn campaign(seed: u64) -> Self {
        Self {
            seed,
            genuine: 80,
            fallout: 10,
            recycled: 12,
            clones: 6,
            rebranded: 12,
            recycled_cycles: 40_000,
            worn_segments: vec![4, 12, 20, 28, 36, 44, 52, 60],
        }
    }

    /// A tiny mix for unit tests: one chip of every class.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            genuine: 2,
            fallout: 1,
            recycled: 1,
            clones: 1,
            rebranded: 1,
            recycled_cycles: 40_000,
            worn_segments: vec![4, 20, 36, 52],
        }
    }

    /// Total chips the spec enrolls.
    #[must_use]
    pub fn total(&self) -> usize {
        self.genuine + self.fallout + self.recycled + self.clones + self.rebranded
    }

    /// Builds the population: runs die sort for every identity and applies
    /// each class's first life / tampering. Chip seeds derive from
    /// `mix2(seed, chip_id)`, so the population is a pure function of the
    /// spec.
    ///
    /// # Errors
    ///
    /// Imprint/flash errors from manufacturing or tampering, and
    /// [`CoreError::Config`] when no screened die's record decodes.
    pub fn build(
        &self,
        config: &FlashmarkConfig,
        manufacturer_id: u16,
    ) -> Result<Population, CoreError> {
        let mut manufacturer =
            Manufacturer::new(manufacturer_id, Msp430Variant::F5438, config.clone());
        let verifier = Verifier::new(config.clone(), manufacturer_id);
        let mut chips = Vec::with_capacity(self.total());
        let chip_seed = |chip_id: u64| mix2(self.seed, chip_id);

        // Die-sort screening: some dies' cell populations make the imprint
        // marginal enough that the record never decodes under the public
        // recipe. Real die sort reads the mark back and scraps such dies,
        // so enrollment does the same — verify a throwaway copy (screening
        // must not wear the enrolled state) and re-spin the die seed until
        // the record decodes. One screening pass only: dies that decode
        // once but stay borderline ship, exactly like marginal silicon. A
        // recipe under which no die decodes is a configuration error.
        let screened = |m: &mut Manufacturer, seed: u64, status: TestStatus| {
            let mut die_seed = seed;
            for attempt in 1..=MAX_SCREENED_DIES {
                let chip = m.produce(die_seed, status)?;
                let mut copy = chip.flash.clone();
                let seg = copy.watermark_segment();
                if verifier.verify(&mut copy, seg)?.record.is_some() {
                    return Ok(chip);
                }
                die_seed = mix2(seed, attempt);
            }
            Err(CoreError::Config("no die's record decodes in screening"))
        };

        for _ in 0..self.genuine {
            let id = chips.len() as u64;
            let chip = screened(&mut manufacturer, chip_seed(id), TestStatus::Accept)?;
            enroll(&mut chips, class::GENUINE, chip);
        }
        for _ in 0..self.fallout {
            let id = chips.len() as u64;
            let mut chip = screened(&mut manufacturer, chip_seed(id), TestStatus::Reject)?;
            MetadataForge.apply(&mut chip)?;
            enroll(&mut chips, class::FALLOUT, chip);
        }
        for _ in 0..self.recycled {
            let id = chips.len() as u64;
            let mut chip = screened(&mut manufacturer, chip_seed(id), TestStatus::Accept)?;
            for &seg in &self.worn_segments {
                simulate_field_use(&mut chip, SegmentAddr::new(seg), self.recycled_cycles)?;
            }
            chip.provenance = Provenance::Recycled {
                prior_cycles: self.recycled_cycles,
            };
            enroll(&mut chips, class::RECYCLED, chip);
        }
        if self.clones > 0 {
            let mut donor = manufacturer.produce(mix2(self.seed, 0xD0_00E5), TestStatus::Accept)?;
            let donor_bits = CloneData::harvest(&mut donor, 3)?;
            for _ in 0..self.clones {
                let id = chips.len() as u64;
                let mut chip = Chip::fresh(Msp430Variant::F5438, chip_seed(id), Provenance::Clone);
                CloneData {
                    config: config.clone(),
                    donor_bits: donor_bits.clone(),
                }
                .apply(&mut chip)?;
                enroll(&mut chips, class::CLONE, chip);
            }
        }
        for _ in 0..self.rebranded {
            let id = chips.len() as u64;
            let chip = Chip::fresh(Msp430Variant::F5529, chip_seed(id), Provenance::Rebranded);
            enroll(&mut chips, class::REBRANDED, chip);
        }
        Ok(Population { chips })
    }
}

/// Enrolls `chip` as the next identity of `chips`, once die sort and its
/// first life are done with it. The chip keeps only its wear: its statics
/// are shed, and a request's copy that computes on a segment derives them
/// again.
fn enroll(chips: &mut Vec<EnrolledChip>, class: &'static str, mut chip: Chip) {
    chip.flash.shed_statics();
    chips.push(EnrolledChip {
        chip_id: chips.len() as u64,
        class,
        chip,
    });
}

/// The enrolled population, indexed by `chip_id`.
#[derive(Debug, Clone)]
pub struct Population {
    chips: Vec<EnrolledChip>,
}

impl Population {
    /// Number of enrolled chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// True when nothing is enrolled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The enrolled chip with identity `chip_id`, if any.
    #[must_use]
    pub fn get(&self, chip_id: u64) -> Option<&EnrolledChip> {
        self.chips.get(chip_id as usize)
    }

    /// All enrolled chips in `chip_id` order.
    #[must_use]
    pub fn chips(&self) -> &[EnrolledChip] {
        &self.chips
    }

    /// Chips per class label, in `chip_id` order.
    #[must_use]
    pub fn class_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for c in &self.chips {
            *counts.entry(c.class).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_core::{FlashmarkConfig, StressDetector};
    use flashmark_nor::interface::FlashInterface;

    fn config() -> FlashmarkConfig {
        FlashmarkConfig::builder()
            .n_pe(60_000)
            .replicas(5)
            .reads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn tiny_population_enrolls_every_class() {
        let spec = PopulationSpec::tiny(0xF0F0);
        let pop = spec.build(&config(), 0x7C01).unwrap();
        assert_eq!(pop.len(), spec.total());
        let counts = pop.class_counts();
        assert_eq!(
            counts,
            vec![
                (class::CLONE, 1),
                (class::FALLOUT, 1),
                (class::GENUINE, 2),
                (class::REBRANDED, 1),
                (class::RECYCLED, 1),
            ]
        );
        // Identities are dense and match positions.
        for (i, c) in pop.chips().iter().enumerate() {
            assert_eq!(c.chip_id, i as u64);
        }
    }

    #[test]
    fn screening_gives_up_when_no_record_decodes() {
        // Too few imprint cycles for one read to resolve the mark.
        let weak = FlashmarkConfig::builder()
            .n_pe(1_000)
            .replicas(5)
            .reads(1)
            .build()
            .unwrap();
        let spec = PopulationSpec {
            genuine: 1,
            fallout: 0,
            recycled: 0,
            clones: 0,
            rebranded: 0,
            ..PopulationSpec::tiny(0x5C12)
        };
        let built = spec.build(&weak, 0x7C01);
        assert!(matches!(built, Err(CoreError::Config(_))));
    }

    /// A produced chip, and one a first life wore, verify and probe when
    /// shed exactly as when not: the same reports and the same `elapsed`
    /// bits, probing a fresh segment and then a worn one. The two sides
    /// are built apart, so neither follows a journal the other recorded:
    /// the shed side computes, deriving its statics again.
    #[test]
    fn shed_chips_verify_and_probe_as_unshed_ones_do() {
        let (worn, fresh) = (SegmentAddr::new(4), SegmentAddr::new(20));
        let build = |field_use: bool| {
            let mut maker = Manufacturer::new(0x7C01, Msp430Variant::F5438, config());
            let mut chip = maker.produce(0x5EED_0001, TestStatus::Accept).unwrap();
            if field_use {
                simulate_field_use(&mut chip, worn, 40_000).unwrap();
            }
            chip
        };
        let verifier = Verifier::new(config(), 0x7C01);
        let detector = StressDetector::fig5();
        let inspect = |chip: &Chip, probe: SegmentAddr| {
            let mut flash = chip.flash.clone();
            let seg = flash.watermark_segment();
            let report = verifier.verify(&mut flash, seg).unwrap();
            let probed = detector.classify(&mut flash, probe).unwrap();
            (report, probed, flash.elapsed().get().to_bits())
        };
        for field_use in [false, true] {
            let (unshed, mut shed) = (build(field_use), build(field_use));
            shed.flash.shed_statics();
            for probe in [fresh, worn] {
                assert_eq!(
                    inspect(&shed, probe),
                    inspect(&unshed, probe),
                    "field use {field_use}, probe of segment {}",
                    probe.index()
                );
            }
        }
    }

    #[test]
    fn population_is_a_pure_function_of_the_spec() {
        let a = PopulationSpec::tiny(7).build(&config(), 0x7C01).unwrap();
        let b = PopulationSpec::tiny(7).build(&config(), 0x7C01).unwrap();
        for (x, y) in a.chips().iter().zip(b.chips()) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.chip.provenance, y.chip.provenance);
        }
    }
}
