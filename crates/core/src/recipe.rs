//! The manufacturer's published extraction recipe, derived from family
//! characterization.
//!
//! The paper (Section IV): the extraction time window "is determined by the
//! manufacturer using the characterization process described in Section III
//! for each family of devices and can be publicly communicated to system
//! integrators." This module is that workflow: characterize several sample
//! chips, verify they behave consistently (Section V notes "flash memories
//! within the same family show consistent behavior"), intersect their usable
//! windows, and emit the [`ExtractionRecipe`] the verifier ships with.

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::SegmentAddr;
use flashmark_physics::Micros;

use crate::characterize::{characterize_segment, SweepSpec};
use crate::error::CoreError;
use crate::window::{select_t_pew, WindowChoice};

/// The publicly communicated extraction parameters for a device family.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionRecipe {
    /// Recommended partial-erase time.
    pub t_pew: Micros,
    /// Usable window (intersection across sample chips).
    pub window_lo: Micros,
    /// See `window_lo`.
    pub window_hi: Micros,
    /// Replica count the manufacturer imprints.
    pub replicas: usize,
    /// Reads per word during analysis.
    pub reads: usize,
}

/// Per-chip and family-level characterization results.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyCharacterization {
    /// The derived public recipe.
    pub recipe: ExtractionRecipe,
    /// Each sample chip's individual window.
    pub per_chip: Vec<WindowChoice>,
}

impl FamilyCharacterization {
    /// Spread (µs) of the per-chip optimal times — a consistency metric for
    /// the family ("chips within the family behave consistently").
    #[must_use]
    pub fn optimum_spread(&self) -> Micros {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for w in &self.per_chip {
            lo = lo.min(w.t_pew.get());
            hi = hi.max(w.t_pew.get());
        }
        if self.per_chip.is_empty() {
            Micros::new(0.0)
        } else {
            Micros::new(hi - lo)
        }
    }
}

/// The per-chip half of family characterization: stress `scratch_seg`
/// by `reference_stress_kcycles`, characterize it and the untouched
/// `fresh_seg`, and select this chip's window (with `window_slack` cells of
/// tolerance). Each chip is independent, so callers may run this stage on
/// sample chips in parallel and pass the windows, in chip order, to
/// [`fuse_windows`].
///
/// # Errors
///
/// Flash/configuration errors.
pub fn characterize_sample<F: FlashInterface + BulkStress>(
    chip: &mut F,
    fresh_seg: SegmentAddr,
    scratch_seg: SegmentAddr,
    reference_stress_kcycles: f64,
    sweep: &SweepSpec,
    window_slack: usize,
    reads: usize,
) -> Result<WindowChoice, CoreError> {
    let words = chip.geometry().words_per_segment();
    chip.bulk_imprint(
        scratch_seg,
        &vec![0u16; words],
        (reference_stress_kcycles * 1000.0) as u64,
        ImprintTiming::Accelerated,
    )?;
    chip.erase_segment(scratch_seg)?;
    let fresh = characterize_segment(chip, fresh_seg, sweep, reads)?;
    let worn = characterize_segment(chip, scratch_seg, sweep, reads)?;
    select_t_pew(&fresh, &worn, window_slack)
}

/// The fusion half of family characterization: the recipe window is the
/// intersection of every chip's window, and `t_pew` is the mean of the
/// per-chip optima clamped into it.
///
/// # Errors
///
/// [`CoreError::Config`] when `per_chip` is empty or the windows do not
/// overlap (an inconsistent family, which must not be papered over).
pub fn fuse_windows(
    per_chip: Vec<WindowChoice>,
    replicas: usize,
    reads: usize,
) -> Result<FamilyCharacterization, CoreError> {
    if per_chip.is_empty() {
        return Err(CoreError::Config(
            "family characterization needs at least one sample chip",
        ));
    }
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    let mut sum = 0.0;
    for w in &per_chip {
        lo = lo.max(w.window_lo.get());
        hi = hi.min(w.window_hi.get());
        sum += w.t_pew.get();
    }
    if lo > hi {
        return Err(CoreError::Config(
            "sample chips' extraction windows do not overlap",
        ));
    }
    let t_pew = Micros::new((sum / per_chip.len() as f64).clamp(lo, hi));

    Ok(FamilyCharacterization {
        recipe: ExtractionRecipe {
            t_pew,
            window_lo: Micros::new(lo),
            window_hi: Micros::new(hi),
            replicas,
            reads,
        },
        per_chip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings};
    use flashmark_physics::PhysicsParams;

    fn samples(n: u64) -> Vec<FlashController> {
        (0..n)
            .map(|i| {
                FlashController::new(
                    PhysicsParams::msp430_like(),
                    FlashGeometry::single_bank(4),
                    FlashTimings::msp430(),
                    0xFA_0000 + i,
                )
            })
            .collect()
    }

    fn sweep() -> SweepSpec {
        SweepSpec::new(Micros::new(14.0), Micros::new(50.0), Micros::new(2.0)).unwrap()
    }

    #[test]
    fn family_of_three_yields_consistent_recipe() {
        let per_chip = samples(3)
            .iter_mut()
            .map(|chip| {
                characterize_sample(
                    chip,
                    SegmentAddr::new(0),
                    SegmentAddr::new(1),
                    50.0,
                    &sweep(),
                    260,
                    3,
                )
                .unwrap()
            })
            .collect();
        let fam = fuse_windows(per_chip, 7, 3).unwrap();
        assert_eq!(fam.per_chip.len(), 3);
        // The paper's observed family consistency: optima within a few µs.
        assert!(
            fam.optimum_spread().get() <= 8.0,
            "spread {}",
            fam.optimum_spread()
        );
        for w in &fam.per_chip {
            assert!(w.separation() > 0.8, "separation {}", w.separation());
        }
        let r = &fam.recipe;
        assert!(r.window_lo.get() <= r.t_pew.get() && r.t_pew.get() <= r.window_hi.get());
        assert_eq!(r.replicas, 7);
    }

    #[test]
    fn empty_family_rejected() {
        assert!(matches!(
            fuse_windows(Vec::new(), 7, 3),
            Err(CoreError::Config(_))
        ));
    }
}
