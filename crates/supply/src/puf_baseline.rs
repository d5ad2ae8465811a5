//! PUF-based anti-counterfeiting baseline (paper refs \[13\]–\[15\]).
//!
//! The paper argues Flashmark beats PUF-based schemes because PUFs "require
//! lengthy PUF extraction as well as maintenance of large databases with
//! entries for every manufactured chip" plus a round trip to the
//! manufacturer per verification. This module implements that baseline so
//! the comparison is concrete:
//!
//! * the fingerprint is the partial-erase response pattern of a *fresh*
//!   segment (à la Wang et al. \[15\]: process variation decides which cells
//!   flip first) — unique per chip, no imprinting needed;
//! * enrollment stores one fingerprint per die in [`PufDatabase`];
//! * verification re-extracts and matches by Hamming distance.
//!
//! What the demo shows: the PUF *does* identify genuine enrolled chips and
//! *does* expose clones (fresh silicon has a different fingerprint), but it
//! cannot mark accept/reject status, needs the database for every check —
//! and a recycled chip still matches its own enrollment, so recycling slips
//! through entirely.

use flashmark_core::CoreError;
use flashmark_nor::interface::{FlashInterface, FlashInterfaceExt};
use flashmark_nor::SegmentAddr;
use flashmark_physics::Micros;

use flashmark_core::analyze_segment;

/// A chip fingerprint: the partial-erase flip pattern of a fresh segment,
/// majority-voted over several extraction rounds, with a mask of the cells
/// that responded unanimously (pulse jitter makes boundary cells flicker,
/// so they are excluded — the standard PUF "stable cell" selection, and the
/// reason PUF extraction is lengthy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PufFingerprint {
    bits: Vec<bool>,
    stable: Vec<bool>,
}

impl PufFingerprint {
    /// The majority-voted response bits.
    #[must_use]
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Fraction of cells that were stable during extraction.
    #[must_use]
    pub fn stable_fraction(&self) -> f64 {
        self.stable.iter().filter(|&&s| s).count() as f64 / self.stable.len().max(1) as f64
    }

    /// Fractional Hamming distance over the cells *both* fingerprints call
    /// stable.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn distance(&self, other: &Self) -> f64 {
        assert_eq!(
            self.bits.len(),
            other.bits.len(),
            "fingerprint lengths differ"
        );
        let mut compared = 0usize;
        let mut differing = 0usize;
        for i in 0..self.bits.len() {
            if self.stable[i] && other.stable[i] {
                compared += 1;
                differing += usize::from(self.bits[i] != other.bits[i]);
            }
        }
        if compared == 0 {
            return 1.0;
        }
        differing as f64 / compared as f64
    }
}

/// Extracts the PUF response of `seg` at challenge time `t_challenge`
/// (which should sit mid-transition for fresh cells, ~the fresh median),
/// repeated over `rounds` to build the stable-cell mask.
///
/// # Errors
///
/// Flash errors, or [`CoreError::Config`] if `rounds` is zero.
pub fn extract_fingerprint<F: FlashInterface>(
    flash: &mut F,
    seg: SegmentAddr,
    t_challenge: Micros,
    rounds: usize,
) -> Result<PufFingerprint, CoreError> {
    if rounds == 0 {
        return Err(CoreError::Config("puf extraction needs at least one round"));
    }
    let cells = flash.geometry().cells_per_segment();
    let mut ones = vec![0usize; cells];
    for _ in 0..rounds {
        flash.erase_segment(seg)?;
        flash.program_all_zero(seg)?;
        flash.partial_erase(seg, t_challenge)?;
        let round = analyze_segment(flash, seg, 1)?;
        for (count, bit) in ones.iter_mut().zip(round) {
            *count += usize::from(bit);
        }
    }
    flash.erase_segment(seg)?;
    let bits = ones.iter().map(|&c| 2 * c > rounds).collect();
    let stable = ones.iter().map(|&c| c == 0 || c == rounds).collect();
    Ok(PufFingerprint { bits, stable })
}

/// The manufacturer-side enrollment database the paper criticizes: one
/// entry per manufactured die.
#[derive(Debug, Clone, Default)]
pub struct PufDatabase {
    entries: Vec<(u64, PufFingerprint)>,
}

/// Outcome of a database match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PufMatch {
    /// The die the fingerprint matched.
    pub die_id: u64,
    /// Fractional distance to that enrollment.
    pub distance: f64,
}

impl PufDatabase {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls a die.
    pub fn enroll(&mut self, die_id: u64, fingerprint: PufFingerprint) {
        self.entries.push((die_id, fingerprint));
    }

    /// Entries stored (the maintenance burden grows with every die sold).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Storage burden in bytes (one response bit per cell per die).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, fp)| fp.bits.len() / 8 + 8)
            .sum()
    }

    /// Finds the closest enrollment under `threshold` fractional distance.
    #[must_use]
    pub fn identify(&self, fingerprint: &PufFingerprint, threshold: f64) -> Option<PufMatch> {
        self.entries
            .iter()
            .map(|(die, fp)| PufMatch {
                die_id: *die,
                distance: fp.distance(fingerprint),
            })
            .filter(|m| m.distance <= threshold)
            .min_by(|a, b| a.distance.total_cmp(&b.distance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_msp430::Msp430Flash;

    const T_CHALLENGE: Micros = Micros::new(20.0);
    const SEG: u32 = 40;

    const ROUNDS: usize = 9;

    fn fingerprint_of(seed: u64) -> PufFingerprint {
        let mut chip = Msp430Flash::f5438(seed);
        extract_fingerprint(&mut chip, SegmentAddr::new(SEG), T_CHALLENGE, ROUNDS).unwrap()
    }

    #[test]
    fn same_chip_reproduces_its_fingerprint() {
        let mut chip = Msp430Flash::f5438(0x9F1);
        let a = extract_fingerprint(&mut chip, SegmentAddr::new(SEG), T_CHALLENGE, ROUNDS).unwrap();
        let b = extract_fingerprint(&mut chip, SegmentAddr::new(SEG), T_CHALLENGE, ROUNDS).unwrap();
        assert!(
            a.distance(&b) < 0.10,
            "intra-chip distance {}",
            a.distance(&b)
        );
        assert!(
            a.stable_fraction() > 0.3,
            "stable fraction {}",
            a.stable_fraction()
        );
    }

    #[test]
    fn different_chips_have_distant_fingerprints() {
        let a = fingerprint_of(0x9F2);
        let b = fingerprint_of(0x9F3);
        assert!(
            a.distance(&b) > 0.25,
            "inter-chip distance {}",
            a.distance(&b)
        );
    }

    #[test]
    fn database_identifies_enrolled_chips() {
        let mut db = PufDatabase::new();
        for die in 0..6u64 {
            db.enroll(die, fingerprint_of(0xE000 + die));
        }
        assert_eq!(db.len(), 6);
        assert!(db.storage_bytes() >= 6 * 512);

        // Re-extract die 3 and identify it.
        let probe = fingerprint_of(0xE003);
        let m = db.identify(&probe, 0.12).expect("enrolled chip must match");
        assert_eq!(m.die_id, 3);

        // A clone (different silicon) matches nothing.
        let clone = fingerprint_of(0xFFFF);
        assert!(db.identify(&clone, 0.12).is_none());
    }

    #[test]
    fn puf_baseline_misses_recycling() {
        // The gap the paper highlights: a recycled chip still matches its
        // own enrollment — the PUF says "genuine die", not "unused die".
        use flashmark_nor::interface::BulkStress;
        use flashmark_nor::interface::ImprintTiming;

        let mut chip = Msp430Flash::f5438(0x9F9);
        let enrolled =
            extract_fingerprint(&mut chip, SegmentAddr::new(SEG), T_CHALLENGE, ROUNDS).unwrap();
        let mut db = PufDatabase::new();
        db.enroll(1, enrolled);

        // First life wears OTHER segments heavily; the PUF segment is kept
        // fresh (as a real deployment would).
        chip.bulk_imprint(
            SegmentAddr::new(8),
            &vec![0u16; 256],
            40_000,
            ImprintTiming::Baseline,
        )
        .unwrap();
        let after_use =
            extract_fingerprint(&mut chip, SegmentAddr::new(SEG), T_CHALLENGE, ROUNDS).unwrap();
        let m = db.identify(&after_use, 0.12);
        assert!(m.is_some(), "recycled chip still passes the PUF check");
    }
}
