//! Intrinsic NAND PUF mode: watermark-free counterfeit detection.
//!
//! NOR and ReRAM carry an *extrinsic* watermark deposited by wear. NAND
//! offers a third road the related work (Prabhu et al., "Extracting Device
//! Fingerprints from Flash Memory by Exploiting Physical Variations")
//! maps out: the die's **intrinsic** process variation is already a
//! fingerprint, no imprint required. A partial-program pulse around half
//! the nominal program time leaves each cell's threshold wherever its
//! intrinsic program speed put it — fast cells read 0, slow cells read 1 —
//! and that bit pattern is stable per die but different between dies.
//!
//! [`NandPuf`] turns the fingerprint into the same accept/reject
//! vocabulary the wear schemes use, via a **fuzzy commitment**: at
//! enrollment the signed [`WatermarkRecord`] is encoded with an extended
//! Hamming(16,11) code and XOR-masked with the fingerprint, producing
//! public helper data. Enrollment also applies the PUF literature's
//! *dark-bit masking*: cells whose senses were not unanimous (those whose
//! threshold landed within read noise of the reference) are excluded, and
//! the mask of selected cells ships with the helper — both are public;
//! neither reveals the fingerprint. Verification re-measures the masked
//! cells, unmasks the codeword, and decodes: on the enrolled die the few
//! remaining unstable bits are corrected block-by-block and the record's
//! CRC and manufacturer check out; on any other die the unmasked word is
//! noise, nearly every block shows channel errors, and the chip is
//! rejected — without the inspector ever holding a fingerprint database.
//! A die that clears the foreign threshold but still carries
//! uncorrectable blocks yields
//! [`InconclusiveReason::FuzzyMatchMarginal`] rather than a guess.

use flashmark_core::scheme::{ImprintCost, SchemeError, SchemeVerification, WatermarkScheme};
use flashmark_core::verify::{CounterfeitReason, InconclusiveReason, Verdict};
use flashmark_core::watermark::{TestStatus, Watermark, WatermarkRecord, RECORD_BITS};
use flashmark_ecc::{Code, Hamming};
use flashmark_physics::Micros;

use crate::chip::{NandChip, NandError};
use crate::geometry::{BlockAddr, PageAddr};

/// The scheme name ([`WatermarkScheme::name`]), also the tag of its errors.
const NAME: &str = "nand_puf";

impl From<NandError> for SchemeError {
    fn from(e: NandError) -> Self {
        SchemeError::Backend {
            scheme: NAME,
            message: e.to_string(),
        }
    }
}

// The PUF's one operating point.

/// Partial-program pulse duration. Around `0.37 ×` the nominal program
/// time (the fraction of the threshold span below the read reference), so
/// roughly half the cells cross — maximum-entropy fingerprint.
pub const T_PP: Micros = Micros::new(16.5);
/// Page reads per measurement; each fingerprint cell is the majority over
/// this many senses (odd; suppresses read noise). Enrollment keeps only
/// cells whose senses are *unanimous* (dark-bit masking).
pub const READS: u32 = 7;
/// Independent erase/partial-program rounds at enrollment. Read noise
/// varies within a round, but cycle-to-cycle *program* noise only shows
/// between rounds: a cell whose intrinsic speed sits near the pulse
/// boundary reads unanimously in one round and flips in the next. Masking
/// over several rounds excludes those cells too.
pub const ENROLL_ROUNDS: u32 = 3;
/// Selected cells per fingerprint bit (odd; a second majority over
/// disjoint cells suppresses residual near-threshold instability).
pub const CELLS_PER_BIT: u32 = 3;
/// Accept when at most this fraction of code blocks carries more errors
/// than the code corrects (uncorrectable blocks would corrupt the decoded
/// record, so this allows none in a record-sized helper).
const ACCEPT_FRAC: f64 = 0.05;
/// Reject when at least this fraction of code blocks shows *any* channel
/// error (corrected or uncorrectable). On the enrolled die nearly every
/// block decodes untouched; on a foreign die the unmasked word is noise
/// and ~31/32 of blocks are touched, so the two populations are far apart
/// even for short records. More uncorrectable blocks than [`ACCEPT_FRAC`]
/// but fewer touched blocks than this is marginal (inconclusive).
const REJECT_FRAC: f64 = 0.5;

/// Parameters of a NAND PUF campaign: the fingerprint block, and the
/// identity the inspector expects.
#[derive(Debug, Clone, PartialEq)]
pub struct NandPufParams {
    /// The block whose process variation is the fingerprint.
    pub block: BlockAddr,
    /// Manufacturer ID the inspector expects in the record.
    pub manufacturer_id: u16,
    /// The record the manufacturer binds to the die at enrollment.
    pub record: WatermarkRecord,
}

/// PUF enrollment: the record plus the public helper data (stable-cell
/// mask and masked codeword). The reference fingerprint is kept for the
/// mismatch diagnostic only; verification needs just the helper.
#[derive(Debug, Clone, PartialEq)]
pub struct NandPufEnrollment {
    /// The die-sort record (identity, grade, status, CRC-16).
    pub record: WatermarkRecord,
    /// Dark-bit mask: block cell indices whose enrollment senses were
    /// unanimous, `cells_per_bit` per fingerprint bit.
    pub mask: Vec<u32>,
    /// Fuzzy-commitment helper data: `encode(record) XOR fingerprint`.
    pub helper: Vec<bool>,
    /// The enrollment-time fingerprint.
    pub reference: Vec<bool>,
}

/// The intrinsic NAND PUF behind the [`WatermarkScheme`] facade.
#[derive(Debug, Clone, Copy, Default)]
pub struct NandPuf;

fn code() -> Hamming {
    Hamming::extended()
}

/// Per-cell zero-vote counts over [`READS`] senses of a freshly
/// partial-programmed block (erase, one pulse, repeated page reads,
/// cleanup erase). Deterministic given the chip state — all noise flows
/// from the chip's op RNG.
fn measure_votes(chip: &mut NandChip, block: BlockAddr) -> Result<Vec<u32>, NandError> {
    chip.erase_block(block)?;
    chip.partial_program_block(block, T_PP)?;
    let geometry = chip.geometry();
    let cells_per_page = geometry.cells_per_page();
    let pages = geometry.pages_per_block() as usize;
    let mut zero_votes = vec![0u32; geometry.cells_per_block()];
    for _ in 0..READS {
        for p in 0..pages {
            let data = chip.read_page(PageAddr::new(block, p as u32))?;
            for (i, byte) in data.iter().enumerate() {
                for bit in 0..8 {
                    if byte & (1 << bit) == 0 {
                        zero_votes[p * cells_per_page + i * 8 + bit] += 1;
                    }
                }
            }
        }
    }
    chip.erase_block(block)?;
    Ok(zero_votes)
}

/// Condenses masked cell votes into fingerprint bits: majority of
/// `senses` votes per cell, then majority over each [`CELLS_PER_BIT`]
/// group.
fn fingerprint_from_votes(votes: &[u32], mask: &[u32], senses: u32) -> Vec<bool> {
    let group = CELLS_PER_BIT as usize;
    let cell_threshold = senses / 2;
    mask.chunks(group)
        .map(|cells| {
            let fast = cells
                .iter()
                .filter(|&&c| votes[c as usize] > cell_threshold)
                .count();
            fast * 2 > group
        })
        .collect()
}

/// Re-measures the enrolled fingerprint: fresh votes over the block,
/// condensed through the enrollment's dark-bit mask.
fn read_fingerprint(
    chip: &mut NandChip,
    params: &NandPufParams,
    enrollment: &NandPufEnrollment,
) -> Result<Vec<bool>, SchemeError> {
    let votes = measure_votes(chip, params.block)?;
    if enrollment.mask.iter().any(|&c| c as usize >= votes.len()) {
        return Err(SchemeError::Config(
            "helper mask addresses cells outside the fingerprint block",
        ));
    }
    Ok(fingerprint_from_votes(&votes, &enrollment.mask, READS))
}

impl WatermarkScheme for NandPuf {
    type Chip = NandChip;
    type Params = NandPufParams;
    type Enrollment = NandPufEnrollment;

    fn name(&self) -> &'static str {
        NAME
    }

    fn imprints(&self) -> bool {
        false
    }

    fn enroll(
        &self,
        chip: &mut NandChip,
        params: &NandPufParams,
    ) -> Result<NandPufEnrollment, SchemeError> {
        // Dark-bit masking over several independent erase/program rounds:
        // only cells whose senses were unanimous across *every* round
        // carry fingerprint bits. A single round filters read noise;
        // extra rounds also filter cells that cycle-to-cycle program
        // noise lands on opposite sides of the read reference.
        let mut votes = measure_votes(chip, params.block)?;
        for _ in 1..ENROLL_ROUNDS {
            let round = measure_votes(chip, params.block)?;
            for (total, v) in votes.iter_mut().zip(round) {
                *total += v;
            }
        }
        let senses = READS * ENROLL_ROUNDS;
        let channel_bits = code().encoded_len(RECORD_BITS);
        let cells_needed = channel_bits * CELLS_PER_BIT as usize;
        let mask: Vec<u32> = votes
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 0 || v == senses)
            .map(|(i, _)| i as u32)
            .take(cells_needed)
            .collect();
        if mask.len() < cells_needed {
            return Err(SchemeError::Config(
                "not enough read-stable cells in the block for the fingerprint",
            ));
        }
        let reference = fingerprint_from_votes(&votes, &mask, senses);
        let codeword = code().encode(params.record.to_watermark().bits());
        debug_assert_eq!(codeword.len(), reference.len());
        let helper = codeword
            .iter()
            .zip(reference.iter())
            .map(|(&c, &w)| c ^ w)
            .collect();
        Ok(NandPufEnrollment {
            record: params.record,
            mask,
            helper,
            reference,
        })
    }

    fn imprint(
        &self,
        _chip: &mut NandChip,
        _params: &NandPufParams,
        _enrollment: &NandPufEnrollment,
    ) -> Result<ImprintCost, SchemeError> {
        // Intrinsic scheme: the fingerprint is the silicon itself.
        Ok(ImprintCost::free())
    }

    fn verify(
        &self,
        chip: &mut NandChip,
        params: &NandPufParams,
        enrollment: &NandPufEnrollment,
    ) -> Result<SchemeVerification, SchemeError> {
        let fingerprint = read_fingerprint(chip, params, enrollment)?;
        let mismatch = (fingerprint.len() == enrollment.reference.len()).then(|| {
            let differing = fingerprint
                .iter()
                .zip(enrollment.reference.iter())
                .filter(|(a, b)| a != b)
                .count();
            differing as f64 / enrollment.reference.len() as f64
        });
        if fingerprint.len() != enrollment.helper.len() {
            return Err(SchemeError::Config(
                "helper data does not match the fingerprint geometry",
            ));
        }
        // Unmask: on the enrolled die this is the enrollment codeword plus
        // a few unstable bits; on any other die it is noise.
        let received: Vec<bool> = fingerprint
            .iter()
            .zip(enrollment.helper.iter())
            .map(|(&w, &d)| w ^ d)
            .collect();
        let h = code();
        let block_bits = h.encoded_len(1);
        // Two block statistics with very different separations: blocks the
        // decoder had to touch at all (corrected or uncorrectable — the
        // foreign-die discriminator, since random noise lands on a clean
        // codeword only 1 time in 32) and blocks beyond correction (which
        // would corrupt the decoded record, so any of them blocks accept).
        let mut bad_blocks = 0usize;
        let mut touched_blocks = 0usize;
        let mut data = Vec::with_capacity(RECORD_BITS);
        for chunk in received.chunks(block_bits) {
            if let Ok(decoded) = h.decode(chunk) {
                if decoded.detected_uncorrectable {
                    bad_blocks += 1;
                    touched_blocks += 1;
                } else if decoded.corrected > 0 {
                    touched_blocks += 1;
                }
                data.extend_from_slice(&decoded.data);
            } else {
                bad_blocks += 1;
                touched_blocks += 1;
            }
        }
        let blocks = (received.len() / block_bits) as f64;
        let frac_bad = bad_blocks as f64 / blocks;
        let frac_touched = touched_blocks as f64 / blocks;
        let verdict = if frac_touched >= REJECT_FRAC {
            // The unmasked word is noise: this is not the enrolled die.
            Verdict::Counterfeit(CounterfeitReason::NoWatermark)
        } else if frac_bad > ACCEPT_FRAC {
            Verdict::Inconclusive(InconclusiveReason::FuzzyMatchMarginal)
        } else {
            data.truncate(RECORD_BITS);
            match Watermark::from_bits(data).and_then(|wm| WatermarkRecord::from_watermark(&wm)) {
                Ok(record) if record.manufacturer_id != params.manufacturer_id => {
                    Verdict::Counterfeit(CounterfeitReason::WrongManufacturer {
                        found: record.manufacturer_id,
                    })
                }
                Ok(record) if record.status == TestStatus::Reject => {
                    Verdict::Counterfeit(CounterfeitReason::RejectedDie)
                }
                Ok(_) => Verdict::Genuine,
                // Enough silent miscorrections to break the CRC.
                Err(_) => Verdict::Counterfeit(CounterfeitReason::SignatureMismatch),
            }
        };
        Ok(SchemeVerification {
            verdict,
            resolution: "fuzzy_match",
            mismatch,
        })
    }

    fn wear_estimate(&self, chip: &mut NandChip, params: &NandPufParams) -> f64 {
        chip.mean_wear(params.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NandGeometry;

    fn chip(seed: u64) -> NandChip {
        NandChip::new(NandGeometry::tiny(), seed)
    }

    fn params(manufacturer_id: u16, status: TestStatus) -> NandPufParams {
        NandPufParams {
            block: BlockAddr::new(0),
            manufacturer_id,
            record: WatermarkRecord {
                manufacturer_id,
                die_id: 77,
                speed_grade: 3,
                status,
                year_week: 2032,
            },
        }
    }

    #[test]
    fn fingerprint_is_reproducible_on_the_same_die() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Accept);
        let mut c = chip(201);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let mismatch = scheme.verify(&mut c, &p, &enrollment).unwrap().mismatch;
        let mismatch = mismatch.unwrap();
        assert!(mismatch < 0.03, "intra-die mismatch {mismatch}");
    }

    #[test]
    fn fingerprints_differ_between_dies() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Accept);
        let enrollment = scheme.enroll(&mut chip(202), &p).unwrap();
        let mismatch = scheme
            .verify(&mut chip(203), &p, &enrollment)
            .unwrap()
            .mismatch;
        let mismatch = mismatch.unwrap();
        assert!(
            (0.3..=0.7).contains(&mismatch),
            "inter-die mismatch {mismatch}"
        );
    }

    #[test]
    fn enrolled_die_verifies_genuine() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Accept);
        let mut c = chip(204);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let v = scheme.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(v.verdict, Verdict::Genuine, "mismatch {:?}", v.mismatch);
        assert_eq!(v.resolution, "fuzzy_match");
    }

    #[test]
    fn foreign_die_rejects() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Accept);
        let enrollment = scheme.enroll(&mut chip(205), &p).unwrap();
        let v = scheme.verify(&mut chip(206), &p, &enrollment).unwrap();
        assert!(
            matches!(v.verdict, Verdict::Counterfeit(_)),
            "verdict {:?}",
            v.verdict
        );
    }

    #[test]
    fn rejected_die_status_is_reported() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Reject);
        let mut c = chip(207);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let v = scheme.verify(&mut c, &p, &enrollment).unwrap();
        assert_eq!(
            v.verdict,
            Verdict::Counterfeit(CounterfeitReason::RejectedDie)
        );
    }

    #[test]
    fn wrong_manufacturer_is_reported() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Accept);
        let mut c = chip(208);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let mut inspector = p.clone();
        inspector.manufacturer_id = 0x9999;
        let v = scheme.verify(&mut c, &inspector, &enrollment).unwrap();
        assert_eq!(
            v.verdict,
            Verdict::Counterfeit(CounterfeitReason::WrongManufacturer { found: 0x4004 })
        );
    }

    #[test]
    fn scheme_is_intrinsic() {
        let scheme = NandPuf;
        assert_eq!(scheme.name(), "nand_puf");
        assert!(!scheme.imprints());
        let p = params(0x4004, TestStatus::Accept);
        let mut c = chip(209);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let cost = scheme.imprint(&mut c, &p, &enrollment).unwrap();
        assert_eq!(cost.cycles, 0);
    }

    #[test]
    fn mask_cells_are_unique_and_in_range() {
        let scheme = NandPuf;
        let p = params(0x4004, TestStatus::Accept);
        let mut c = chip(210);
        let enrollment = scheme.enroll(&mut c, &p).unwrap();
        let total = c.geometry().cells_per_block() as u32;
        let mut seen = std::collections::BTreeSet::new();
        for &cell in &enrollment.mask {
            assert!(cell < total);
            assert!(seen.insert(cell), "cell {cell} repeated in mask");
        }
    }
}
