//! End-to-end chip verification — the system integrator's workflow.
//!
//! The integrator knows only the public extraction recipe (`tPEW`, replica
//! count, record format, the expected manufacturer ID); no chip database and
//! no contact with the manufacturer is needed (the paper's advantage over
//! PUF-based schemes). [`Verifier::verify`] extracts the watermark record
//! and classifies the chip:
//!
//! * a valid record with `Accept` status and the right manufacturer →
//!   [`Verdict::Genuine`];
//! * a valid record with `Reject` status → a fall-out die smuggled back into
//!   the chain → [`Verdict::Counterfeit`];
//! * no wear watermark at all (blank or different-vendor silicon) →
//!   [`Verdict::Counterfeit`] with [`CounterfeitReason::NoWatermark`];
//! * a wear pattern whose signature fails → tampering or heavy damage →
//!   [`Verdict::Counterfeit`] with [`CounterfeitReason::SignatureMismatch`].
//!
//! [`Verifier::verify_resilient`] is the field-hardened variant: it retries
//! transient interface errors with a bounded budget, falls back to
//! re-characterizing the segment when the partial-erase window has drifted,
//! and degrades to [`Verdict::Inconclusive`] (never a hard error, never a
//! false Genuine) when faults persist.

use std::fmt;
use std::ops::ControlFlow;

use flashmark_ecc::bytes_from_bits;
use flashmark_ecc::crc::crc16;
use flashmark_nor::interface::FlashInterface;
use flashmark_nor::SegmentAddr;
use flashmark_obs as obs;
use flashmark_obs::ObsEvent;
use flashmark_physics::Micros;

use crate::characterize::{characterize_segment, SweepSpec};
use crate::config::FlashmarkConfig;
use crate::error::CoreError;
use crate::extract::{Extraction, Extractor};
use crate::watermark::{TestStatus, Watermark, WatermarkRecord, RECORD_BITS, RECORD_BYTES};

/// Why a chip was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterfeitReason {
    /// No wear watermark is present (blank, cloned, or re-marked silicon).
    NoWatermark,
    /// A watermark is present but its CRC signature fails (tampering or
    /// damage).
    SignatureMismatch,
    /// The record decodes but carries a `Reject` die-sort status.
    RejectedDie,
    /// The record decodes but names a different manufacturer.
    WrongManufacturer {
        /// Manufacturer ID found in the record.
        found: u16,
    },
}

/// Why a verification could not reach a verdict.
///
/// Inconclusive is a *graceful degradation* of
/// [`Verifier::verify_resilient`]: instead of surfacing infrastructure
/// faults (flaky cabling, brown-outs) as hard errors, the verifier reports
/// that the chip could not be judged and should be re-inspected. An
/// inconclusive chip must **never** be treated as genuine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InconclusiveReason {
    /// Transient interface faults persisted past the bounded retry budget.
    TransientFaults,
    /// The extraction window drifted and re-characterizing the segment
    /// failed, so no usable partial-erase time could be derived.
    RecharacterizationFailed,
    /// A fuzzy fingerprint match landed between the accept and reject
    /// thresholds (intrinsic PUF schemes): too noisy to accept, too close
    /// to the enrollment to reject. Re-measure the chip.
    FuzzyMatchMarginal,
}

impl fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TransientFaults => {
                write!(f, "transient faults persisted past the retry budget")
            }
            Self::RecharacterizationFailed => write!(
                f,
                "the extraction window drifted and re-characterization faulted"
            ),
            Self::FuzzyMatchMarginal => write!(
                f,
                "fuzzy fingerprint distance fell between the accept and reject thresholds"
            ),
        }
    }
}

/// Which strategy settled a verification — the rung of the retry ladder
/// that decoded, the re-characterization fallback, or the failure mode that
/// forced the verdict. Carries the winning operating point, so it lives on
/// the [`VerificationReport`] (not inside [`Verdict`], which stays `Eq`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Resolution {
    /// A rung of the published `tPEW` retry ladder decoded (offset relative
    /// to the configured `tPEW`; `0.0` is the nominal operating point).
    Ladder {
        /// Winning ladder offset in µs.
        offset_us: f64,
    },
    /// The re-characterization fallback re-derived the window and decoded.
    Recharacterized {
        /// The re-derived partial-erase time in µs.
        t_pew_us: f64,
    },
    /// The transient retry budget ran out before any attempt completed.
    RetriesExhausted,
    /// The re-characterization fallback itself faulted out.
    CharacterizationFaulted,
    /// Every ladder rung (and any fallback) completed but nothing decoded;
    /// the verdict comes from the last completed attempt.
    NoDecode,
}

impl Resolution {
    /// Stable strategy label (also the obs event payload).
    #[must_use]
    pub fn strategy(self) -> &'static str {
        match self {
            Self::Ladder { .. } => "ladder",
            Self::Recharacterized { .. } => "recharacterized",
            Self::RetriesExhausted => "retries_exhausted",
            Self::CharacterizationFaulted => "recharacterization_faulted",
            Self::NoDecode => "no_decode",
        }
    }
}

/// Outcome of a verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The chip carries a valid, accepted, correctly-signed watermark.
    Genuine,
    /// The chip is counterfeit (reason attached).
    Counterfeit(CounterfeitReason),
    /// The chip could not be judged (reason attached); re-inspect. Only
    /// [`Verifier::verify_resilient`] produces this verdict, and consumers
    /// must not count it as genuine.
    Inconclusive(InconclusiveReason),
}

impl Verdict {
    /// Stable verdict label (also the obs event payload).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Genuine => "genuine",
            Self::Counterfeit(_) => "counterfeit",
            Self::Inconclusive(_) => "inconclusive",
        }
    }

    /// Stable reason label of a reject or inconclusive verdict (the
    /// registry's `reason` field); `""` for [`Verdict::Genuine`].
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            Self::Genuine => "",
            Self::Counterfeit(reason) => match reason {
                CounterfeitReason::NoWatermark => "no_watermark",
                CounterfeitReason::SignatureMismatch => "signature_mismatch",
                CounterfeitReason::RejectedDie => "rejected_die",
                CounterfeitReason::WrongManufacturer { .. } => "wrong_manufacturer",
            },
            Self::Inconclusive(reason) => match reason {
                InconclusiveReason::TransientFaults => "transient_faults",
                InconclusiveReason::RecharacterizationFailed => "recharacterization_failed",
                InconclusiveReason::FuzzyMatchMarginal => "fuzzy_match_marginal",
            },
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Genuine => write!(f, "genuine"),
            Self::Counterfeit(_) => write!(f, "counterfeit"),
            Self::Inconclusive(reason) => write!(f, "inconclusive: {reason}"),
        }
    }
}

/// Full verification output.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// The verdict.
    pub verdict: Verdict,
    /// The decoded record, when the signature checked out.
    pub record: Option<WatermarkRecord>,
    /// The raw extraction (soft information, timing).
    pub extraction: Extraction,
    /// Which strategy settled the verdict (ladder rung, fallback, or the
    /// failure mode that forced degradation).
    pub resolution: Resolution,
}

/// Verifies chips against a manufacturer's public extraction recipe.
///
/// Extraction at a single `tPEW` can leave a handful of cells frozen at the
/// read boundary; real inspection flows retry inside the *published window*
/// until the record's signature validates. The verifier therefore probes a
/// small ladder of partial-erase times around the configured `tPEW`
/// (repeating the extraction is harmless — the watermark lives in wear).
#[derive(Debug, Clone)]
pub struct Verifier {
    config: FlashmarkConfig,
    expected_manufacturer: u16,
    retry_offsets_us: Vec<f64>,
    max_transient_retries: u32,
}

impl Verifier {
    /// Creates a verifier for chips of `expected_manufacturer`.
    #[must_use]
    pub fn new(config: FlashmarkConfig, expected_manufacturer: u16) -> Self {
        Self {
            config,
            expected_manufacturer,
            retry_offsets_us: vec![0.0, -4.0, 4.0, -8.0, 8.0],
            max_transient_retries: 4,
        }
    }

    /// Extracts and validates the watermark record in `seg`.
    ///
    /// # Errors
    ///
    /// Flash/layout errors only; every *authenticity* outcome is expressed
    /// in the report's [`Verdict`], not as an error.
    pub fn verify<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
    ) -> Result<VerificationReport, CoreError> {
        let _span = obs::span("verify");
        match self.ladder(flash, |flash, t| self.verify_at(flash, seg, t).map(Some))? {
            ControlFlow::Break(report) => Ok(report),
            ControlFlow::Continue(last) => no_decode(last),
        }
    }

    /// [`Verifier::verify`] hardened for field conditions: transient flash
    /// errors (NAKs, busy controllers, power loss) are retried up to the
    /// configured budget per attempt, a drifted partial-erase window
    /// triggers one re-characterization fallback, and fault conditions that
    /// survive all of that degrade to [`Verdict::Inconclusive`] instead of
    /// a hard error.
    ///
    /// Retrying is always safe (the watermark lives in wear), and the
    /// degradation is one-way by construction: faults can push a verdict
    /// *toward* Counterfeit or Inconclusive, but a Genuine verdict still
    /// requires a CRC-valid accept record — there is no fault path that
    /// conjures one from a reject or blank chip.
    ///
    /// # Errors
    ///
    /// Non-transient flash/layout errors only; transient-fault exhaustion
    /// is reported as [`Verdict::Inconclusive`], not as an error.
    pub fn verify_resilient<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
    ) -> Result<VerificationReport, CoreError> {
        let _span = obs::span("verify_resilient");
        let mut last =
            match self.ladder(flash, |flash, t| self.attempt_with_retry(flash, seg, t))? {
                ControlFlow::Break(report) => return Ok(report),
                ControlFlow::Continue(last) => last,
            };

        // Nothing decoded anywhere on the published ladder. The window may
        // have drifted past it (ageing, temperature, timing faults):
        // re-derive tPEW from a fresh characterization of the segment and
        // try once more at the re-derived operating point.
        match self.recharacterized_t_pew(flash, seg)? {
            Recharacterization::Window(t) => match self.attempt_with_retry(flash, seg, t)? {
                Some(report) if report.record.is_some() => {
                    return Ok(finish(
                        report,
                        Resolution::Recharacterized { t_pew_us: t.get() },
                    ))
                }
                Some(report) => {
                    last.get_or_insert(report);
                }
                None => {
                    return Ok(finish(
                        Self::inconclusive(InconclusiveReason::TransientFaults, t),
                        Resolution::RetriesExhausted,
                    ));
                }
            },
            Recharacterization::Faulted => {
                return Ok(finish(
                    Self::inconclusive(
                        InconclusiveReason::RecharacterizationFailed,
                        self.config.t_pew(),
                    ),
                    Resolution::CharacterizationFaulted,
                ));
            }
            Recharacterization::NoWindow => {}
        }
        no_decode(last)
    }

    /// Walks the published `tPEW` ladder, one `attempt` per rung, emitting
    /// each rung's [`ObsEvent::LadderRung`]. Breaks with the finished
    /// report of the first rung that settles the verdict: a decoded record,
    /// no watermark on the nominal rung, or an attempt that ran out of
    /// transient retries (`None`). Otherwise continues with the last rung's
    /// report.
    fn ladder<F: FlashInterface>(
        &self,
        flash: &mut F,
        mut attempt: impl FnMut(&mut F, Micros) -> Result<Option<VerificationReport>, CoreError>,
    ) -> Result<ControlFlow<VerificationReport, Option<VerificationReport>>, CoreError> {
        let mut last = None;
        for &offset in &self.retry_offsets_us {
            let t = Micros::new((self.config.t_pew().get() + offset).max(1.0));
            let Some(report) = attempt(flash, t)? else {
                obs::emit(ObsEvent::LadderRung {
                    offset_us: offset,
                    outcome: "transient_faults",
                });
                return Ok(ControlFlow::Break(finish(
                    Self::inconclusive(InconclusiveReason::TransientFaults, t),
                    Resolution::RetriesExhausted,
                )));
            };
            obs::emit(ObsEvent::LadderRung {
                offset_us: offset,
                outcome: rung_outcome(&report),
            });
            // A decoded record is conclusive either way: the signature binds
            // it, whether it says accept or reject. No wear watermark on the
            // nominal rung: retrying other times cannot conjure one up.
            let blank = report.verdict == Verdict::Counterfeit(CounterfeitReason::NoWatermark);
            if report.record.is_some() || (blank && offset.abs() < 1e-9) {
                return Ok(ControlFlow::Break(finish(
                    report,
                    Resolution::Ladder { offset_us: offset },
                )));
            }
            // Signature mismatch: retry elsewhere in the window.
            last = Some(report);
        }
        Ok(ControlFlow::Continue(last))
    }

    /// One ladder attempt under the transient retry budget. `Ok(None)`
    /// means the budget ran out on transient errors; non-transient errors
    /// propagate. Each retry re-runs the whole extraction, which is the
    /// backoff: the device sees a fresh command sequence and the simulated
    /// clock (the only clock this crate knows) has advanced past the
    /// faulted operation.
    fn attempt_with_retry<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
        t_pew: Micros,
    ) -> Result<Option<VerificationReport>, CoreError> {
        let mut remaining = self.max_transient_retries;
        loop {
            match self.verify_at(flash, seg, t_pew) {
                Ok(report) => return Ok(Some(report)),
                Err(CoreError::Flash(e)) if e.is_transient() => {
                    if remaining == 0 {
                        return Ok(None);
                    }
                    remaining -= 1;
                    obs::emit(ObsEvent::Retry {
                        stage: "verify_attempt",
                        attempt: self.max_transient_retries - remaining,
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-derives the extraction operating point by characterizing the
    /// segment across a ±12 µs sweep around the configured `tPEW` and
    /// taking the post-transition plateau (see [`drifted_window`]).
    fn recharacterized_t_pew<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
    ) -> Result<Recharacterization, CoreError> {
        let t = self.config.t_pew().get();
        let Ok(sweep) = SweepSpec::new(
            Micros::new((t - 12.0).max(1.0)),
            Micros::new(t + 12.0),
            Micros::new(2.0),
        ) else {
            return Ok(Recharacterization::NoWindow);
        };
        let mut remaining = self.max_transient_retries;
        loop {
            match characterize_segment(flash, seg, &sweep, self.config.reads()) {
                Ok(curve) => {
                    return Ok(drifted_window(&curve)
                        .map_or(Recharacterization::NoWindow, Recharacterization::Window));
                }
                Err(CoreError::Flash(e)) if e.is_transient() => {
                    if remaining == 0 {
                        return Ok(Recharacterization::Faulted);
                    }
                    remaining -= 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A graceful-degraded report: no record, empty extraction.
    fn inconclusive(reason: InconclusiveReason, t_pew: Micros) -> VerificationReport {
        VerificationReport {
            verdict: Verdict::Inconclusive(reason),
            record: None,
            extraction: Extraction::unavailable(t_pew),
            resolution: Resolution::NoDecode,
        }
    }

    fn verify_at<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
        t_pew: Micros,
    ) -> Result<VerificationReport, CoreError> {
        let config = self.config.with_t_pew(t_pew)?;
        let extraction = Extractor::new(&config).extract(flash, seg, RECORD_BITS)?;
        let bits = extraction.bits();

        // A segment with no imprinted wear extracts as (almost) all 1s once
        // tPEW is inside the fresh-erase window; all 0s would mean tPEW is
        // below even the fresh onset. Either way: no watermark.
        let ones = bits.iter().filter(|&&b| b).count();
        let frac = ones as f64 / bits.len() as f64;
        if !(0.03..=0.97).contains(&frac) {
            return Ok(VerificationReport {
                verdict: Verdict::Counterfeit(CounterfeitReason::NoWatermark),
                record: None,
                extraction,
                resolution: Resolution::NoDecode,
            });
        }

        let wm = extraction.to_watermark()?;
        let decoded = WatermarkRecord::from_watermark(&wm)
            .ok()
            .or_else(|| soft_repair(&bits, &extraction));
        match decoded {
            None => Ok(VerificationReport {
                verdict: Verdict::Counterfeit(CounterfeitReason::SignatureMismatch),
                record: None,
                extraction,
                resolution: Resolution::NoDecode,
            }),
            Some(record) => {
                let verdict = if record.manufacturer_id != self.expected_manufacturer {
                    Verdict::Counterfeit(CounterfeitReason::WrongManufacturer {
                        found: record.manufacturer_id,
                    })
                } else if record.status == TestStatus::Reject {
                    Verdict::Counterfeit(CounterfeitReason::RejectedDie)
                } else {
                    Verdict::Genuine
                };
                Ok(VerificationReport {
                    verdict,
                    record: Some(record),
                    extraction,
                    resolution: Resolution::NoDecode,
                })
            }
        }
    }
}

/// The obs-event outcome label for one ladder rung's report.
fn rung_outcome(report: &VerificationReport) -> &'static str {
    if report.record.is_some() {
        "decoded"
    } else if report.verdict == Verdict::Counterfeit(CounterfeitReason::NoWatermark) {
        "no_watermark"
    } else {
        "no_decode"
    }
}

/// Finishes the last completed attempt when nothing decoded.
/// `retry_offsets_us` is kept non-empty by construction, so the ladder
/// always yields a report; surface a typed error instead of panicking if
/// that invariant is ever broken.
fn no_decode(last: Option<VerificationReport>) -> Result<VerificationReport, CoreError> {
    last.map(|r| finish(r, Resolution::NoDecode))
        .ok_or(CoreError::Config("verifier has no retry offsets"))
}

/// Stamps the winning strategy on a finished report and emits the
/// resolution + verdict obs events.
fn finish(mut report: VerificationReport, resolution: Resolution) -> VerificationReport {
    report.resolution = resolution;
    obs::emit(ObsEvent::Resolution {
        strategy: resolution.strategy(),
    });
    obs::emit(ObsEvent::Verdict {
        verdict: report.verdict.name(),
    });
    report
}

/// The extraction window of an *imprinted* segment is not the 50 %
/// transition point: only the watermark's worn 0-cells (a small fraction of
/// the segment) are meant to still read programmed at `tPEW`. The usable
/// window is therefore the **plateau** right after the fresh-cell
/// transition — the first sweep point where the programmed count has
/// stopped falling (per-step drop below 1 % of the segment) but a worn
/// population still survives (`0 < cells_0 < total/2`).
fn drifted_window(curve: &crate::characterize::CharacterizationCurve) -> Option<Micros> {
    let total = curve.total_cells();
    if total == 0 {
        return None;
    }
    for pair in curve.points.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let dropped = a.cells_0.saturating_sub(b.cells_0);
        if b.cells_0 > 0 && b.cells_0 < total / 2 && dropped < total / 100 {
            return Some(b.t_pe);
        }
    }
    None
}

/// Outcome of the re-characterization fallback.
enum Recharacterization {
    /// A usable 50 % transition time was found.
    Window(Micros),
    /// The curve had no usable transition (e.g. empty segment).
    NoWindow,
    /// Transient faults exhausted the retry budget mid-characterization.
    Faulted,
}

/// CRC-assisted soft-decision repair: when the signature fails, re-try the
/// decode with the lowest-confidence bits flipped (bits whose replica vote
/// was near a tie). Standard list-decoding practice; the CRC-16 gate keeps
/// the false-accept probability per candidate at 2⁻¹⁶, and only a handful
/// of candidates are tried.
///
/// This cannot help an attacker: flipping bits *toward a different valid
/// record* still has to clear the CRC, and the attacker cannot choose which
/// cells sit near the vote boundary.
fn soft_repair(bits: &[bool], extraction: &Extraction) -> Option<WatermarkRecord> {
    // Bits with the smallest vote margin, most uncertain first.
    let mut candidates: Vec<(usize, usize)> = extraction
        .votes()
        .iter()
        .enumerate()
        .map(|(i, v)| (i, v.margin()))
        .filter(|&(_, m)| m <= 1)
        .collect();
    candidates.sort_by_key(|&(_, m)| m);
    candidates.truncate(12);
    let candidates: Vec<usize> = candidates.into_iter().map(|(i, _)| i).collect();
    repair_search(bits, &candidates)
}

/// Payload bytes of the record wire format: everything before the CRC.
const PAYLOAD_BYTES: usize = RECORD_BYTES - 2;

/// The first record that decodes with one of `candidates` flipped, in
/// order, or else with two (each pair in order), as decoding every such
/// flip set would find it; `None` if none decodes.
///
/// Only the sets that clear the CRC are decoded. CRC-16/CCITT is affine
/// over GF(2), so flipping a bit moves the *syndrome* (the computed CRC
/// xor the stored one) by an amount that depends on the bit alone (see
/// [`syndrome_move`]), and a set clears the CRC exactly when its moves
/// cancel the record's syndrome. [`WatermarkRecord::from_bytes`] rejects
/// every CRC mismatch, so a skipped set could not have decoded, and the
/// first set that decodes is the one an unfiltered search finds. A keyed
/// tag in place of the CRC is not affine: this filter goes with the CRC.
fn repair_search(bits: &[bool], candidates: &[usize]) -> Option<WatermarkRecord> {
    if bits.len() != RECORD_BITS {
        return None;
    }
    let bytes = bytes_from_bits(bits);
    let syndrome = crc16(&bytes[..PAYLOAD_BYTES])
        ^ u16::from_le_bytes([bytes[PAYLOAD_BYTES], bytes[PAYLOAD_BYTES + 1]]);
    let moves: Vec<u16> = candidates.iter().map(|&i| syndrome_move(i)).collect();
    let try_bits = |flips: &[usize]| -> Option<WatermarkRecord> {
        let mut b = bits.to_vec();
        for &i in flips {
            b[i] = !b[i];
        }
        let wm = Watermark::from_bits(b).ok()?;
        WatermarkRecord::from_watermark(&wm).ok()
    };
    for (&i, &m) in candidates.iter().zip(&moves) {
        if m == syndrome {
            if let Some(r) = try_bits(&[i]) {
                return Some(r);
            }
        }
    }
    for (a_idx, (&a, &ma)) in candidates.iter().zip(&moves).enumerate() {
        for (&b, &mb) in candidates.iter().zip(&moves).skip(a_idx + 1) {
            if ma ^ mb == syndrome {
                if let Some(r) = try_bits(&[a, b]) {
                    return Some(r);
                }
            }
        }
    }
    None
}

/// How flipping bit `i` of a record moves its CRC syndrome. For messages
/// of one length `crc(x ^ e) = crc(x) ^ crc(e) ^ crc(0)`, so a payload
/// flip moves the computed CRC by `crc(e) ^ crc(0)` whatever the payload
/// holds; a flip in the stored CRC moves that bit of it (the CRC is stored
/// little-endian, and bits run LSB first).
fn syndrome_move(i: usize) -> u16 {
    let payload_bits = PAYLOAD_BYTES * 8;
    if i < payload_bits {
        let mut flip = [0u8; PAYLOAD_BYTES];
        flip[i / 8] = 1 << (i % 8);
        crc16(&flip) ^ crc16(&[0u8; PAYLOAD_BYTES])
    } else {
        1 << (i - payload_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imprint::Imprinter;
    use flashmark_nor::{FlashController, FlashGeometry, FlashTimings};
    use flashmark_physics::PhysicsParams;

    const MFG: u16 = 0x7C01;

    fn flash(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(4),
            FlashTimings::msp430(),
            seed,
        )
    }

    fn config() -> FlashmarkConfig {
        FlashmarkConfig::builder()
            .n_pe(80_000)
            .replicas(7)
            .build()
            .unwrap()
    }

    fn record(status: TestStatus) -> WatermarkRecord {
        WatermarkRecord {
            manufacturer_id: MFG,
            die_id: 42,
            speed_grade: 2,
            status,
            year_week: 1907,
        }
    }

    fn imprint(f: &mut FlashController, r: &WatermarkRecord) {
        let cfg = config();
        Imprinter::new(&cfg)
            .imprint(f, SegmentAddr::new(0), &r.to_watermark())
            .unwrap();
    }

    #[test]
    fn genuine_chip_verifies() {
        let mut f = flash(100);
        imprint(&mut f, &record(TestStatus::Accept));
        let v = Verifier::new(config(), MFG);
        let report = v.verify(&mut f, SegmentAddr::new(0)).unwrap();
        assert_eq!(report.verdict, Verdict::Genuine);
        assert_eq!(report.record.unwrap().die_id, 42);
    }

    #[test]
    fn rejected_die_detected() {
        let mut f = flash(101);
        imprint(&mut f, &record(TestStatus::Reject));
        let v = Verifier::new(config(), MFG);
        let report = v.verify(&mut f, SegmentAddr::new(0)).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Counterfeit(CounterfeitReason::RejectedDie)
        );
        assert!(
            report.record.is_some(),
            "record still decodes; status damns it"
        );
    }

    #[test]
    fn blank_chip_has_no_watermark() {
        let mut f = flash(102);
        let v = Verifier::new(config(), MFG);
        let report = v.verify(&mut f, SegmentAddr::new(0)).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Counterfeit(CounterfeitReason::NoWatermark)
        );
        assert!(report.record.is_none());
    }

    #[test]
    fn wrong_manufacturer_detected() {
        let mut f = flash(103);
        let mut r = record(TestStatus::Accept);
        r.manufacturer_id = 0x0BAD;
        imprint(&mut f, &r);
        let v = Verifier::new(config(), MFG);
        let report = v.verify(&mut f, SegmentAddr::new(0)).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Counterfeit(CounterfeitReason::WrongManufacturer { found: 0x0BAD })
        );
    }

    #[test]
    fn soft_repair_fixes_a_single_low_margin_bit() {
        // Build an extraction-like vote set with one wrong low-margin bit
        // and check the repair path decodes the true record.
        let r = record(TestStatus::Accept);
        let true_bits = r.to_watermark().bits().to_vec();
        let mut bits = true_bits.clone();
        bits[26] = !bits[26];
        let votes: Vec<flashmark_ecc::MajorityVote> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mut v = flashmark_ecc::MajorityVote::new();
                // Bit 26: 4-3 split (margin 1); everything else unanimous.
                let (ones, zeros) = match (i == 26, b) {
                    (true, true) => (4, 3),
                    (true, false) => (3, 4),
                    (false, true) => (7, 0),
                    (false, false) => (0, 7),
                };
                for _ in 0..ones {
                    v.push(true);
                }
                for _ in 0..zeros {
                    v.push(false);
                }
                v
            })
            .collect();
        // Assemble a minimal Extraction through the public constructor path:
        // run a real extraction for shape, then use soft_repair directly.
        let repaired = super::soft_repair(
            &bits,
            &crate::extract::Extraction::for_tests(votes, bits.clone(), 7),
        );
        assert_eq!(repaired, Some(r));
    }

    /// The search [`repair_search`] filters: decode every flip set, in
    /// its order, until one decodes.
    fn unfiltered_search(bits: &[bool], candidates: &[usize]) -> Option<WatermarkRecord> {
        let try_bits = |flips: &[usize]| -> Option<WatermarkRecord> {
            let mut b = bits.to_vec();
            for &i in flips {
                b[i] = !b[i];
            }
            let wm = Watermark::from_bits(b).ok()?;
            WatermarkRecord::from_watermark(&wm).ok()
        };
        for &i in candidates {
            if let Some(r) = try_bits(&[i]) {
                return Some(r);
            }
        }
        for (a_idx, &a) in candidates.iter().enumerate() {
            for &b in &candidates[a_idx + 1..] {
                if let Some(r) = try_bits(&[a, b]) {
                    return Some(r);
                }
            }
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The CRC-filtered search finds what decoding every flip set
        /// finds. Records are near-valid: a random payload under its own
        /// CRC (its status byte valid or not, so a set that clears the CRC
        /// need not decode) with 0–3 bits flipped. Candidate sets of up to
        /// 12 bits, in a random order, hold all, some or none of the
        /// flips; where they hold one or two flips of a record with a
        /// valid status, the search must find a record.
        #[test]
        fn crc_filtered_repair_matches_the_unfiltered_search(
            payload in proptest::collection::vec(proptest::any::<u8>(), 14..15),
            valid_status in proptest::any::<bool>(),
            flips in proptest::collection::vec(0..RECORD_BITS, 0..4),
            held in 0usize..4,
            decoys in proptest::collection::vec(0..RECORD_BITS, 0..12),
            order in proptest::any::<u64>(),
        ) {
            let mut bytes = [0u8; RECORD_BYTES];
            bytes[..PAYLOAD_BYTES].copy_from_slice(&payload);
            if valid_status {
                bytes[11] = [0xA5, 0x5A][(order & 1) as usize];
            }
            let crc = crc16(&bytes[..PAYLOAD_BYTES]);
            bytes[PAYLOAD_BYTES..].copy_from_slice(&crc.to_le_bytes());
            let mut bits = flashmark_ecc::bits_from_bytes(&bytes);
            let mut flipped = Vec::new();
            for i in flips {
                if !flipped.contains(&i) {
                    flipped.push(i);
                    bits[i] = !bits[i];
                }
            }
            let mut candidates = Vec::new();
            for &i in flipped.iter().take(held).chain(&decoys) {
                if !candidates.contains(&i) {
                    candidates.push(i);
                }
            }
            candidates.truncate(12);
            candidates.sort_by_key(|&i| flashmark_physics::rng::mix2(order, i as u64));
            let filtered = repair_search(&bits, &candidates);
            proptest::prop_assert_eq!(filtered, unfiltered_search(&bits, &candidates));
            let repairable = valid_status
                && (1..=2).contains(&flipped.len())
                && flipped.iter().all(|i| candidates.contains(i));
            proptest::prop_assert!(!repairable || filtered.is_some(), "flips {flipped:?}");
        }
    }

    #[test]
    fn reason_labels_are_stable() {
        // The registry archives these strings: renaming one changes
        // committed record bytes.
        use CounterfeitReason as C;
        use InconclusiveReason as I;
        assert_eq!(Verdict::Genuine.reason(), "");
        let rejects = [
            (C::NoWatermark, "no_watermark"),
            (C::SignatureMismatch, "signature_mismatch"),
            (C::RejectedDie, "rejected_die"),
            (C::WrongManufacturer { found: 1 }, "wrong_manufacturer"),
        ];
        for (reason, label) in rejects {
            assert_eq!(Verdict::Counterfeit(reason).reason(), label);
        }
        let inconclusives = [
            (I::TransientFaults, "transient_faults"),
            (I::RecharacterizationFailed, "recharacterization_failed"),
            (I::FuzzyMatchMarginal, "fuzzy_match_marginal"),
        ];
        for (reason, label) in inconclusives {
            assert_eq!(Verdict::Inconclusive(reason).reason(), label);
        }
    }

    #[test]
    fn verification_is_repeatable() {
        let mut f = flash(104);
        imprint(&mut f, &record(TestStatus::Accept));
        let v = Verifier::new(config(), MFG);
        for _ in 0..3 {
            assert_eq!(
                v.verify(&mut f, SegmentAddr::new(0)).unwrap().verdict,
                Verdict::Genuine
            );
        }
    }

    /// A minimal flaky-interface double: NAKs the first `naks` operations,
    /// then forwards everything. (The dedicated fault-injection crate lives
    /// above this one, so these tests roll their own two-liner.)
    struct Flaky<F> {
        inner: F,
        naks: u64,
        ops: u64,
    }

    impl<F: FlashInterface> Flaky<F> {
        fn nak(&mut self) -> Result<(), flashmark_nor::NorError> {
            let op = self.ops;
            self.ops += 1;
            if op < self.naks {
                return Err(flashmark_nor::NorError::TransientNak);
            }
            Ok(())
        }
    }

    impl<F: FlashInterface> FlashInterface for Flaky<F> {
        fn geometry(&self) -> flashmark_nor::FlashGeometry {
            self.inner.geometry()
        }
        fn read_word(
            &mut self,
            w: flashmark_nor::WordAddr,
        ) -> Result<u16, flashmark_nor::NorError> {
            self.nak()?;
            self.inner.read_word(w)
        }
        fn program_word(
            &mut self,
            w: flashmark_nor::WordAddr,
            v: u16,
        ) -> Result<(), flashmark_nor::NorError> {
            self.nak()?;
            self.inner.program_word(w, v)
        }
        fn program_block(
            &mut self,
            s: SegmentAddr,
            v: &[u16],
        ) -> Result<(), flashmark_nor::NorError> {
            self.nak()?;
            self.inner.program_block(s, v)
        }
        fn erase_segment(&mut self, s: SegmentAddr) -> Result<(), flashmark_nor::NorError> {
            self.nak()?;
            self.inner.erase_segment(s)
        }
        fn partial_erase(
            &mut self,
            s: SegmentAddr,
            t: Micros,
        ) -> Result<(), flashmark_nor::NorError> {
            self.nak()?;
            self.inner.partial_erase(s, t)
        }
        fn erase_until_clean(&mut self, s: SegmentAddr) -> Result<Micros, flashmark_nor::NorError> {
            self.nak()?;
            self.inner.erase_until_clean(s)
        }
        fn elapsed(&self) -> flashmark_physics::Seconds {
            self.inner.elapsed()
        }
    }

    #[test]
    fn resilient_matches_verify_on_a_clean_chip() {
        let mut f = flash(106);
        imprint(&mut f, &record(TestStatus::Accept));
        let v = Verifier::new(config(), MFG);
        let seg = SegmentAddr::new(0);
        assert_eq!(v.verify(&mut f, seg).unwrap().verdict, Verdict::Genuine);
        assert_eq!(
            v.verify_resilient(&mut f, seg).unwrap().verdict,
            Verdict::Genuine
        );
    }

    /// On a fault-free chip the two verifiers walk one ladder: the same
    /// report and the same event timeline, op for op, apart from the name
    /// of the outer span.
    #[test]
    fn resilient_and_plain_verification_walk_one_ladder() {
        use flashmark_obs::{collect, Collector};
        let seg = SegmentAddr::new(0);
        let mut genuine = flash(111);
        imprint(&mut genuine, &record(TestStatus::Accept));
        let mut rejected = flash(112);
        imprint(&mut rejected, &record(TestStatus::Reject));
        let chips = [
            ("genuine", genuine, Verdict::Genuine),
            (
                "rejected",
                rejected,
                Verdict::Counterfeit(CounterfeitReason::RejectedDie),
            ),
            (
                "blank",
                flash(113),
                Verdict::Counterfeit(CounterfeitReason::NoWatermark),
            ),
        ];
        let v = Verifier::new(config(), MFG);
        for (name, chip, verdict) in chips {
            let mut plain_chip = chip.clone();
            let (plain, plain_events) =
                collect(Collector::new(0), || v.verify(&mut plain_chip, seg));
            let mut resilient_chip = chip;
            let (resilient, resilient_events) = collect(Collector::new(0), || {
                v.verify_resilient(&mut resilient_chip, seg)
            });
            let plain = plain.unwrap();
            assert_eq!(plain.verdict, verdict, "{name}");
            assert_eq!(plain, resilient.unwrap(), "{name}");
            let outer = |event: ObsEvent| match event {
                ObsEvent::SpanEnter {
                    name: "verify_resilient",
                } => ObsEvent::SpanEnter { name: "verify" },
                ObsEvent::SpanExit {
                    name: "verify_resilient",
                } => ObsEvent::SpanExit { name: "verify" },
                other => other,
            };
            let timeline: Vec<(u64, ObsEvent)> =
                plain_events.events().map(|(op, &e)| (op, e)).collect();
            assert!(timeline.len() > 2 && plain_events.dropped() == 0, "{name}");
            assert_eq!(
                timeline,
                resilient_events
                    .events()
                    .map(|(op, &e)| (op, outer(e)))
                    .collect::<Vec<_>>(),
                "{name}"
            );
        }
    }

    #[test]
    fn resilient_retries_through_transient_errors() {
        let mut f = flash(107);
        imprint(&mut f, &record(TestStatus::Accept));
        let mut flaky = Flaky {
            inner: f,
            naks: 2,
            ops: 0,
        };
        let v = Verifier::new(config(), MFG);
        let (report, collector) = flashmark_obs::collect(flashmark_obs::Collector::new(0), || {
            v.verify_resilient(&mut flaky, SegmentAddr::new(0))
        });
        let report = report.unwrap();
        assert_eq!(report.verdict, Verdict::Genuine);
        // The nominal rung wins once the transient NAKs clear.
        assert_eq!(report.resolution, Resolution::Ladder { offset_us: 0.0 });
        // The winning strategy is also surfaced as an obs event.
        assert_eq!(collector.metrics().counter("resolution", "ladder"), 1);
        assert!(collector.metrics().counter("retry", "verify_attempt") >= 1);
    }

    #[test]
    fn resilient_degrades_to_inconclusive_when_faults_persist() {
        let mut f = flash(108);
        imprint(&mut f, &record(TestStatus::Accept));
        let mut flaky = Flaky {
            inner: f,
            naks: u64::MAX, // never recovers
            ops: 0,
        };
        let v = Verifier {
            max_transient_retries: 2,
            ..Verifier::new(config(), MFG)
        };
        let report = v.verify_resilient(&mut flaky, SegmentAddr::new(0)).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Inconclusive(InconclusiveReason::TransientFaults)
        );
        assert!(report.record.is_none());
        assert_ne!(report.verdict, Verdict::Genuine);
        // The losing strategy is named in the report.
        assert_eq!(report.resolution, Resolution::RetriesExhausted);
    }

    #[test]
    fn resilient_recovers_a_drifted_window_by_recharacterizing() {
        // Publish a ladder whose every point sits far above the usable
        // window: plain verify fails with a signature mismatch, but the
        // resilient path re-characterizes the segment and decodes at the
        // re-derived transition time.
        let mut f = flash(110);
        imprint(&mut f, &record(TestStatus::Accept));
        let seg = SegmentAddr::new(0);
        let drifted = Verifier {
            retry_offsets_us: vec![24.0, 28.0],
            ..Verifier::new(config(), MFG)
        };
        let plain = drifted.verify(&mut f, seg).unwrap();
        assert_ne!(
            plain.verdict,
            Verdict::Genuine,
            "a fully-drifted ladder must not decode directly"
        );
        let (report, collector) = flashmark_obs::collect(flashmark_obs::Collector::new(0), || {
            drifted.verify_resilient(&mut f, seg)
        });
        let report = report.unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Genuine,
            "re-characterization must recover the drifted window"
        );
        // The fallback strategy (and its operating point) is surfaced.
        assert!(
            matches!(report.resolution, Resolution::Recharacterized { t_pew_us } if t_pew_us > 0.0),
            "resolution was {:?}",
            report.resolution
        );
        assert_eq!(
            collector.metrics().counter("resolution", "recharacterized"),
            1
        );
        // Both published rungs were walked (and failed) before the fallback.
        assert_eq!(collector.metrics().group_total("ladder"), 2);
    }
}
