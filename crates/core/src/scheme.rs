//! The cross-technology watermark abstraction: [`WatermarkScheme`].
//!
//! The Flashmark pipeline (enroll → imprint → verify) is not NOR-specific:
//! the same irreversible-wear asymmetry exists in ReRAM forming stress,
//! and intrinsic NAND process variation supports an enrollment/fuzzy-match
//! fingerprint that needs no imprint step at all. [`WatermarkScheme`]
//! captures the shared shape so campaigns, services, and tests can be
//! written once and run over every backend:
//!
//! * **enroll** — manufacturer-side: derive the per-chip enrollment data
//!   (the watermark record for imprinting schemes, the helper data +
//!   calibration for PUF schemes).
//! * **imprint** — manufacturer-side: burn the mark into irreversible
//!   device state. Intrinsic schemes ([`WatermarkScheme::imprints`] =
//!   `false`) make this a free no-op.
//! * **verify** — inspector-side: read the evidence back through the
//!   digital interface and classify the chip with the shared [`Verdict`]
//!   vocabulary (including `Inconclusive` degradation), reporting the
//!   evidence's mismatch against the enrollment.
//!
//! Backends report failures through the unified [`SchemeError`], which
//! preserves the transient/persistent distinction
//! ([`SchemeError::is_transient`]) that the fault-handling retry ladders
//! key on.

use core::fmt;

use flashmark_nor::NorError;
use flashmark_physics::Seconds;

use crate::error::CoreError;
use crate::verify::Verdict;

/// Unified error type across watermark backends.
///
/// Every backend's native error converts into this ([`From`] impls live
/// with the backend crates), so scheme-generic code — campaign drivers,
/// the verification service, the retry ladder in `fault` — handles one
/// error vocabulary while the transiency classification of a flash error
/// survives the conversion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchemeError {
    /// A Flashmark-core procedure failed (layout, config, flash error).
    Core(CoreError),
    /// A backend-specific failure that has no core equivalent. Backend
    /// failures are persistent (addressing, NOP discipline).
    Backend {
        /// Stable scheme name (matches [`WatermarkScheme::name`]).
        scheme: &'static str,
        /// Human-readable failure description.
        message: String,
    },
    /// Scheme parameters were invalid.
    Config(&'static str),
}

impl SchemeError {
    /// Whether the failure is transient: a flash operation failed for
    /// reasons that do not persist (interface NAKs, mid-operation power
    /// loss), so a bounded retry is the correct response. This is the
    /// property `fault`'s retry ladder keys on; only a flash error can be
    /// transient.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::Core(CoreError::Flash(e)) if e.is_transient())
    }
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "core procedure failed: {e}"),
            Self::Backend {
                scheme, message, ..
            } => write!(f, "{scheme} backend error: {message}"),
            Self::Config(why) => write!(f, "invalid scheme parameters: {why}"),
        }
    }
}

impl std::error::Error for SchemeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SchemeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<NorError> for SchemeError {
    fn from(e: NorError) -> Self {
        Self::Core(CoreError::Flash(e))
    }
}

/// What an imprint cost the manufacturer: stress cycles applied and
/// simulated wall time spent. Intrinsic (non-imprinting) schemes report
/// all-zero cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprintCost {
    /// Stress cycles applied to the marked region.
    pub cycles: u64,
    /// Simulated wall time the imprint took.
    pub elapsed: Seconds,
}

impl ImprintCost {
    /// The zero cost of a scheme with no imprint step.
    #[must_use]
    pub fn free() -> Self {
        Self {
            cycles: 0,
            elapsed: Seconds::new(0.0),
        }
    }
}

/// Scheme-generic verification outcome: the shared [`Verdict`] vocabulary
/// plus the cross-backend soft information campaign drivers compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeVerification {
    /// The verdict, in the vocabulary shared by every backend.
    pub verdict: Verdict,
    /// Stable label of the strategy that settled the verdict (ladder rung,
    /// re-characterization, fuzzy match, ...).
    pub resolution: &'static str,
    /// Measured mismatch against the enrollment, where the scheme can
    /// compute one: bit error rate for imprinting schemes, fractional
    /// fuzzy-match distance for PUF schemes. `None` when no evidence was
    /// recoverable (e.g. an inconclusive verification).
    pub mismatch: Option<f64>,
}

/// A watermark/fingerprint scheme over one memory technology.
///
/// Two implementations exist: the tPEW wear watermark
/// ([`TpewScheme`](crate::nor_scheme::TpewScheme)), whose values
/// [`NOR_TPEW`](crate::nor_scheme::NOR_TPEW) and
/// `flashmark_reram::RERAM_FORMING` run it on NOR and ReRAM, and the
/// intrinsic NAND partial-program PUF (`flashmark_nand::puf::NandPuf`).
/// The shared contract (pinned by the workspace `scheme_contract`
/// proptests):
///
/// * `verify` after `imprint(enroll(chip))` accepts a genuine chip;
/// * `verify` against a blank chip rejects (or is inconclusive — never
///   genuine);
/// * `imprint` never decreases wear ([`WatermarkScheme::wear_estimate`] is
///   monotone over the scheme lifecycle);
/// * every entry point is a pure function of `(chip seed, params)` — no
///   wall clock, no ambient RNG — so campaigns parallelize byte-identically.
pub trait WatermarkScheme {
    /// The device model this scheme drives.
    type Chip;
    /// Scheme parameters (operating point, addressing, identity).
    type Params;
    /// Per-chip enrollment data: what the manufacturer stores/publishes so
    /// an inspector can later verify the chip.
    type Enrollment;

    /// Stable scheme name — used as the registry/trend `scheme` tag and in
    /// campaign artifacts. Must be a lowercase identifier.
    fn name(&self) -> &'static str;

    /// Whether the scheme has a physical imprint step. Intrinsic
    /// fingerprint schemes return `false`: their mark is manufacturing
    /// variation itself, and [`WatermarkScheme::imprint`] is a free no-op.
    fn imprints(&self) -> bool {
        true
    }

    /// Manufacturer-side enrollment: derive the per-chip enrollment data.
    /// For imprinting schemes this is cheap bookkeeping (building the
    /// record); for PUF schemes it measures the chip and builds helper
    /// data, and is the expensive step.
    ///
    /// # Errors
    ///
    /// Backend or parameter errors.
    fn enroll(
        &self,
        chip: &mut Self::Chip,
        params: &Self::Params,
    ) -> Result<Self::Enrollment, SchemeError>;

    /// Manufacturer-side imprint: burn the enrollment's mark into
    /// irreversible device state, reporting what it cost. Schemes with
    /// [`WatermarkScheme::imprints`] `false` return [`ImprintCost::free`]
    /// without touching the chip.
    ///
    /// # Errors
    ///
    /// Backend or parameter errors.
    fn imprint(
        &self,
        chip: &mut Self::Chip,
        params: &Self::Params,
        enrollment: &Self::Enrollment,
    ) -> Result<ImprintCost, SchemeError>;

    /// Inspector-side verification: extract the evidence through the
    /// digital interface, compare it against the enrollment
    /// ([`SchemeVerification::mismatch`]), and classify with the shared
    /// [`Verdict`] vocabulary. Fault conditions degrade to
    /// [`Verdict::Inconclusive`]; only non-transient infrastructure
    /// failures surface as errors.
    ///
    /// # Errors
    ///
    /// Non-transient backend errors only.
    fn verify(
        &self,
        chip: &mut Self::Chip,
        params: &Self::Params,
        enrollment: &Self::Enrollment,
    ) -> Result<SchemeVerification, SchemeError>;

    /// An estimate of the marked region's wear (mean equivalent cycles) —
    /// the quantity the shared contract requires to be monotone over the
    /// scheme lifecycle.
    fn wear_estimate(&self, chip: &mut Self::Chip, params: &Self::Params) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transiency_survives_conversion() {
        let t: SchemeError = NorError::TransientNak.into();
        assert!(t.is_transient());
        let p: SchemeError = NorError::Locked.into();
        assert!(!p.is_transient());
        let c: SchemeError = CoreError::Config("bad").into();
        assert!(!c.is_transient());
        let b = SchemeError::Backend {
            scheme: "nand_puf",
            message: "block out of range".into(),
        };
        assert!(!b.is_transient());
        assert!(!SchemeError::Config("zero replicas").is_transient());
    }

    #[test]
    fn displays_are_lowercase_prose() {
        let samples: Vec<SchemeError> = vec![
            CoreError::Config("x").into(),
            SchemeError::Backend {
                scheme: "nand_puf",
                message: "block out of range".into(),
            },
            SchemeError::Config("zero replicas"),
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn free_imprint_cost_is_zero() {
        let c = ImprintCost::free();
        assert_eq!(c.cycles, 0);
        assert!(c.elapsed.get().abs() < f64::EPSILON);
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SchemeError>();
        check::<SchemeVerification>();
    }
}
