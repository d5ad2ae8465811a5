//! # Flashmark
//!
//! Umbrella crate for the Flashmark reproduction (DAC 2020): watermarking of
//! NOR flash memories for counterfeit detection.
//!
//! Re-exports every sub-crate under a stable facade:
//!
//! * [`physics`] — floating-gate cell physics (wear, erase dynamics, noise).
//! * [`nor`] — NOR flash array + controller emulation (the digital interface).
//! * [`msp430`] — MSP430F5438/F5529 device models (the paper's testbed).
//! * [`nand`] — SLC NAND emulation + adapter (the paper's "applicable to
//!   NAND too" claim, demonstrated).
//! * [`reram`] — ReRAM emulation: forming-voltage wear physics with
//!   set/reset endurance asymmetry, behind its own interface adapter.
//! * [`core`] — the Flashmark technique: imprint, extract, characterize,
//!   verify — and the cross-technology [`WatermarkScheme`] facade
//!   every backend implements.
//! * [`ecc`] — replication/majority voting, Hamming codes, CRC signatures.
//! * [`supply`] — supply-chain scenarios and counterfeiter attack models.
//! * [`sanitizer`] — flash-protocol runtime sanitizer: wraps any flash
//!   interface and reports invariant violations with event backtraces.
//! * [`fault`] — deterministic fault injection: wraps any flash interface
//!   and injects power loss, bit flips, read disturb, timing jitter and
//!   transient interface errors from a seed-driven [`fault::FaultPlan`].
//! * [`registry`] — append-only provenance registry: one digest-chained
//!   record per verification, sealed segments, merge-commutative service
//!   aggregates.
//! * [`serve`] — the incoming-inspection verification service: a channel
//!   front end sharding batched verify requests across workers while
//!   keeping the registry byte-identical at any thread count.
//! * [`trend`] — cross-run trend registry: a digest-chained log of
//!   campaign outcomes with detection-drift gates and advisory perf
//!   drift warnings.
//!
//! # Quickstart
//!
//! The scheme-generic entry points ([`prelude::provision`] /
//! [`prelude::inspect`]) run the same enroll → imprint → verify story on
//! any backend; here, the paper's NOR tPEW scheme:
//!
//! ```
//! use flashmark::prelude::*;
//! use flashmark::core::{FlashmarkConfig, TestStatus, WatermarkRecord};
//! use flashmark::nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
//! use flashmark::physics::PhysicsParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A simulated MSP430-class NOR part.
//! let mut chip = FlashController::new(
//!     PhysicsParams::msp430_like(),
//!     FlashGeometry::single_bank(8),
//!     FlashTimings::msp430(),
//!     0xC0FFE0,
//! );
//!
//! // Manufacturer side: enroll the die-sort record and imprint it.
//! let config = FlashmarkConfig::builder()
//!     .n_pe(60_000)
//!     .replicas(7)
//!     .build()?;
//! let params = NorTpewParams {
//!     config,
//!     seg: SegmentAddr::new(4),
//!     manufacturer_id: 0x1A2B,
//!     record: WatermarkRecord {
//!         manufacturer_id: 0x1A2B,
//!         die_id: 7,
//!         speed_grade: 2,
//!         status: TestStatus::Accept,
//!         year_week: 2026,
//!     },
//! };
//! let (enrollment, cost) = provision(&NorTpew, &mut chip, &params)?;
//! assert!(cost.cycles > 0, "wear-based backends pay an imprint cost");
//!
//! // Inspector side: verify against the enrollment.
//! let outcome = inspect(&NorTpew, &mut chip, &params, &enrollment)?;
//! assert_eq!(outcome.verdict, Verdict::Genuine);
//! # Ok(())
//! # }
//! ```
//!
//! The classic NOR-only imprint/extract API remains available under
//! [`core`] (`Imprinter`, `Extractor`, `Verifier`).

pub use flashmark_core as core;
pub use flashmark_ecc as ecc;
pub use flashmark_fault as fault;
pub use flashmark_msp430 as msp430;
pub use flashmark_nand as nand;
pub use flashmark_nor as nor;
pub use flashmark_physics as physics;
pub use flashmark_registry as registry;
pub use flashmark_reram as reram;
pub use flashmark_sanitizer as sanitizer;
pub use flashmark_serve as serve;
pub use flashmark_supply as supply;
pub use flashmark_trend as trend;

pub use flashmark_core::WatermarkScheme;

/// The cross-technology watermarking vocabulary in one import: the
/// [`WatermarkScheme`] trait, its verdict/error types, the scheme-generic
/// pipeline entry points, and every backend implementation.
///
/// ```
/// use flashmark::prelude::*;
/// ```
pub mod prelude {
    pub use flashmark_core::{
        inspect, provision, CounterfeitReason, ImprintCost, InconclusiveReason, NorEnrollment,
        NorTpew, NorTpewParams, SchemeError, SchemeVerification, Verdict, WatermarkScheme,
    };
    pub use flashmark_nand::{NandPuf, NandPufConfig, NandPufParams};
    pub use flashmark_reram::{ReramParams, ReramScheme, ReramWordAdapter};
}
