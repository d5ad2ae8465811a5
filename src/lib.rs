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
//! * [`supply`] — chip provenance, die sort and counterfeiter attack models.
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
//! [`prelude::provision`] and [`WatermarkScheme::verify`] run the same
//! enroll → imprint → verify story on any backend; here, the paper's NOR
//! tPEW scheme:
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
//! let params = TpewParams {
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
//! let (enrollment, cost) = provision(&NOR_TPEW, &mut chip, &params)?;
//! assert!(cost.cycles > 0, "wear-based backends pay an imprint cost");
//!
//! // Inspector side: verify against the enrollment.
//! let outcome = NOR_TPEW.verify(&mut chip, &params, &enrollment)?;
//! assert_eq!(outcome.verdict, Verdict::Genuine);
//! # Ok(())
//! # }
//! ```
//!
//! The classic NOR-only imprint/extract API remains available under
//! [`core`] (`Imprinter`, `Extractor`, `Verifier`).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

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
/// [`provision`](prelude::provision) flow, and every backend: the tPEW
/// scheme on NOR and ReRAM, and the NAND PUF.
///
/// ```
/// use flashmark::prelude::*;
/// ```
pub mod prelude {
    pub use flashmark_core::{
        provision, CounterfeitReason, ImprintCost, InconclusiveReason, SchemeError,
        SchemeVerification, TpewEnrollment, TpewParams, TpewScheme, Verdict, WatermarkScheme,
        NOR_TPEW,
    };
    pub use flashmark_nand::{NandPuf, NandPufParams};
    pub use flashmark_reram::RERAM_FORMING;
}
