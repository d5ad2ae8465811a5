//! The Flashmark technique (DAC 2020): watermarking NOR flash memories for
//! counterfeit detection.
//!
//! Flashmark imprints a digital watermark into the **irreversible wear
//! state** of flash cells and reads it back through the standard digital
//! interface:
//!
//! * [`Imprinter`] (paper Fig. 7) applies `NPE` erase/program cycles of the
//!   watermark pattern to a reserved segment; 0-bits wear out ("bad" cells),
//!   1-bits stay fresh ("good" cells). Wear cannot be undone, so a "reject"
//!   mark can never be forged into "accept".
//! * [`sense_segment`] is the sensing round the procedures below share: it
//!   erases, programs everything to 0, then aborts an erase after a
//!   partial-erase time: fresh cells have already flipped to 1, worn cells
//!   still read 0.
//! * [`Extractor`] (Fig. 8) runs one round at `tPEW`, and the watermark
//!   appears in the read-back data.
//! * [`characterize_segment`] (Fig. 3) runs one round per point of a
//!   partial-erase time sweep to map a device family's wear response;
//!   [`select_t_pew`] picks the extraction window from it (Fig. 5), and
//!   [`StressDetector`] tells fresh from worn segments with one round.
//! * [`Verifier`] runs the full system-integrator check: extract, majority-
//!   vote across replicas, validate the record signature and balance, and
//!   classify the chip.
//!
//! All algorithms drive flash only through
//! [`FlashInterface`](flashmark_nor::interface::FlashInterface), so they work
//! against the bundled simulator or real hardware behind the same trait.
//!
//! # Example
//!
//! ```
//! use flashmark_core::{FlashmarkConfig, Extractor, Imprinter, Watermark};
//! use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
//! use flashmark_physics::PhysicsParams;
//!
//! # fn main() -> Result<(), flashmark_core::CoreError> {
//! let mut flash = FlashController::new(
//!     PhysicsParams::msp430_like(),
//!     FlashGeometry::single_bank(8),
//!     FlashTimings::msp430(),
//!     0xFEED,
//! );
//! let config = FlashmarkConfig::builder().n_pe(70_000).replicas(7).build()?;
//! let seg = SegmentAddr::new(3);
//! let wm = Watermark::from_ascii("TC")?;
//!
//! Imprinter::new(&config).imprint(&mut flash, seg, &wm)?;
//! let extraction = Extractor::new(&config).extract(&mut flash, seg, wm.len())?;
//! assert_eq!(extraction.bits(), wm.bits());
//! # Ok(())
//! # }
//! ```

pub mod characterize;
pub mod config;
pub mod detect;
pub mod error;
pub mod extract;
pub mod imprint;
pub mod layout;
pub mod metrics;
pub mod nor_scheme;
pub mod pipeline;
pub mod recipe;
pub mod sanitized;
pub mod scheme;
pub mod tamper;
pub mod verify;
pub mod watermark;
pub mod window;

pub use characterize::{
    analyze_segment, characterize_segment, sense_segment, CharacterizationCurve,
    CharacterizationPoint, SweepSpec,
};
pub use config::{FlashmarkConfig, FlashmarkConfigBuilder};
pub use detect::{ProgramTimeDetector, SegmentCondition, StressDetector, StressReport};
pub use error::CoreError;
pub use extract::{Extraction, Extractor};
pub use imprint::{ImprintReport, Imprinter};
pub use layout::SegmentLayout;
pub use metrics::ExtractionErrors;
pub use nor_scheme::{TpewEnrollment, TpewParams, TpewScheme, NOR_TPEW};
pub use pipeline::provision;
pub use recipe::{characterize_sample, fuse_windows, ExtractionRecipe, FamilyCharacterization};
pub use sanitized::run_sanitized;
pub use scheme::{ImprintCost, SchemeError, SchemeVerification, WatermarkScheme};
pub use tamper::BalancePolicy;
pub use verify::{
    CounterfeitReason, InconclusiveReason, Resolution, Verdict, VerificationReport, Verifier,
};
pub use watermark::{TestStatus, Watermark, WatermarkRecord};
pub use window::{select_t_pew, WindowChoice};
