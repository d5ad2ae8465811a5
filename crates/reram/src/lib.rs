//! ReRAM watermark backend: forming-voltage wear over the shared arenas.
//!
//! Reproduces the resistive-memory variant of the Flashmark idea
//! ("Watermarked ReRAM", arXiv 2204.02104): the counterfeiting watermark
//! is deposited as **forming-voltage stress** — filaments formed at an
//! elevated voltage switch measurably slower forever after — and read
//! back with the same `tPEW`-aborted reset the paper's NOR scheme uses.
//! The crate layers:
//!
//! * [`params`] — the ReRAM cell-population preset (wide filament
//!   variation, set/reset endurance asymmetry, steep forming signature)
//!   over the shared `flashmark-physics` parameterization;
//! * [`chip`] — [`ReramChip`], the emulated module (set/reset/forming
//!   vocabulary, sub-µs switching, ms-class forming pass);
//! * [`adapter`] — [`ReramWordAdapter`], the `FlashInterface` shim the
//!   Flashmark procedures drive unchanged;
//! * [`scheme`] — [`RERAM_FORMING`], core's one tPEW `WatermarkScheme`
//!   on the word adapter, as campaigns run it (`"reram_forming"`).
//!
//! ```
//! use flashmark_core::config::FlashmarkConfig;
//! use flashmark_core::nor_scheme::TpewParams;
//! use flashmark_core::pipeline::provision;
//! use flashmark_core::scheme::WatermarkScheme;
//! use flashmark_core::verify::Verdict;
//! use flashmark_core::watermark::{TestStatus, WatermarkRecord};
//! use flashmark_nor::{FlashGeometry, SegmentAddr};
//! use flashmark_reram::{ReramChip, ReramWordAdapter, RERAM_FORMING};
//!
//! let mut chip = ReramWordAdapter::new(ReramChip::new(FlashGeometry::single_bank(8), 7));
//! let params = TpewParams {
//!     config: FlashmarkConfig::builder()
//!         .n_pe(60_000)
//!         .replicas(7)
//!         .t_pew(flashmark_physics::Micros::new(28.0))
//!         .build()
//!         .unwrap(),
//!     seg: SegmentAddr::new(0),
//!     manufacturer_id: 0x1001,
//!     record: WatermarkRecord {
//!         manufacturer_id: 0x1001,
//!         die_id: 1,
//!         speed_grade: 1,
//!         status: TestStatus::Accept,
//!         year_week: 2033,
//!     },
//! };
//! let (enrollment, cost) = provision(&RERAM_FORMING, &mut chip, &params).unwrap();
//! let verification = RERAM_FORMING.verify(&mut chip, &params, &enrollment).unwrap();
//! assert_eq!(verification.verdict, Verdict::Genuine);
//! assert!(cost.elapsed.get() < 1.0); // one forming pass, not a wear loop
//! ```

pub mod adapter;
pub mod chip;
pub mod error;
pub mod params;
pub mod scheme;

pub use adapter::ReramWordAdapter;
pub use chip::{ReramChip, ReramTimings};
pub use error::ReramError;
pub use params::{reram_like, reram_wear_weights, MAX_FORMING_CYCLES};
pub use scheme::RERAM_FORMING;
