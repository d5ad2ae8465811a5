//! ReRAM watermark backend: forming-voltage wear over the shared arenas.
//!
//! Reproduces the resistive-memory variant of the Flashmark idea
//! ("Watermarked ReRAM", arXiv 2204.02104): the counterfeiting watermark
//! is deposited as **forming-voltage stress** — filaments formed at an
//! elevated voltage switch measurably slower forever after — and read
//! back with the same `tPEW`-aborted reset the paper's NOR scheme uses.
//! Set, reset and forming map one-for-one onto program, erase and bulk
//! imprint, so a ReRAM part runs on the NOR `FlashController` with two
//! presets. The crate layers:
//!
//! * [`params`] — the cell-population preset [`reram_like`] (wide
//!   filament variation, set/reset endurance asymmetry, steep forming
//!   signature) over the shared `flashmark-physics` parameterization, and
//!   the timing preset [`reram_timings`] (sub-µs switching, ms-class
//!   forming pass);
//! * [`scheme`] — [`RERAM_FORMING`], core's one tPEW `WatermarkScheme`
//!   as campaigns run it on a ReRAM part.
//!
//! ```
//! use flashmark_core::config::FlashmarkConfig;
//! use flashmark_core::nor_scheme::TpewParams;
//! use flashmark_core::pipeline::provision;
//! use flashmark_core::scheme::WatermarkScheme;
//! use flashmark_core::verify::Verdict;
//! use flashmark_core::watermark::{TestStatus, WatermarkRecord};
//! use flashmark_nor::{FlashController, FlashGeometry, SegmentAddr};
//! use flashmark_reram::{reram_like, reram_timings, RERAM_FORMING};
//!
//! let mut chip = FlashController::new(
//!     reram_like(),
//!     FlashGeometry::single_bank(8),
//!     reram_timings(),
//!     7, // chip seed
//! );
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

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod params;
pub mod scheme;

pub use params::{reram_like, reram_timings, reram_wear_weights, MAX_FORMING_CYCLES};
pub use scheme::RERAM_FORMING;
