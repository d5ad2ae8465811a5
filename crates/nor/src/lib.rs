//! NOR flash memory emulation: array, controller, and digital interface.
//!
//! This crate is the *digital* substrate of the Flashmark reproduction. It
//! wraps the analog cell models of [`flashmark_physics`] in exactly the
//! interface a microcontroller's flash controller exposes:
//!
//! * word-granular reads, `1`→`0` program of words and blocks,
//! * segment erase and mass erase,
//! * **emergency exit**: aborting an in-flight erase after a chosen partial
//!   erase time `tPE` — the operation Flashmark uses to sense analog wear
//!   through the digital interface,
//! * a simulated wall clock driven by datasheet operation timings, and
//! * an optional MSP430-style register front-end (`FCTL1/FCTL3` with
//!   password keys and violation flags).
//!
//! The Flashmark algorithms in `flashmark-core` are generic over the
//! [`FlashInterface`] trait defined here, so they can drive this simulator or
//! a real part behind the same API.
//!
//! # Example
//!
//! ```
//! use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr, WordAddr};
//! use flashmark_nor::interface::FlashInterface;
//! use flashmark_physics::{Micros, PhysicsParams};
//!
//! # fn main() -> Result<(), flashmark_nor::NorError> {
//! let geometry = FlashGeometry::single_bank(16); // 16 segments of 512 B
//! let mut ctl = FlashController::new(
//!     PhysicsParams::msp430_like(),
//!     geometry,
//!     FlashTimings::msp430(),
//!     0xC0FFEE, // chip seed
//! );
//!
//! let seg = SegmentAddr::new(3);
//! ctl.erase_segment(seg)?;
//! let base = geometry.first_word(seg);
//! ctl.program_word(base, 0x5443)?; // "TC"
//! assert_eq!(ctl.read_word(base)?, 0x5443);
//!
//! // Partial erase: abort after 20 µs — fresh cells are mid-transition.
//! ctl.erase_segment(seg)?;
//! ctl.program_block(seg, &vec![0x0000; geometry.words_per_segment()])?;
//! ctl.partial_erase(seg, Micros::new(20.0))?;
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod array;
pub mod controller;
pub mod error;
pub mod geometry;
pub mod interface;
pub mod registers;
pub mod timing;

pub use addr::{SegmentAddr, WordAddr};
pub use array::{FlashArray, SegmentCells, WearStats};
pub use controller::FlashController;
pub use error::NorError;
pub use geometry::FlashGeometry;
pub use interface::{BulkStress, FlashInterface, ImprintTiming, PartialProgram};
pub use registers::{Fctl, RegisterFront};
pub use timing::FlashTimings;
