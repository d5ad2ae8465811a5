//! MSP430F5438 / MSP430F5529 device models.
//!
//! The Flashmark paper demonstrates the technique on these two TI ultra-low
//! power microcontrollers. This crate assembles the generic NOR substrate
//! ([`flashmark_nor`]) into concrete devices: memory maps (main flash banks +
//! 128-byte info segments), datasheet timing, endurance rating, and the
//! TLV-style device-descriptor records that the *current practice* stores as
//! plain (forgeable) flash metadata — the strawman Flashmark replaces.
//!
//! # Example
//!
//! ```
//! use flashmark_msp430::{Msp430Flash, Msp430Variant};
//! use flashmark_nor::interface::FlashInterface;
//!
//! let mut chip = Msp430Flash::new(Msp430Variant::F5438, 0xD1E5);
//! assert_eq!(chip.spec().main_geometry.total_words() * 2, 256 * 1024);
//! let seg = chip.watermark_segment();
//! chip.erase_segment(seg).expect("erase reserved segment");
//! ```

pub mod datasheet;
pub mod device;
pub mod flash_module;
pub mod info_memory;

pub use device::{DeviceSpec, Msp430Variant};
pub use flash_module::Msp430Flash;
pub use info_memory::{DeviceDescriptor, DieRecord, TlvTag};
