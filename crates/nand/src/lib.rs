//! SLC NAND flash emulation and the Flashmark-on-NAND adapter.
//!
//! The paper demonstrates Flashmark on embedded NOR but concludes that "the
//! proposed method is applicable broadly to NOR and NAND flash memories".
//! This crate substantiates that claim:
//!
//! * [`NandChip`] emulates a small-block SLC NAND part: page-granular reads
//!   and programs (with the usual partial-page-program NOP limit), block
//!   erase, and — the Flashmark enabler — a block erase that can be
//!   **aborted** after a partial-erase time. Cells reuse the calibrated
//!   [`flashmark_physics`] models (NAND-typical timing/endurance preset).
//! * [`NandWordAdapter`] implements the
//!   [`FlashInterface`](flashmark_nor::interface::FlashInterface) trait over
//!   a chip, mapping a flash *block* to a Flashmark *segment* and 16-bit
//!   page chunks to words — so `Imprinter`, `Extractor`,
//!   `CharacterizeSegment`, and `Verifier` run on NAND **unchanged**.
//!
//! # Example
//!
//! ```
//! use flashmark_nand::{NandChip, NandGeometry, NandWordAdapter};
//! use flashmark_nor::interface::FlashInterface;
//! use flashmark_nor::WordAddr;
//!
//! # fn main() -> Result<(), flashmark_nor::NorError> {
//! let chip = NandChip::new(NandGeometry::tiny(), 0xDA7A);
//! let mut flash = NandWordAdapter::new(chip);
//! flash.program_word(WordAddr::new(0), 0x5443)?; // "TC"
//! assert_eq!(flash.read_word(WordAddr::new(0))?, 0x5443);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod adapter;
pub mod chip;
pub mod geometry;
pub mod puf;
pub mod timing;

pub use adapter::NandWordAdapter;
pub use chip::{NandChip, NandError};
pub use geometry::{BlockAddr, NandGeometry, PageAddr};
pub use puf::{NandPuf, NandPufEnrollment, NandPufParams};
pub use timing::NandTimings;
