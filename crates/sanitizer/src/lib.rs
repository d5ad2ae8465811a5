//! Runtime flash-protocol sanitizer for the Flashmark stack.
//!
//! [`SanitizedFlash`] wraps any [`FlashInterface`](flashmark_nor::FlashInterface)
//! and shadows the controller's protocol state, checking every operation
//! against the invariants real NOR parts impose — overprogramming, the
//! cumulative-program-time (`tCPT`) budget, lock discipline, address ranges,
//! the partial-erase ordering precondition of the paper's `ExtractFlashmark`
//! procedure (Fig. 8), and wear monotonicity.
//!
//! The sanitizer never changes behavior: every operation is forwarded and
//! its result returned unchanged. Detected violations are reported as
//! structured [`Violation`] values carrying a bounded backtrace of the
//! trailing [`FlashEvent`]s, taken from the sanitizer's own event ring,
//! under a configurable [`Policy`] (panic / collect / log).
//!
//! ```
//! use flashmark_nor::{FlashController, FlashGeometry, FlashInterface, FlashTimings, SegmentAddr};
//! use flashmark_physics::{Micros, PhysicsParams};
//! use flashmark_sanitizer::{SanitizedFlash, ViolationKind};
//!
//! let ctl = FlashController::new(
//!     PhysicsParams::msp430_like(),
//!     FlashGeometry::single_bank(4),
//!     FlashTimings::msp430(),
//!     7,
//! );
//! let mut flash = SanitizedFlash::wrap_controller(ctl);
//! let seg = SegmentAddr::new(0);
//!
//! // Partial erase without the erase + program-all-zero preamble: flagged.
//! flash.partial_erase(seg, Micros::new(30.0)).unwrap();
//! assert!(matches!(
//!     flash.violations()[0].kind,
//!     ViolationKind::PartialEraseOrder { .. }
//! ));
//! ```

pub mod flash;
pub mod violation;

pub use flash::{SanitizedFlash, WearProbe};
pub use violation::{FlashEvent, Policy, SegState, Violation, ViolationKind};
