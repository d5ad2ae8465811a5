//! Deterministic fault injection for the Flashmark flash emulation.
//!
//! The paper's robustness story (Figs. 9–11: replication + majority voting
//! drive extraction BER to zero) is only as strong as the fault model it is
//! tested against. This crate supplies that model as a decorator:
//! [`FaultyFlash`] wraps any [`flashmark_nor::interface::FlashInterface`]
//! and injects the field failures a production verifier must survive —
//! power loss mid-erase, random read noise, read-disturb accumulation,
//! partial-erase timing jitter, and transient NAK-style interface errors —
//! according to a [`FaultPlan`] whose schedule is a *pure function of
//! `(seed, op_index)`*.
//!
//! Purity is the load-bearing property: a campaign that replays the same
//! operation sequence against the same plan sees byte-identical faults on
//! any host and any thread count, so differential golden-vs-faulted runs
//! under the parallel trial runner stay reproducible.
//!
//! ```
//! use flashmark_fault::{FaultPlan, FaultyFlash};
//! use flashmark_nor::interface::FlashInterface;
//! use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, NorError, SegmentAddr};
//! use flashmark_physics::PhysicsParams;
//!
//! let chip = FlashController::new(
//!     PhysicsParams::msp430_like(),
//!     FlashGeometry::single_bank(4),
//!     FlashTimings::msp430(),
//!     7,
//! );
//! // Power fails at the very first operation; retrying succeeds.
//! let plan = FaultPlan::new(42).with_power_loss(0, 0.5);
//! let mut flash = FaultyFlash::new(chip, plan);
//! let seg = SegmentAddr::new(0);
//! assert_eq!(flash.erase_segment(seg), Err(NorError::PowerLoss));
//! assert!(flash.erase_segment(seg).is_ok());
//! ```

pub mod flash;
pub mod plan;

pub use flash::FaultyFlash;
pub use plan::FaultPlan;
