//! Supply-chain and counterfeiter simulation.
//!
//! The paper motivates Flashmark with three counterfeiting pathways:
//! recycled chips resold as new, rejected (fall-out) dies re-entering the
//! chain, and inferior parts re-branded as premium ones. This crate models
//! the parts that reach an inspector:
//!
//! * [`Manufacturer`] runs die-sort: writes the (forgeable) TLV metadata
//!   *and* imprints the Flashmark record into the reserved segment;
//! * [`chip::Chip`] is a device plus its hidden ground-truth provenance;
//! * [`counterfeiter`] implements the attacks a counterfeiter can actually
//!   perform with full digital access to the part — erase/reprogram,
//!   metadata forgery, cloning a genuine chip's bits onto fresh silicon,
//!   additional stressing, recycling;
//! * [`usage`] models a recycled chip's first life and samples the
//!   segments an inspector probes for its wear.
//!
//! Incoming inspection itself is `flashmark_serve`'s verification service,
//! which enrolls populations built from these parts.

pub mod chip;
pub mod counterfeiter;
pub mod manufacturer;
pub mod usage;

pub use chip::{Chip, Provenance};
pub use counterfeiter::{Attack, AttackKind};
pub use manufacturer::Manufacturer;
pub use usage::{live_first_life, sampled_probe_segments, UsageProfile};
