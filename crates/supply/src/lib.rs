//! Supply-chain and counterfeiter simulation.
//!
//! The paper motivates Flashmark with three counterfeiting pathways:
//! recycled chips resold as new, rejected (fall-out) dies re-entering the
//! chain, and inferior parts re-branded as premium ones. This crate models
//! that world end to end:
//!
//! * [`Manufacturer`] runs die-sort: writes the (forgeable) TLV metadata
//!   *and* imprints the Flashmark record into the reserved segment;
//! * [`chip::Chip`] is a device plus its hidden ground-truth provenance;
//! * [`counterfeiter`] implements the attacks a counterfeiter can actually
//!   perform with full digital access to the part — erase/reprogram,
//!   metadata forgery, cloning a genuine chip's bits onto fresh silicon,
//!   additional stressing, recycling;
//! * [`SystemIntegrator`] runs the incoming-inspection workflow (verify the
//!   watermark, optionally stress-check user segments for recycling);
//! * [`scenario`] assembles mixed populations and reports detection
//!   statistics per provenance class.
//!
//! # Example
//!
//! ```
//! use flashmark_supply::scenario::{ScenarioConfig, SupplyChainScenario};
//!
//! let mut scenario = SupplyChainScenario::new(ScenarioConfig::small(0xACE));
//! let stats = scenario.run().expect("simulation runs");
//! // Every honest chip passes, every counterfeit pathway is caught.
//! assert_eq!(stats.false_positives(), 0);
//! assert_eq!(stats.false_negatives(), 0);
//! ```

pub mod chip;
pub mod counterfeiter;
pub mod integrator;
pub mod manufacturer;
pub mod report;
pub mod scenario;
pub mod usage;

pub use chip::{Chip, Provenance};
pub use counterfeiter::{Attack, AttackKind};
pub use integrator::{ChipAssessment, InspectionPolicy, SystemIntegrator};
pub use manufacturer::Manufacturer;
pub use report::DetectionStats;
pub use scenario::{ScenarioConfig, SupplyChainScenario};
pub use usage::{live_first_life, sampled_probe_segments, UsageProfile};
