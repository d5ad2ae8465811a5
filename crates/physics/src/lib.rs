//! Floating-gate NOR flash cell physics models.
//!
//! This crate is the lowest substrate of the Flashmark reproduction. It models
//! the *analog* behaviour of floating-gate flash cells that the Flashmark
//! technique (DAC 2020) exploits:
//!
//! * threshold-voltage (`VTH`) state of each cell, with process variation,
//! * program (source-side hot-carrier injection) and erase (Fowler–Nordheim
//!   tunneling) dynamics, including **partial** operations that are aborted
//!   before completion,
//! * cumulative, irreversible oxide **wear** from program/erase stress, which
//!   slows down erase — the physical channel the watermark is written into,
//! * read sensing with noise, and long-term charge retention.
//!
//! The erase-speed-vs-wear relationship is calibrated against the measured
//! anchors published in the paper (Fig. 4: the minimum partial-erase time at
//! which *all* 4096 cells of a 512-byte segment read erased, for stress levels
//! 0 K…100 K P/E cycles). See [`calibration`].
//!
//! Everything is deterministic given a chip seed: per-cell static variation is
//! derived by hashing `(chip_seed, cell_index, channel)`, so two simulations
//! of the same chip agree bit-for-bit regardless of operation order.
//!
//! # Example
//!
//! ```
//! use flashmark_physics::{CellState, CellStatics, PhysicsParams};
//! use flashmark_physics::rng::SplitMix64;
//!
//! let params = PhysicsParams::msp430_like();
//! let statics = CellStatics::derive(&params, 0xC0FFEE, 17);
//! let mut cell = CellState::fresh(&statics);
//! let mut rng = SplitMix64::new(42);
//!
//! // Fresh cell: program it, then a full erase brings it back.
//! flashmark_physics::program::apply_program(&params, &statics, &mut cell, &mut rng);
//! assert!(!flashmark_physics::cell::sense(&params, &cell, &mut rng)); // reads 0
//! let mut cache = flashmark_physics::EraseDistCache::new(params.erase_dist_grid_kcycles);
//! let t = flashmark_physics::erase::t_cross_us_cached(&params, &statics, cell.wear_cycles, &mut cache);
//! flashmark_physics::erase::apply_erase_cached(&params, &statics, &mut cell, t * 2.0, &mut cache);
//! assert!(flashmark_physics::cell::sense(&params, &cell, &mut rng)); // reads 1
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod arena;
pub mod calibration;
pub mod cell;
pub mod erase;
pub mod noise;
pub mod params;
pub mod program;
pub mod retention;
pub mod rng;
pub mod units;
pub mod variation;
pub mod wear;

pub use arena::CellArena;
pub use calibration::{EraseCalibration, SusceptibilityTable, WearAnchor};
pub use cell::{CellState, CellStatics, EarlyTrap};
pub use erase::EraseDistCache;
pub use noise::PulseNoise;
pub use params::{PhysicsParams, TailParams, WearWeights};
pub use retention::RetentionParams;
pub use rng::CounterStream;
pub use units::{Micros, Seconds, Volts};
