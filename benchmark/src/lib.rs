//! `flashbench`: the end-to-end and per-layer benchmark of Flashmark's two
//! deployment costs, incoming inspection (the verification service) and
//! die-sort enrollment (imprint plus screening).
//!
//! An untraced run reports the end-to-end metrics; a traced run replays the
//! same work through instrumented shadows of the service path and of
//! enrollment ([`shadow`]) and reports the per-layer ledger ([`ledger`]).
//! See `README.md` in this package for the workloads, metrics and commands.

pub mod agree;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod shadow;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;
