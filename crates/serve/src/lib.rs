//! Fleet-scale chip-verification service over the provenance registry.
//!
//! The paper positions Flashmark as an incoming-inspection check a system
//! integrator runs on purchased parts. At fleet scale that check is a
//! *service*: a stream of verification requests against an enrolled
//! population of chip identities, every outcome recorded in an append-only
//! provenance log. This crate provides both halves:
//!
//! * [`population`] — deterministic enrolled populations mixing honest and
//!   counterfeit provenance classes (genuine, forged fall-out, recycled,
//!   cloned, re-branded), each chip a pure function of a spec seed;
//! * [`service`] — a channel-fed front end plus a sharded batch processor:
//!   requests shard by `chip_id % shards`, shards fan across
//!   `flashmark_par` workers, and draft records re-merge in arrival order
//!   before the serial registry append — so any `--threads N` yields a
//!   byte-identical registry log.
//!
//! Every request verifies a fresh copy of the chip's enrolled as-received
//! state: Flashmark sensing is destructive, and the service models
//! repeated inspection of parts from a lot, not repeated sensing of one
//! die (which would wear out the watermark it is trying to read).

pub mod population;
pub mod service;

pub use population::{class, EnrolledChip, Population, PopulationSpec};
pub use service::{
    BatchReport, RequestSender, ServiceConfig, VerificationService, VerifyRequest, COMMIT_TAG,
    PROBE_WINDOW_SEGMENTS,
};
