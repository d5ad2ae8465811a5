//! Append-only provenance registry for chip verifications.
//!
//! The paper frames Flashmark as an incoming-inspection tool; related work
//! ("Watermarked ReRAM", "SIGNED") argues that what makes repeated
//! interrogation trustworthy is the verifier-side *record* of outcomes —
//! counterfeit detection is a chain-of-custody problem spanning many
//! inspections, not a single yes/no. This crate is that record:
//!
//! * one [`Record`] per verification — chip id, verifier commit tag,
//!   canonical recipe params, verdict, per-request metrics, retry-ladder
//!   depth — serialized as a canonical single-line JSON with a fixed field
//!   order;
//! * a deterministic FNV-1a content digest per record, linked into a
//!   running chain digest, with per-segment [`Seal`]s every `seal_every`
//!   records — so two registry files (or two runs at different
//!   `--threads`) can be compared by a single 64-bit root;
//! * idempotent appends keyed on `request_id` — replaying a request batch
//!   changes nothing;
//! * merge-commutative [`ServiceStats`] aggregates (verdict mix per
//!   provenance class, retry-ladder histograms) whose `absorb` is a
//!   pointwise `BTreeMap` addition, order-independent across shard
//!   interleavings.
//!
//! The crate is dependency-free (pure `std`): the serving layer
//! (`flashmark-serve`) maps core verdicts into records, and the bench
//! layer drives million-request campaigns against it.
//!
//! # Example
//!
//! ```
//! use flashmark_registry::{Record, RecordVerdict, Registry, RegistryOptions};
//!
//! let mut reg = Registry::new(RegistryOptions::default());
//! let outcome = reg.append(Record {
//!     request_id: 1,
//!     chip_id: 42,
//!     class: "genuine".into(),
//!     scheme: "nor_tpew".into(),
//!     commit: "flashmark/1".into(),
//!     params: "{\"n_pe\":60000}".into(),
//!     verdict: RecordVerdict::Accept,
//!     reason: String::new(),
//!     metrics: "{}".into(),
//!     ladder_depth: 1,
//!     retries: 0,
//! });
//! assert!(outcome.recorded());
//! // Replaying the same request is a no-op.
//! # let again = reg.append(Record { request_id: 1, chip_id: 42,
//! #     class: "genuine".into(), scheme: "nor_tpew".into(), commit: "flashmark/1".into(),
//! #     params: "{\"n_pe\":60000}".into(), verdict: RecordVerdict::Accept,
//! #     reason: String::new(), metrics: "{}".into(), ladder_depth: 1, retries: 0 });
//! # assert!(!again.recorded());
//! assert_eq!(reg.len(), 1);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod digest;
pub mod record;
pub mod stats;
pub mod store;

pub use digest::Digest64;
pub use record::{json_string, Record, RecordVerdict, SealedRecord};
pub use stats::ServiceStats;
pub use store::{AppendOutcome, Registry, RegistryOptions, Seal, REGISTRY_FORMAT_VERSION};
