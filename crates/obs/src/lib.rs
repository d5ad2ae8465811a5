//! Deterministic observability for the Flashmark stack.
//!
//! The paper's premise is making invisible physical state (oxide wear)
//! digitally observable; this crate does the same for the reproduction's
//! own runtime state. Instrumented crates emit typed [`ObsEvent`]s through
//! a thread-local [`emit`] hook that costs one flag check when disabled;
//! trial campaigns scope one bounded [`Collector`] around each trial with
//! [`collect`] and merge them **in trial order**, so every aggregated
//! artifact is byte-identical at any `--threads` count.
//!
//! Determinism quarantine rule: nothing in this crate touches wall-clock
//! time (`clippy.toml` bans the `std::time` types here). Timings are a
//! bench-layer concern and live only in the suite's runtime report.
//!
//! # Example
//!
//! ```
//! use flashmark_obs as obs;
//!
//! let ((), collector) = obs::collect(obs::Collector::new(0), || {
//!     let _span = obs::span("extract");
//!     obs::emit(obs::ObsEvent::FlashOp {
//!         kind: obs::FlashOpKind::EraseSegment,
//!         seg: 3,
//!     });
//! });
//! assert_eq!(collector.metrics().counter("flash", "erase_segment"), 1);
//! ```

pub mod collector;
pub mod event;
pub mod metrics;
pub mod runtime;

pub use collector::{Collector, Metrics, DEFAULT_EVENT_CAPACITY};
pub use event::{FlashOpKind, ObsEvent};
pub use metrics::{bucket_of, flash_op_cost, virtual_latency_of, Snapshot, FLASH_OP_COSTS, GLOBAL};
pub use runtime::{collect, emit, install, span, take, Span};
